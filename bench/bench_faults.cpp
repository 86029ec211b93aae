// E17 — measured availability under message loss vs. the analytical curve.
//
// The fault injector drops each message independently with probability d,
// on the request and the response leg alike, so a replica contributes to a
// single-attempt quorum iff both legs survive: p_up = (1-d)². The
// availability analysis of E4 (src/quorum/availability.*) then predicts
// the single-attempt read success rate as ExactAvailability(majority(n),
// p_up).read — Section 1 sweeps drop rate × quorum size and checks the
// measured rate lands within 5 points of that prediction, closing the loop
// between the analytical model and the threaded runtime.
//
// Section 2 holds d = 0.2 and sweeps the retry budget: k attempts succeed
// with 1 - (1 - a)^k for per-attempt availability a, so a handful of
// retries with backoff restores near-full availability — the quantitative
// case for the client's retry layer.
//
// Ops are pipelined (window 32, max_batch 1 so every probe rides its own
// message and attempts stay independent); failed attempts overlap their
// timeouts instead of serializing them. Results print as tables and are
// written as JSON (argv[1], default "BENCH_faults.json") for CI archiving.
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "quorum/availability.hpp"
#include "runtime/store.hpp"
#include "table.hpp"

namespace {

using namespace qcnt;
using runtime::AsyncQuorumClient;
using runtime::ClientOptions;
using runtime::FaultPlan;
using runtime::OpFuture;
using runtime::ReplicatedStore;
using runtime::StoreOptions;

constexpr std::size_t kOps = 800;
constexpr std::size_t kWindow = 32;
constexpr std::chrono::milliseconds kAttemptTimeout{15};
constexpr double kTolerance = 0.05;  // acceptance band vs. the model

/// Fraction of kOps single-key reads that resolved ok.
double MeasuredReadSuccess(std::size_t replicas, double drop,
                           std::size_t max_attempts, std::uint64_t seed) {
  StoreOptions options;
  options.replicas = replicas;
  FaultPlan plan;
  plan.drop = drop;
  plan.seed = seed;
  options.faults = plan;
  ReplicatedStore store(std::move(options));

  ClientOptions copts;
  copts.timeout = kAttemptTimeout;
  copts.max_attempts = max_attempts;
  copts.backoff_base = std::chrono::milliseconds{1};
  copts.window = kWindow;
  copts.max_batch = 1;  // one probe per message: attempts stay independent
  auto client = store.MakeAsyncClient(copts);

  std::vector<OpFuture> futures;
  futures.reserve(kOps);
  for (std::size_t i = 0; i < kOps; ++i) {
    futures.push_back(client->SubmitRead("k" + std::to_string(i % 64)));
  }
  client->Drain();
  std::size_t ok = 0;
  for (OpFuture& f : futures) {
    if (f.Get().ok) ++ok;
  }
  return static_cast<double>(ok) / static_cast<double>(kOps);
}

struct SweepRow {
  std::size_t n;
  double drop;
  double predicted;
  double measured;
  double error;  // measured - predicted
  bool within;
};

struct RetryRow {
  std::size_t attempts;
  double predicted;
  double measured;
};

void WriteJson(const std::string& path, const std::vector<SweepRow>& sweep,
               const std::vector<RetryRow>& retries, double retry_drop,
               bool all_within) {
  std::ofstream os(path);
  os << "{\n"
     << "  \"experiment\": \"E17\",\n"
     << "  \"ops_per_cell\": " << kOps << ",\n"
     << "  \"attempt_timeout_ms\": " << kAttemptTimeout.count() << ",\n"
     << "  \"tolerance\": " << bench::Table::Num(kTolerance, 2) << ",\n"
     << "  \"all_within_tolerance\": " << (all_within ? "true" : "false")
     << ",\n"
     << "  \"availability_sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& r = sweep[i];
    os << "    {\"replicas\": " << r.n << ", \"drop\": "
       << bench::Table::Num(r.drop, 2)
       << ", \"predicted_read_availability\": "
       << bench::Table::Num(r.predicted, 4)
       << ", \"measured_read_success\": " << bench::Table::Num(r.measured, 4)
       << ", \"error\": " << bench::Table::Num(r.error, 4)
       << ", \"within_tolerance\": " << (r.within ? "true" : "false") << "}"
       << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"retry_restoration\": {\n"
     << "    \"drop\": " << bench::Table::Num(retry_drop, 2) << ",\n"
     << "    \"replicas\": 3,\n"
     << "    \"rows\": [\n";
  for (std::size_t i = 0; i < retries.size(); ++i) {
    const RetryRow& r = retries[i];
    os << "      {\"max_attempts\": " << r.attempts
       << ", \"predicted\": " << bench::Table::Num(r.predicted, 4)
       << ", \"measured\": " << bench::Table::Num(r.measured, 4) << "}"
       << (i + 1 < retries.size() ? "," : "") << "\n";
  }
  os << "    ]\n  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_faults.json";

  bench::Banner(
      "E17a: single-attempt read availability under message loss — measured "
      "vs. ExactAvailability(majority(n), (1-d)^2)");
  bench::Table sweep_table(
      {"replicas", "drop", "predicted", "measured", "error", "within 5pt"});
  std::vector<SweepRow> sweep;
  bool all_within = true;
  std::uint64_t seed = 0xe17;
  for (std::size_t n : {3u, 5u}) {
    for (double drop : {0.0, 0.1, 0.2, 0.3}) {
      const double p_up = (1.0 - drop) * (1.0 - drop);
      const double predicted =
          quorum::ExactAvailability(
              quorum::MajoritySystem(static_cast<ReplicaId>(n)), p_up)
              .read;
      const double measured = MeasuredReadSuccess(n, drop, 1, ++seed);
      SweepRow row{n, drop, predicted, measured, measured - predicted,
                   std::abs(measured - predicted) <= kTolerance};
      all_within = all_within && row.within;
      sweep.push_back(row);
      sweep_table.AddRow({std::to_string(n), bench::Table::Num(drop, 2),
                          bench::Table::Num(predicted, 3),
                          bench::Table::Num(measured, 3),
                          bench::Table::Num(row.error, 3),
                          row.within ? "yes" : "NO"});
    }
  }
  sweep_table.Print();

  constexpr double kRetryDrop = 0.2;
  const double attempt_avail =
      quorum::ExactAvailability(quorum::MajoritySystem(3),
                                (1.0 - kRetryDrop) * (1.0 - kRetryDrop))
          .read;
  bench::Banner(
      "E17b: retries restore availability at drop = 0.20 (3 replicas) — "
      "model 1-(1-a)^k");
  bench::Table retry_table({"max attempts", "predicted", "measured"});
  std::vector<RetryRow> retries;
  for (std::size_t attempts : {1u, 2u, 4u, 8u}) {
    const double predicted =
        1.0 - std::pow(1.0 - attempt_avail, static_cast<double>(attempts));
    const double measured =
        MeasuredReadSuccess(3, kRetryDrop, attempts, ++seed);
    retries.push_back({attempts, predicted, measured});
    retry_table.AddRow({std::to_string(attempts),
                        bench::Table::Num(predicted, 3),
                        bench::Table::Num(measured, 3)});
  }
  retry_table.Print();

  WriteJson(json_path, sweep, retries, kRetryDrop, all_within);
  std::cout << "\nShape checks: every sweep cell lands within 5 points of "
               "the analytical curve\n(all_within_tolerance = "
            << (all_within ? "true" : "false")
            << "); retry success tracks 1-(1-a)^k and approaches 1.0 by 8 "
               "attempts.\nJSON: "
            << json_path << "\n";
  return all_within ? 0 : 1;
}

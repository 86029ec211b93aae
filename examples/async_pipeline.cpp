// Async pipeline: future-based batched quorum operations.
//
// The AsyncQuorumClient pipelines operations on disjoint keys — the
// paper's protocol only constrains the per-item version order (Lemmas
// 7/8), so independent items' quorum phases may overlap — and coalesces
// staged requests into batch messages, so each replica serves many ops
// per mailbox wakeup and logs a whole write batch with one group-commit
// fsync decision. Same-key operations stay serialized in submission
// order behind each other.
//
// The run below submits a burst of writes across many keys, overlaps a
// read burst, and prints the client's batching counters next to the
// replica-side ones.
//
//   build/examples/async_pipeline
#include <iostream>
#include <vector>

#include "runtime/store.hpp"

int main() {
  using namespace qcnt;

  runtime::StoreOptions options;
  options.replicas = 5;
  runtime::ReplicatedStore store(std::move(options));

  auto client = store.MakeAsyncClient(runtime::ClientOptions{
      .window = 16,     // up to 16 ops in the pipeline
      .max_batch = 8,   // coalesce up to 8 staged requests per message
  });

  // 64 writes over 32 keys: disjoint keys pipeline, repeated keys are
  // serialized per key (the second write to "item_3" waits for the
  // first, and installs a strictly higher version).
  std::vector<runtime::OpFuture> writes;
  for (int i = 0; i < 64; ++i) {
    writes.push_back(
        client->SubmitWrite("item_" + std::to_string(i % 32), i));
  }

  // Reads join the same pipeline; a read behind a same-key write sees it.
  runtime::OpFuture probe = client->SubmitRead("item_3");

  // Get() drives the pipeline until this op resolves; Drain() finishes
  // everything. Futures stay valid either way.
  const runtime::ClientResult r = probe.Get();
  std::cout << "item_3 -> value " << r.value << " at version " << r.version
            << '\n';

  if (!client->Drain()) {
    std::cerr << "some operations failed\n";
    return 1;
  }
  for (auto& w : writes) {
    if (!w.Get().ok) return 1;
  }

  const runtime::AsyncQuorumClient::Stats cs = client->ClientStats();
  const runtime::BatchStats rs = store.TotalBatchStats();
  std::cout << "client: " << cs.ops_completed << " ops in "
            << cs.batches_sent << " batch messages ("
            << (cs.batches_sent
                    ? static_cast<double>(cs.batched_requests) /
                          static_cast<double>(cs.batches_sent)
                    : 0)
            << " requests per message)\n";
  std::cout << "replicas: " << rs.batched_ops << " batched ops in "
            << rs.batches_applied << " batch applications, largest batch "
            << rs.max_batch << '\n';
  return 0;
}

// Repeated measurement cells shared by the experiment binaries: a cell
// runs at least kMinReps times and until kMinWall has passed, and is
// reported as the median with the min and max beside it, so one short,
// unlucky sample can neither make nor hide a result.
#pragma once

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "table.hpp"

namespace qcnt::bench {

inline constexpr std::size_t kMinReps = 5;
inline constexpr std::chrono::milliseconds kMinWall{250};

/// Calls `rep()` until it has run kMinReps times and kMinWall has
/// passed, and returns every call's result, in order.
template <typename Rep>
auto Repeat(Rep&& rep) -> std::vector<decltype(rep())> {
  std::vector<decltype(rep())> out;
  const auto start = std::chrono::steady_clock::now();
  while (out.size() < kMinReps ||
         std::chrono::steady_clock::now() - start < kMinWall) {
    out.push_back(rep());
  }
  return out;
}

struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
  std::size_t reps = 0;

  /// `{"median": m, "min": a, "max": b, "reps": n}`.
  std::string Json(int precision = 1) const {
    return "{\"median\": " + Table::Num(median, precision) +
           ", \"min\": " + Table::Num(min, precision) +
           ", \"max\": " + Table::Num(max, precision) +
           ", \"reps\": " + std::to_string(reps) + "}";
  }
  /// `m [a, b]` for a table cell.
  std::string Cell(int precision = 1) const {
    return Table::Num(median, precision) + " [" + Table::Num(min, precision) +
           ", " + Table::Num(max, precision) + "]";
  }
};

/// Median (the upper one for an even count), min and max of `samples`.
inline Spread SpreadOf(std::vector<double> samples) {
  Spread s;
  s.reps = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = samples[samples.size() / 2];
  s.min = samples.front();
  s.max = samples.back();
  return s;
}

/// SpreadOf one field of every repetition's result.
template <typename T, typename Field>
Spread SpreadOf(const std::vector<T>& reps, Field field) {
  std::vector<double> v;
  v.reserve(reps.size());
  for (const T& r : reps) v.push_back(static_cast<double>(field(r)));
  return SpreadOf(std::move(v));
}

}  // namespace qcnt::bench

// Minimal aligned-table printer shared by the experiment binaries.
#pragma once

#include <cstdio>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace qcnt::bench {

/// `git describe --always --dirty` of the working directory, or
/// "unknown": recorded in BENCH_*.json next to host cores and build type.
inline std::string GitRevision() {
  std::string rev;
  if (FILE* p = ::popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), p) != nullptr) rev += buf;
    ::pclose(p);
  }
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
    rev.pop_back();
  }
  return rev.empty() ? "unknown" : rev;
}

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  static std::string Num(double v, int precision = 3) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
  }

  void Print(std::ostream& os = std::cout) const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto line = [&](const std::vector<std::string>& cells) {
      for (std::size_t c = 0; c < widths.size(); ++c) {
        os << "| " << std::left << std::setw(static_cast<int>(widths[c]))
           << (c < cells.size() ? cells[c] : "") << ' ';
      }
      os << "|\n";
    };
    line(headers_);
    for (std::size_t c = 0; c < widths.size(); ++c) {
      os << "|-" << std::string(widths[c], '-') << '-';
    }
    os << "|\n";
    for (const auto& row : rows_) line(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline void Banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n\n";
}

/// Prints one shape check and returns whether it held; an experiment
/// binary exits 1 when any of its checks fails.
inline bool ShapeCheck(bool held, const std::string& what) {
  std::cout << "shape check " << (held ? "ok" : "FAILED") << ": " << what
            << '\n';
  return held;
}

}  // namespace qcnt::bench

// The recoverable state of one replica.
//
// A replica's durable state is exactly what the paper's DM holds: a
// (version, value) pair per logical item plus one store-wide
// (generation, configuration) stamp for Section-4 reconfiguration. An
// Image is that state as a plain value — what a checkpoint chain plus the
// WAL tail recovers.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

namespace qcnt::storage {

struct Versioned {
  std::uint64_t version = 0;
  std::int64_t value = 0;
};

struct Image {
  std::unordered_map<std::string, Versioned> data;
  std::uint64_t generation = 0;
  std::uint32_t config_id = 0;

  /// Merge one write under the runtime's total order: newer version wins;
  /// ties resolve toward the larger value. Replay uses the same rule as the
  /// live server, so re-applying old log records over a newer checkpoint is
  /// idempotent.
  void ApplyWrite(const std::string& key, std::uint64_t version,
                  std::int64_t value) {
    Versioned& v = data[key];
    if (version > v.version || (version == v.version && value >= v.value)) {
      v.version = version;
      v.value = value;
    }
  }

  /// Merge one configuration install (newer generation wins).
  void ApplyConfig(std::uint64_t generation, std::uint32_t config_id_in) {
    if (generation >= this->generation) {
      this->generation = generation;
      config_id = config_id_in;
    }
  }
};

}  // namespace qcnt::storage

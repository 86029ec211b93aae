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

  /// Merge one write; returns whether the key's pair advanced. Pairs
  /// order strictly by (version, value): newer version wins, ties resolve
  /// toward the larger value, and a repeated pair is a no-op. The replica
  /// handler stages its WAL and history records only for a write that
  /// advanced, so a re-delivered install is acked but never re-logged;
  /// replay over a newer checkpoint leaves the same state.
  bool ApplyWrite(const std::string& key, std::uint64_t version,
                  std::int64_t value) {
    return Advance(data[key], version, value);
  }

  /// The order itself, for a caller that already holds the key's slot.
  static bool Advance(Versioned& v, std::uint64_t version,
                      std::int64_t value) {
    if (version < v.version || (version == v.version && value <= v.value)) {
      return false;
    }
    v.version = version;
    v.value = value;
    return true;
  }

  /// Merge one configuration stamp; returns whether it advanced. Stamps
  /// order by (generation, config_id): config ids are append-ordered in
  /// the shared table, so an equal-generation install of a newer
  /// configuration (an orphaned stamp from a timed-out reconfigure attempt
  /// colliding with the attempt that won) supersedes, while a repeated
  /// stamp is a no-op. The replica handler and recovery both apply
  /// stamps through this one rule.
  bool ApplyConfig(std::uint64_t generation_in, std::uint32_t config_id_in) {
    if (generation_in < generation ||
        (generation_in == generation && config_id_in <= config_id)) {
      return false;
    }
    generation = generation_in;
    config_id = config_id_in;
    return true;
  }
};

}  // namespace qcnt::storage

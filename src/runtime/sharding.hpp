// Key → shard routing for a replica's durable layout.
//
// Keys are independent logical items (each item x ∈ I carries its own DMs
// and version order — Lemmas 7/8 quantify per item), so a replica may
// stripe its keyspace across shards without changing any protocol-visible
// behavior. The partition function must be *stable across process
// restarts*: under durability a key's records live in exactly one shard's
// WAL segment chain, and recovery replays shard s's chain back into shard
// s. std::hash makes no cross-run promise, so we pin FNV-1a explicitly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace qcnt::runtime {

/// FNV-1a 64-bit. Deterministic across platforms and runs (required for
/// durable shard segments to stay self-consistent).
inline std::uint64_t ShardHash(std::string_view key) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// The shard owning `key` out of `shards` partitions.
inline std::size_t ShardForKey(std::string_view key, std::size_t shards) {
  return shards <= 1 ? 0 : static_cast<std::size_t>(ShardHash(key) % shards);
}

}  // namespace qcnt::runtime

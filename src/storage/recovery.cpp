#include "storage/recovery.hpp"

#include <filesystem>
#include <memory>
#include <utility>

#include "storage/checkpoint.hpp"
#include "storage/manifest.hpp"
#include "storage/wal.hpp"

namespace qcnt::storage {

std::string RecoveryManager::ManifestPath(const std::string& dir) {
  return dir + "/MANIFEST";
}

RecoveryManager::RecoveryManager(std::string dir) : dir_(std::move(dir)) {}

RecoveryManager::LayoutCheck RecoveryManager::ValidateShardLayout(
    std::size_t expected_shards) const {
  LayoutCheck check;
  const Manifest manifest(dir_, expected_shards);
  if (!manifest.info().ok) {
    check.ok = false;
    check.error = manifest.info().error;
    return check;
  }
  if (manifest.info().version == 0) return check;  // fresh directory
  check.manifest_present = true;
  check.shard_count = manifest.info().disk_shard_count;
  if (check.shard_count != expected_shards) {
    check.ok = false;
    check.error = "shard count mismatch in " + ManifestPath(dir_) +
                  ": manifest has " + std::to_string(check.shard_count) +
                  ", configured " + std::to_string(expected_shards);
    return check;
  }
  for (std::size_t s = 0; s < expected_shards; ++s) {
    // A non-present shard has simply not been opened yet.
    const ShardFiles files = manifest.Shard(s);
    for (const std::uint64_t id : files.segments) {
      const std::string path = Manifest::SegmentPath(dir_, s, id);
      if (!std::filesystem::exists(path)) {
        check.ok = false;
        check.error = "missing WAL segment: " + path;
        return check;
      }
    }
    for (const std::uint64_t id : files.checkpoints) {
      const std::string path = Manifest::CheckpointPath(dir_, s, id);
      if (!std::filesystem::exists(path)) {
        check.ok = false;
        check.error = "missing checkpoint: " + path;
        return check;
      }
    }
  }
  return check;
}

RecoveryManager::ReplicaResult RecoveryManager::RecoverReplica() const {
  ReplicaResult out;
  const std::size_t count = Manifest::ReadShardCount(dir_).value_or(1);
  const Manifest manifest(dir_, count);
  if (!manifest.info().ok) {
    out.ok = false;
    out.error = manifest.info().error;
    return out;
  }
  if (manifest.info().version == 0) return out;  // fresh: nothing durable
  out.shard_count = count;
  for (std::size_t s = 0; s < count; ++s) {
    const ShardFiles files = manifest.Shard(s);
    Image shard_image;
    std::uint64_t replayed = 0;
    std::size_t torn = 0;
    // Materialize the checkpoint chain oldest → newest, then replay the
    // segment chain over it. A non-present shard was never opened.
    for (const std::uint64_t id : files.checkpoints) {
      const std::string path = Manifest::CheckpointPath(dir_, s, id);
      const std::unique_ptr<CheckpointReader> reader =
          CheckpointReader::Open(path);
      if (reader == nullptr) {
        out.ok = false;
        out.error = "missing or corrupt checkpoint: " + path;
        return out;
      }
      reader->Scan([&shard_image](const std::string& key,
                                  const Versioned& v) {
        shard_image.ApplyWrite(key, v.version, v.value);
      });
      shard_image.ApplyConfig(reader->generation(), reader->config_id());
    }
    for (const std::uint64_t id : files.segments) {
      const std::string path = Manifest::SegmentPath(dir_, s, id);
      if (!std::filesystem::exists(path)) {
        out.ok = false;
        out.error = "missing WAL segment: " + path;
        return out;
      }
      const Wal::ReplayResult replay =
          Wal::Replay(path, [&shard_image](const WalRecord& r) {
            switch (r.type) {
              case WalRecord::Type::kWrite:
                shard_image.ApplyWrite(r.key, r.version, r.value);
                break;
              case WalRecord::Type::kConfig:
                shard_image.ApplyConfig(r.generation, r.config_id);
                break;
            }
          });
      replayed += replay.records;
      if (replay.torn_tail) ++torn;
    }

    // Shards are key-disjoint, so this merge never conflicts on a key;
    // the store-wide (generation, config_id) stamp takes the max.
    for (const auto& [key, v] : shard_image.data) {
      out.image.ApplyWrite(key, v.version, v.value);
    }
    out.image.ApplyConfig(shard_image.generation, shard_image.config_id);
    out.replayed += replayed;
    out.torn_segments += torn;
  }
  return out;
}

}  // namespace qcnt::storage

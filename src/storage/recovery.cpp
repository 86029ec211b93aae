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

RecoveryManager::LayoutCheck RecoveryManager::ValidateLayout() const {
  LayoutCheck check;
  const Manifest manifest(dir_);
  if (!manifest.info().ok) {
    check.ok = false;
    check.error = manifest.info().error;
    return check;
  }
  if (manifest.info().version == 0) return check;  // fresh directory
  check.manifest_present = true;
  const ChainFiles& files = manifest.Files();
  for (const std::uint64_t id : files.segments) {
    const std::string path = Manifest::SegmentPath(dir_, id);
    if (!std::filesystem::exists(path)) {
      check.ok = false;
      check.error = "missing WAL segment: " + path;
      return check;
    }
  }
  for (const std::uint64_t id : files.checkpoints) {
    const std::string path = Manifest::CheckpointPath(dir_, id);
    if (!std::filesystem::exists(path)) {
      check.ok = false;
      check.error = "missing checkpoint: " + path;
      return check;
    }
  }
  return check;
}

RecoveryManager::ReplicaResult RecoveryManager::RecoverReplica() const {
  ReplicaResult out;
  const Manifest manifest(dir_);
  if (!manifest.info().ok) {
    out.ok = false;
    out.error = manifest.info().error;
    return out;
  }
  if (manifest.info().version == 0) return out;  // fresh: nothing durable
  const ChainFiles& files = manifest.Files();
  // Materialize the checkpoint chain oldest → newest, then replay the
  // segment chain over it.
  for (const std::uint64_t id : files.checkpoints) {
    const std::string path = Manifest::CheckpointPath(dir_, id);
    const std::unique_ptr<CheckpointReader> reader =
        CheckpointReader::Open(path);
    if (reader == nullptr) {
      out.ok = false;
      out.error = "missing or corrupt checkpoint: " + path;
      return out;
    }
    reader->Scan([&out](const std::string& key, const Versioned& v) {
      out.image.ApplyWrite(key, v.version, v.value);
    });
    out.image.ApplyConfig(reader->generation(), reader->config_id());
  }
  for (const std::uint64_t id : files.segments) {
    const std::string path = Manifest::SegmentPath(dir_, id);
    if (!std::filesystem::exists(path)) {
      out.ok = false;
      out.error = "missing WAL segment: " + path;
      return out;
    }
    const Wal::ReplayResult replay =
        Wal::Replay(path, [&out](const WalRecord& r) {
          switch (r.type) {
            case WalRecord::Type::kWrite:
              out.image.ApplyWrite(r.key, r.version, r.value);
              break;
            case WalRecord::Type::kConfig:
              out.image.ApplyConfig(r.generation, r.config_id);
              break;
          }
        });
    out.replayed += replay.records;
    if (replay.torn_tail) ++out.torn_segments;
  }
  return out;
}

}  // namespace qcnt::storage

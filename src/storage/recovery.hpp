// RecoveryManager: check and rebuild a replica's durability directory.
//
// v2 engine layout: `MANIFEST` (v2) names, per shard, a chain of WAL
// segments (`shard_<s>/seg_<id>.log`) and a chain of sorted checkpoint
// runs (`shard_<s>/ckpt_<id>.blk`). Recovery = open the checkpoint chain,
// replay the segment chain over it with the live server's own merge rule.
// The result is exactly the state the replica had durably acknowledged
// before it lost volatile memory; anything after the last synced record
// is gone — which is the failure the quorum protocol is built to absorb
// (Lemma 8: any read quorum still intersects every write quorum, so the
// highest-versioned surviving copy is the logical state).
//
// The manifest makes partial layouts detectable: a directory with a
// corrupt or unsupported manifest, a missing referenced file, or a
// configured shard count that disagrees with the manifest is rejected
// outright instead of silently resurrecting a subset of the acked state.
#pragma once

#include <string>

#include "storage/image.hpp"

namespace qcnt::storage {

class RecoveryManager {
 public:
  /// `MANIFEST` inside `dir`.
  static std::string ManifestPath(const std::string& dir);

  explicit RecoveryManager(std::string dir);

  struct LayoutCheck {
    bool ok = true;
    bool manifest_present = false;
    std::size_t shard_count = 0;  // from the manifest, when present
    std::string error;            // set when !ok
  };

  /// Verify the directory can host a replica configured with
  /// `expected_shards` shards. Passes: a fresh directory, or a matching
  /// v2 layout with every referenced file present. Fails with a
  /// diagnostic naming the path: a corrupt or version-1 manifest, a
  /// shard-count mismatch, or a referenced file missing.
  LayoutCheck ValidateShardLayout(std::size_t expected_shards) const;

  struct ReplicaResult {
    bool ok = true;
    std::string error;            // set when !ok
    Image image;                  // merged across all shards
    std::size_t shard_count = 0;  // shards merged
    std::uint64_t replayed = 0;   // WAL records applied, total
    std::size_t torn_segments = 0;
  };

  /// Rebuild the whole replica image offline by materializing every
  /// shard the manifest names from its checkpoint chain + segment replay.
  /// Refuses — rather than recovering a silent subset — when the
  /// manifest is corrupt or unsupported or any referenced file is
  /// missing. A directory without a manifest is fresh: empty image.
  ReplicaResult RecoverReplica() const;

 private:
  std::string dir_;
};

}  // namespace qcnt::storage

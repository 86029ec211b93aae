// RecoveryManager: check and rebuild a replica's durability directory.
//
// v2 engine layout: `MANIFEST` (v2) names a chain of WAL segments
// (`shard_0/seg_<id>.log`) and a chain of sorted checkpoint runs
// (`shard_0/ckpt_<id>.blk`). Recovery = open the checkpoint chain,
// replay the segment chain over it with the live server's own merge rule.
// The result is exactly the state the replica had durably acknowledged
// before it lost volatile memory; anything after the last synced record
// is gone — which is the failure the quorum protocol is built to absorb
// (Lemma 8: any read quorum still intersects every write quorum, so the
// highest-versioned surviving copy is the logical state).
//
// The manifest makes partial layouts detectable: a directory with a
// corrupt or unsupported manifest (including one striped over several
// chains) or a missing referenced file is rejected outright instead of
// silently resurrecting a subset of the acked state.
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
    std::string error;  // set when !ok
  };

  /// Verify the directory can host a replica. Passes: a fresh directory,
  /// or a v2 layout with every referenced file present. Fails with a
  /// diagnostic naming the path: a corrupt, version-1 or multi-chain
  /// manifest, or a referenced file missing.
  LayoutCheck ValidateLayout() const;

  struct ReplicaResult {
    bool ok = true;
    std::string error;            // set when !ok
    Image image;
    std::uint64_t replayed = 0;   // WAL records applied
    std::size_t torn_segments = 0;
  };

  /// Rebuild the replica image offline by materializing the checkpoint
  /// chain and replaying the segment chain the manifest names. Refuses —
  /// rather than recovering a silent subset — when the manifest is
  /// corrupt or unsupported or any referenced file is missing. A
  /// directory without a manifest is fresh: empty image.
  ReplicaResult RecoverReplica() const;

 private:
  std::string dir_;
};

}  // namespace qcnt::storage

// Coordinated sharded checkpoints: one manifest plus one shard file per
// cluster node, all describing the same step.
//
// Layout on disk (all little-endian, same section seal as state/checkpoint):
//
//   manifest_<step>.afms   u32 magic 'AFMS' | u32 version | u32 section_count
//                          sections: the global checkpoint in the
//                          checkpoint format (state/checkpoint.hpp, with its
//                          own version) WITHOUT its per-body arrays, the
//                          opaque cluster-layer blob, and the shard table --
//                          which body arrays the set carries, then per shard
//                          its body range plus the size and whole-file CRC
//                          of its shard file. The ranges define N.
//   shard_<step>_<k>.afms  u32 magic | u32 version | shard header + that
//                          range's slice of the permutation, the tree-order
//                          positions, and every per-body array (positions,
//                          velocities, masses, accelerations, potentials)
//                          gathered to tree order.
//
// Positions are stored explicitly even though sorted_pos covers the same
// coordinates at rebin time: the Stokes problem advects positions AFTER the
// rebin, so original-order positions are NOT derivable from the tree image.
//
// The write protocol is the commit-point discipline of a coordinated
// snapshot: every shard file is written crash-safely first (tmp + fsync +
// atomic rename), the manifest LAST. A crash before the manifest rename
// leaves the previous coordinated set intact; a crash after it leaves a
// complete new set. load_latest() walks manifests newest-first and rolls the
// WHOLE set back to the newest manifest whose every shard file validates
// (size + CRC + structural decode), so restore is always consistent across
// shards -- never a mix of steps.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "state/checkpoint.hpp"

namespace afmm {

inline constexpr std::uint32_t kShardMagic = 0x534D4641;  // "AFMS"
// v2: the shared observed/balancer encoders (checkpoint v5) grew the overlap
// fields, changing the wire layout of the control file.
// v3: the shared tree encoder (checkpoint v6) dropped the build-strategy
// byte.
// v4: the shared observed encoder (checkpoint v7) dropped the M2P/P2L
// fields.
// v5: the manifest nests the global checkpoint in the checkpoint format
// (which carries the injector's fired mark v4 dropped) instead of its own
// control and tree sections; the shard table carries the body-array flags.
// Since v5 a checkpoint format change needs no shard version of its own: the
// nested checkpoint carries its version, and decoding it checks that.
inline constexpr std::uint32_t kShardVersion = 5;

// What a coordinated save captures: the full single-engine checkpoint, the
// cluster layer's opaque state blob (shard map, per-node health, failure
// detector and injector cursors -- encoded by cluster/, never interpreted
// here), and the body ranges the shard files are cut by.
struct ShardedCheckpoint {
  SimCheckpoint global;
  std::vector<std::uint8_t> cluster_blob;
  // Tree-order body range [first, second) of each shard; contiguous,
  // ascending, covering [0, N).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
};

// Like CheckpointStore, a ShardStore carries an owner namespace: with owner
// "n0" every file becomes `n0_manifest_*.afms` / `n0_shard_*.afms`, and
// listing / rotation / load_latest() see ONLY that owner's coordinated sets.
// Owners follow the same [A-Za-z0-9.-] charset (std::invalid_argument
// otherwise); the empty owner keeps the legacy bare names.
class ShardStore {
 public:
  explicit ShardStore(std::string dir, int keep = 2, std::string owner = "");

  // Writes shard files then the manifest (the commit point) and prunes sets
  // beyond the keep budget, oldest first. The set just written always
  // survives the pruning, whatever higher steps the directory already holds.
  bool save(const ShardedCheckpoint& ckpt, std::string* error = nullptr);

  // Newest coordinated set whose manifest AND every shard file validate;
  // corrupt or torn sets are skipped wholesale.
  std::optional<ShardedCheckpoint> load_latest(
      std::string* error = nullptr) const;
  // The coordinated set of exactly `step`: what save() wrote for it, never a
  // neighbouring step.
  std::optional<ShardedCheckpoint> load(int step,
                                        std::string* error = nullptr) const;

  // Manifest paths OF THIS OWNER, newest (highest step) first.
  std::vector<std::string> manifests() const { return manifests_.list(); }
  const std::string& dir() const { return manifests_.dir(); }
  int keep() const { return manifests_.keep(); }
  const std::string& owner() const { return manifests_.owner(); }

 private:
  std::string shard_path(int step, int k) const;
  std::optional<ShardedCheckpoint> load_set(const std::string& manifest,
                                            std::string& error) const;

  SnapshotFiles manifests_;
};

}  // namespace afmm

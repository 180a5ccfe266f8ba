// Versioned, CRC-sealed binary checkpoints of a running simulation, and the
// crash-safe on-disk store that rotates them.
//
// Format (little-endian):
//
//   u32 magic 'AFMM'   u32 format_version   u32 section_count
//   section*: u32 id | u64 payload_size | u32 crc32(id|size|payload) | payload
//
// Every section is independently CRC'd -- over its id and size as well as the
// payload, so a flipped header byte cannot silently reclassify a section as
// unknown-and-skippable -- and any bytes left over after the declared section
// count reject the file. A torn write (process killed mid-checkpoint), a
// truncation, or a flipped bit is therefore detected on load and the store
// falls back to the previous snapshot. A format_version mismatch rejects the
// whole file; unknown section ids with a valid CRC are skipped (forward
// compat).
//
// A SimCheckpoint captures EVERYTHING a trajectory depends on: bodies (and
// the solved accelerations/potentials they will be kicked with), the
// adaptive octree bit-for-bit (structure, collapse flags, Morton-ordered
// spans, permutation), the load balancer's full state machine (LbState,
// Search bracket, best time, EWMA cost coefficients), the machine health
// registry + fault epoch, the fault injector's replay cursor, the last
// observed step times the balancer will digest next, and any auxiliary RNG
// streams the driver wants carried across the restart. A run restored from
// one replays the *identical* trajectory an uninterrupted run would have
// produced -- positions, S sequence and LbState sequence, bit for bit.
//
// Writing is crash-safe: encode to memory, write to `<name>.tmp`, fsync,
// atomically rename over the final name, then prune snapshots beyond the
// keep budget (lowest step first, never the one just written).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "balance/load_balancer.hpp"
#include "dist/distributions.hpp"
#include "faults/fault_injector.hpp"
#include "machine/machine.hpp"
#include "octree/octree.hpp"
#include "state/auditor.hpp"
#include "state/watchdog.hpp"

namespace afmm {

inline constexpr std::uint32_t kCheckpointMagic = 0x4D4D4641;  // "AFMM"
// v2: tree section gains config.build_strategy and stores sorted_pos / perm
// as single flat byte runs (bulk memcpy on both ends).
// v3: section CRC covers id + size + payload (not payload alone), and
// trailing bytes after the last declared section reject the file -- a flipped
// section-id or section-count byte can no longer slip past validation.
// v4: injector section gains the fired high-water mark, so a resumed run
// never re-fires an already-applied silent-corruption event.
// v5: observed section gains the per-sweep split and the overlap makespans;
// balancer section gains the per-sweep / overlap efficiencies, the near
// overhead coefficient, and the overlap observation count.
// v6: tree section drops the build-strategy byte (one tree builder remains).
// v7: observed section drops the M2P/P2L op counts and times (the extension
// operators are gone).
// v8: tree section drops the parallel-build byte (the build always runs its
// parallel region).
// v9: observed section drops the per-sweep split (cpu_up/cpu_down_seconds)
// and balancer section the per-sweep efficiencies; nothing read them.
inline constexpr std::uint32_t kCheckpointVersion = 9;

enum class SimKind : std::uint32_t { kGravity = 0, kStokes = 1 };

struct SimCheckpoint {
  SimKind kind = SimKind::kGravity;
  int step = 0;
  ParticleSet bodies;             // Stokes runs leave `masses` empty
  std::vector<Vec3> accel;        // gravity: G * gradient of the last solve
  std::vector<double> potential;  // gravity: softened potential per body
  bool has_observed = false;
  ObservedStepTimes observed;     // what the balancer digests next step
  OctreeSnapshot tree;
  LoadBalancerSnapshot balancer;
  MachineHealth health;
  FaultInjectorSnapshot injector;
  // Auxiliary deterministic RNG streams (4 words per xoshiro256++ stream),
  // for drivers whose workload generation must survive the restart. The
  // simulation itself owns no RNG; see Rng::state()/set_state().
  std::vector<std::uint64_t> rng_words;
};

// In-memory encoding; decode returns nullopt (with `error` filled when given)
// on bad magic, version mismatch, CRC failure, truncation, or a structurally
// impossible payload.
std::vector<std::uint8_t> encode_checkpoint(const SimCheckpoint& ckpt);
std::optional<SimCheckpoint> decode_checkpoint(
    std::span<const std::uint8_t> data, std::string* error = nullptr);

// Single-file crash-safe write (temp + fsync + atomic rename) and validated
// read.
bool save_checkpoint_file(const std::string& path, const SimCheckpoint& ckpt,
                          std::string* error = nullptr);
std::optional<SimCheckpoint> load_checkpoint_file(const std::string& path,
                                                  std::string* error = nullptr);

// Owner prefixes namespace several stores inside ONE directory. A store with
// an empty owner uses the legacy `ckpt_<step>.afmm` names; a store with owner
// "alice" reads and writes `alice_ckpt_<step>.afmm` only. Rotation, listing
// and load_latest() are all scoped to the store's exact owner pattern, so two
// stores sharing a directory can never delete or adopt each other's
// snapshots (the multi-tenant service keeps one store per session in one
// shared directory this way). Owners are restricted to [A-Za-z0-9.-] --
// in particular no '_' -- so an owner-prefixed name can never parse as a
// different owner's (or the bare) pattern; an invalid owner throws
// std::invalid_argument at construction.
bool valid_store_owner(const std::string& owner);

// The snapshot files of one owner in one directory, shared by
// CheckpointStore and ShardStore: `dir/[<owner>_]<stem><step><suffix>`, the
// step zero-padded to 10 digits. Listing matches names EXACTLY, so
// look-alikes such as `ckpt_ckpt_0000000042.afmm` (an owner named "ckpt") or
// padded/garbled step fields are never listed: a store can never adopt -- or
// rotate away -- a file it did not write. The constructor creates `dir`.
class SnapshotFiles {
 public:
  SnapshotFiles(std::string dir, int keep, std::string owner,
                std::string stem, std::string suffix);

  std::string path(int step) const;
  // This owner's snapshot paths, newest (highest step) first.
  std::vector<std::string> list() const;
  // The steps to prune once `written` is saved: all but it and the newest
  // keep - 1 others, so stale higher-step files left by an earlier run can
  // never rotate the new one away.
  std::vector<int> excess(int written) const;

  const std::string& dir() const { return dir_; }
  int keep() const { return keep_; }
  const std::string& owner() const { return owner_; }

 private:
  std::vector<int> steps() const;  // newest first

  std::string dir_;
  int keep_;
  std::string owner_;
  std::string prefix_;  // [<owner>_]<stem>
  std::string suffix_;
};

// Rotating on-disk snapshot store: `dir/[<owner>_]ckpt_<step>.afmm`, `keep`
// files retained: the one save() just wrote plus the newest others, so stale
// higher-step files left by an earlier run can never rotate away the new
// one. load_latest() walks newest-first and silently skips any snapshot that
// fails validation -- a crash mid-write therefore costs at most one
// checkpoint interval of progress, never the run.
class CheckpointStore {
 public:
  explicit CheckpointStore(std::string dir, int keep = 3,
                           std::string owner = "");

  bool save(const SimCheckpoint& ckpt, std::string* error = nullptr);
  std::optional<SimCheckpoint> load_latest(std::string* error = nullptr) const;
  // The snapshot of exactly `step`: what save() wrote for it, never a
  // neighbouring step.
  std::optional<SimCheckpoint> load(int step,
                                    std::string* error = nullptr) const;

  // Snapshot paths OF THIS OWNER, newest (highest step) first.
  std::vector<std::string> files() const { return files_.list(); }
  const std::string& dir() const { return files_.dir(); }
  int keep() const { return files_.keep(); }
  const std::string& owner() const { return files_.owner(); }

 private:
  SnapshotFiles files_;
};

// Process-wide default-owner disambiguation for engines that configure a
// checkpoint directory without naming an owner. claim(dir) hands out the
// first free owner for that directory -- "" (the legacy bare names) to the
// first claimant, then "e1", "e2", ... -- so several engines constructed in
// one process with the SAME checkpoint_dir never rotate each other's
// `ckpt_<step>.afmm` files. The claim is released on destruction (move-aware),
// so sequential engines (run, destroy, resume) keep the stable bare names a
// cross-process resume looks for.
class CheckpointOwnerClaim {
 public:
  CheckpointOwnerClaim() = default;
  static CheckpointOwnerClaim claim(const std::string& dir);
  ~CheckpointOwnerClaim() { release(); }
  CheckpointOwnerClaim(CheckpointOwnerClaim&& other) noexcept
      : dir_(std::move(other.dir_)),
        owner_(std::move(other.owner_)),
        active_(other.active_) {
    other.active_ = false;
  }
  CheckpointOwnerClaim& operator=(CheckpointOwnerClaim&& other) noexcept {
    if (this != &other) {
      release();
      dir_ = std::move(other.dir_);
      owner_ = std::move(other.owner_);
      active_ = other.active_;
      other.active_ = false;
    }
    return *this;
  }
  CheckpointOwnerClaim(const CheckpointOwnerClaim&) = delete;
  CheckpointOwnerClaim& operator=(const CheckpointOwnerClaim&) = delete;

  const std::string& owner() const { return owner_; }
  bool active() const { return active_; }

 private:
  void release();
  std::string dir_;
  std::string owner_;
  bool active_ = false;
};

// Resilience policy of a simulation: how often to checkpoint and audit, and
// what the watchdog tolerates. Everything off by default -- a simulation
// without resilience behaves exactly as before (and pays nothing).
struct ResilienceConfig {
  int checkpoint_interval = 0;  // steps between snapshots; 0 = no snapshots
  std::string checkpoint_dir;   // empty = in-memory rollback only
  int checkpoint_keep = 3;      // on-disk snapshots retained
  AuditConfig audit;            // audit.interval 0 = no audits
  WatchdogConfig watchdog;
  // React to a failed audit / tripped watchdog by restoring the last good
  // checkpoint, rebuilding the tree and re-entering Search. When false the
  // failure is only recorded in the StepRecord.
  bool rollback_on_failure = true;
  // Surgical SDC repair (sdc/): when an audit fails on a state-checksum
  // mismatch, first ask the Problem to re-derive its derived arrays
  // (accelerations / velocities) from primary state and re-audit; only when
  // that localized rung fails does the failure escalate to rollback. Off by
  // default so existing recovery behaviour is unchanged.
  bool sdc_repair = false;

  bool enabled() const {
    return checkpoint_interval > 0 || audit.interval > 0 || watchdog.enabled();
  }
};

}  // namespace afmm

// Deterministic simulated K-node cluster layered on SimulationEngine.
//
// One ClusterEngine owns ONE inner global engine -- the physics authority --
// plus the distributed-systems machinery around it:
//
//   * a ShardMap assigning contiguous Morton-key (tree-order) ranges to K
//     NodeSimulator-backed shard nodes;
//   * per step, the LET halo each shard must receive (bodies + multipoles
//     crossing its range boundary under the existing MAC), exchanged over a
//     simulated interconnect with per-message latency/bandwidth, transient
//     drop windows and deterministic retry/backoff charged to the step
//     timeline;
//   * a heartbeat failure detector: a crashed node misses beats until the
//     threshold declares it dead;
//   * a global rebalancer: warm migration (capability-weighted re-split via
//     weighted_split) when a node degrades or rejoins, and crash recovery --
//     restore the lost ranges from the last coordinated shard checkpoint
//     this engine saved (state/shard_store; never another run's set in a
//     reused directory), re-split over the survivors, and replay forward;
//   * coordinated shard checkpoints on a cadence, taken only when every
//     node is either healthy or already declared dead (never while a crash
//     is still being suspected).
//
// The cluster layer is STRICTLY READ-ONLY over the inner engine's physics:
// halos, migrations and detection never mutate bodies, tree or balancer. A
// fault-free K-shard run is therefore bit-identical to the single-node run
// by construction, and crash recovery -- a pure restore() plus replay of the
// same deterministic steps -- converges to the identical final state.
//
// Node-scoped fault events (kNodeCrash / kNodeRejoin / kNodeLinkFaults) come
// from a second FaultInjector owned here; its per-step seed rotation doubles
// as the halo-exchange drop seed, so drops, retries and migration decisions
// are a pure function of (schedule seed, step) -- and replaying from a
// coordinated shard checkpoint (which carries the injector cursor and node
// states in the manifest's cluster blob) reproduces them exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/halo.hpp"
#include "cluster/interconnect.hpp"
#include "cluster/shard_map.hpp"
#include "core/engine.hpp"
#include "core/problems.hpp"
#include "state/shard_store.hpp"

namespace afmm {

struct ClusterConfig {
  int num_nodes = 2;
  ClusterLinkConfig link;
  // Missed heartbeats (= consecutive silent steps) before a crashed node is
  // declared dead and its ranges migrate.
  int heartbeat_miss_threshold = 3;
  // Node-scoped fault schedule (kNodeCrash / kNodeRejoin / kNodeLinkFaults;
  // machine-scoped kinds are ignored here) and its deterministic seed.
  FaultSchedule faults;
  std::uint64_t fault_seed = 0xC1057ED5ull;
  // Coordinated shard-checkpoint cadence; 0 = no shard store.
  int checkpoint_interval = 0;
  std::string checkpoint_dir;
  int checkpoint_keep = 2;
};

struct ClusterStepRecord {
  int step = 0;             // inner step index this record advanced
  StepRecord inner;         // the global engine's record for that step
  // Halo exchange.
  std::uint64_t halo_bodies = 0;
  std::uint64_t halo_multipoles = 0;
  std::uint64_t halo_bytes = 0;
  int halo_messages = 0;
  int halo_retries = 0;
  int halo_timeouts = 0;
  double halo_seconds = 0.0;
  // Membership as the failure detector sees it this step.
  int alive_nodes = 0;
  int suspected_nodes = 0;  // crashed but not yet declared dead
  int dead_nodes = 0;
  int faults_fired = 0;     // cluster-scoped events applied this step
  // Rebalancer actions.
  bool migrated = false;            // the shard map changed this step
  std::uint64_t migrated_bodies = 0;
  double migration_seconds = 0.0;
  bool recovered = false;           // restored from the shard store
  int restored_step = -1;
  bool checkpointed = false;        // coordinated shard save after this step
  // Halo-payload SDC activity (cluster-scoped; the inner record carries the
  // machine-scoped counts).
  int sdc_injected = 0;
  int sdc_detected = 0;
  int sdc_repaired = 0;
  double sdc_repair_seconds = 0.0;  // retransmit time charged to the halo
  // Per-node virtual compute share of the inner step (empty ranges get 0).
  std::vector<double> node_compute_seconds;
};

// Per-node state: the simulated machine view plus the failure detector's and
// rebalancer's bookkeeping about it.
struct ClusterNodeState {
  NodeSimulator sim;
  bool crashed = false;  // the fault schedule silenced it
  bool dead = false;     // the failure detector gave up on it
  int missed_heartbeats = 0;
  double link_fault_prob = 0.0;
  int link_window_end = -1;  // step the drop window expires (-1 = none)
};

template <class Problem>
class ClusterEngine {
 public:
  // Fresh cluster: shards the freshly built tree by capability weight.
  ClusterEngine(const EngineConfig& engine_config, ClusterConfig cluster,
                Problem problem);
  // Resume from a coordinated shard checkpoint: the inner engine restores
  // the global state, the cluster blob restores the shard map, node states
  // and the injector cursor -- replay reproduces the original run's drops,
  // retries and migration decisions.
  ClusterEngine(const EngineConfig& engine_config, ClusterConfig cluster,
                Problem problem, const ShardedCheckpoint& ckpt);

  ClusterStepRecord step();
  std::vector<ClusterStepRecord> run(int n);

  SimulationEngine<Problem>& engine() { return inner_; }
  const SimulationEngine<Problem>& engine() const { return inner_; }
  const ShardMap& shards() const { return map_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const ClusterNodeState& node_state(int k) const {
    return nodes_[static_cast<std::size_t>(k)];
  }
  // Per-node machine health view (epoch bumps on every cluster event
  // touching the node).
  const MachineHealth& node_health(int k) const {
    return nodes_[static_cast<std::size_t>(k)].sim.health();
  }
  ShardStore* store() { return store_ ? &*store_ : nullptr; }
  int recoveries() const { return recoveries_; }
  int migrations() const { return migrations_; }

  // Coordinated snapshot of everything a resume needs (also what save() on
  // the cadence writes).
  ShardedCheckpoint make_checkpoint() const;

 private:
  void init_metrics();
  void init_store();
  // Saves make_checkpoint() and remembers its step as the recovery target.
  bool save_checkpoint();
  void restore_cluster_blob(const std::vector<std::uint8_t>& blob);
  std::vector<std::uint8_t> encode_cluster_blob() const;
  std::vector<double> effective_weights() const;
  void apply_cluster_event(const FaultEvent& e, int step, bool& weights_moved);

  EngineConfig engine_config_;
  ClusterConfig cluster_;
  SimulationEngine<Problem> inner_;
  std::vector<ClusterNodeState> nodes_;
  ShardMap map_;
  FaultInjector injector_;        // node-scoped schedule
  MachineHealth cluster_health_;  // carrier for the per-step exchange seed
  std::optional<ShardStore> store_;
  int last_saved_step_ = -1;  // step of the last set this engine saved
  int recoveries_ = 0;
  int migrations_ = 0;
};

extern template class ClusterEngine<GravityProblem>;
extern template class ClusterEngine<StokesProblem>;

using GravityClusterEngine = ClusterEngine<GravityProblem>;
using StokesClusterEngine = ClusterEngine<StokesProblem>;

}  // namespace afmm

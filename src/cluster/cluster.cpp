#include "cluster/cluster.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sdc/sdc.hpp"
#include "state/serial.hpp"

namespace afmm {

namespace {

// Bytes one body costs to migrate between shards: position + velocity (3+3
// doubles), mass/charge (1) and the derived kick state (gradient, 3).
constexpr std::uint64_t kMigrationBodyBytes = 80;

// Bodies whose owner differs between two contiguous partitions of [0, N):
// walk the merged cut points; between consecutive cuts both owners are
// constant.
std::uint64_t count_moved_bodies(const ShardMap& a, const ShardMap& b) {
  if (a.num_bodies() != b.num_bodies()) return a.num_bodies();
  std::uint64_t moved = 0;
  std::uint32_t cursor = 0;
  const std::uint32_t n = a.num_bodies();
  while (cursor < n) {
    const int oa = a.owner_of(cursor);
    const int ob = b.owner_of(cursor);
    const std::uint32_t next =
        std::min(a.range(oa).end, b.range(ob).end);
    if (oa != ob) moved += next - cursor;
    cursor = next;
  }
  return moved;
}

}  // namespace

template <class Problem>
ClusterEngine<Problem>::ClusterEngine(const EngineConfig& engine_config,
                                      ClusterConfig cluster, Problem problem)
    : engine_config_(engine_config),
      cluster_(std::move(cluster)),
      inner_(engine_config, std::move(problem)),
      injector_(cluster_.faults, cluster_.fault_seed) {
  if (cluster_.num_nodes <= 0)
    throw std::invalid_argument("ClusterEngine: need >= 1 node");
  if (!cluster_.weights.empty() &&
      static_cast<int>(cluster_.weights.size()) != cluster_.num_nodes)
    throw std::invalid_argument(
        "ClusterEngine: weights must match num_nodes");
  nodes_.reserve(static_cast<std::size_t>(cluster_.num_nodes));
  for (int k = 0; k < cluster_.num_nodes; ++k) {
    ClusterNodeState n{
        NodeSimulator(inner_.node().cpu(), inner_.node().gpus())};
    n.weight = cluster_.weights.empty()
                   ? 1.0
                   : cluster_.weights[static_cast<std::size_t>(k)];
    nodes_.push_back(std::move(n));
  }
  const auto& lists = inner_.list_cache().get(
      inner_.tree(), engine_config_.fmm.traversal);
  map_ = weighted_split(inner_.tree(), lists, inner_.balancer().cost_model(),
                        effective_weights());
  if (!cluster_.checkpoint_dir.empty() && cluster_.checkpoint_interval > 0) {
    store_.emplace(cluster_.checkpoint_dir, cluster_.checkpoint_keep);
    store_->save(make_checkpoint());
  }
  init_metrics();
}

template <class Problem>
ClusterEngine<Problem>::ClusterEngine(const EngineConfig& engine_config,
                                      ClusterConfig cluster, Problem problem,
                                      const ShardedCheckpoint& ckpt)
    : engine_config_(engine_config),
      cluster_(std::move(cluster)),
      inner_(engine_config, std::move(problem), ckpt.global),
      injector_(cluster_.faults, cluster_.fault_seed) {
  if (cluster_.num_nodes <= 0)
    throw std::invalid_argument("ClusterEngine: need >= 1 node");
  if (static_cast<int>(ckpt.ranges.size()) != cluster_.num_nodes)
    throw std::invalid_argument(
        "ClusterEngine: checkpoint sharded for a different node count");
  nodes_.reserve(static_cast<std::size_t>(cluster_.num_nodes));
  for (int k = 0; k < cluster_.num_nodes; ++k) {
    ClusterNodeState n{
        NodeSimulator(inner_.node().cpu(), inner_.node().gpus())};
    n.weight = cluster_.weights.empty()
                   ? 1.0
                   : cluster_.weights[static_cast<std::size_t>(k)];
    nodes_.push_back(std::move(n));
  }
  std::vector<ShardRange> ranges;
  ranges.reserve(ckpt.ranges.size());
  for (const auto& r : ckpt.ranges) ranges.push_back({r.first, r.second});
  map_ = ShardMap(std::move(ranges));
  restore_cluster_blob(ckpt.cluster_blob);
  if (!cluster_.checkpoint_dir.empty() && cluster_.checkpoint_interval > 0)
    store_.emplace(cluster_.checkpoint_dir, cluster_.checkpoint_keep);
  init_metrics();
}

template <class Problem>
void ClusterEngine<Problem>::init_metrics() {
  MetricsRegistry* m = inner_.metrics();
  if (!m) return;
  // Register every instrument up front so the sampled metric set is
  // identical on every step (including steps with zero cluster activity).
  m->add_counter("cluster.halo.bytes_total", 0.0);
  m->add_counter("cluster.halo.retries_total", 0.0);
  m->add_counter("cluster.halo.timeouts_total", 0.0);
  m->add_counter("cluster.migrations_total", 0.0);
  m->add_counter("cluster.recoveries_total", 0.0);
  m->set_gauge("cluster.nodes.alive", 0.0);
  m->set_gauge("cluster.nodes.suspected", 0.0);
  m->set_gauge("cluster.nodes.dead", 0.0);
  m->set_gauge("cluster.halo.bytes", 0.0);
  m->set_gauge("cluster.halo.messages", 0.0);
  m->set_gauge("cluster.halo.seconds", 0.0);
  m->add_counter("cluster.sdc.injected_total", 0.0);
  m->add_counter("cluster.sdc.detected_total", 0.0);
  m->add_counter("cluster.sdc.repairs_total", 0.0);
}

template <class Problem>
std::vector<double> ClusterEngine<Problem>::effective_weights() const {
  // Dead nodes get zero; degraded links scale a node down so the re-split
  // routes work away from it. A crashed-but-unsuspected node keeps its
  // weight -- the detector has not acted yet, so neither may the balancer.
  std::vector<double> w(nodes_.size(), 0.0);
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    const auto& n = nodes_[k];
    w[k] = n.dead ? 0.0 : n.weight * (1.0 - n.link_fault_prob);
  }
  return w;
}

template <class Problem>
void ClusterEngine<Problem>::apply_cluster_event(const FaultEvent& e, int step,
                                                 bool& weights_moved) {
  if (e.node < 0 || e.node >= num_nodes()) return;
  ClusterNodeState& n = nodes_[static_cast<std::size_t>(e.node)];
  MachineHealth& h = n.sim.health();
  switch (e.kind) {
    case FaultKind::kNodeCrash:
      n.crashed = true;
      for (auto& g : h.gpus) g.alive = false;
      ++h.fault_epoch;
      break;
    case FaultKind::kNodeRejoin:
      n.crashed = false;
      n.dead = false;
      n.missed_heartbeats = 0;
      n.link_fault_prob = 0.0;
      n.link_window_end = -1;
      h.reset(n.sim.gpus().devices.size(), n.sim.cpu().num_cores);
      weights_moved = true;
      break;
    case FaultKind::kNodeLinkFaults:
      n.link_fault_prob = std::clamp(e.fail_prob, 0.0, 1.0);
      n.link_window_end = e.duration > 0 ? step + e.duration : -1;
      if (n.link_fault_prob == 0.0) n.link_window_end = -1;
      h.transfer_fault_prob = n.link_fault_prob;
      ++h.fault_epoch;
      weights_moved = true;
      break;
    default:
      // Machine-scoped kinds target the inner engine's injector, not the
      // cluster; ignore them here.
      break;
  }
}

template <class Problem>
ClusterStepRecord ClusterEngine<Problem>::step() {
  const int s = inner_.steps_taken();
  ClusterStepRecord rec;
  rec.step = s;

  // 1. Cluster fault schedule. The dummy health carries the rotated per-step
  // seed every halo-exchange drop draw keys on.
  const auto fired = injector_.advance_to(s, cluster_health_);
  rec.faults_fired = static_cast<int>(fired.size());
  bool weights_moved = false;
  for (const auto& e : fired) apply_cluster_event(e, s, weights_moved);
  for (auto& n : nodes_) {
    if (n.link_window_end >= 0 && s >= n.link_window_end) {
      n.link_fault_prob = 0.0;
      n.link_window_end = -1;
      n.sim.health().transfer_fault_prob = 0.0;
      ++n.sim.health().fault_epoch;
      weights_moved = true;
    }
  }

  // 2. Heartbeats: a crashed node is silent; enough consecutive misses and
  // the detector declares it dead.
  bool new_death = false;
  for (auto& n : nodes_) {
    if (n.dead) continue;
    if (n.crashed) {
      if (++n.missed_heartbeats >= cluster_.heartbeat_miss_threshold) {
        n.dead = true;
        new_death = true;
      }
    } else {
      n.missed_heartbeats = 0;
    }
  }
  for (const auto& n : nodes_) {
    if (n.dead)
      ++rec.dead_nodes;
    else if (n.crashed)
      ++rec.suspected_nodes;
    else
      ++rec.alive_nodes;
  }

  // 3. Crash recovery: the dead node's range is gone with it; restore the
  // global state from the last coordinated shard set (a PURE restore -- the
  // replayed steps reproduce the lost trajectory bit for bit), then let the
  // re-split below move its range onto the survivors.
  if (new_death && store_) {
    if (auto sc = store_->load_latest()) {
      inner_.restore(sc->global);
      // The cluster injector's cursor stays put (fired events remain
      // applied); the replayed steps only need the nondecreasing-step guard
      // re-armed for the deliberate rewind.
      injector_.acknowledge_rewind();
      rec.recovered = true;
      rec.restored_step = sc->global.step;
      ++recoveries_;
    }
  }

  // 4. Rebalance: on membership/degradation movement, re-split by effective
  // capability at effective-leaf boundaries and charge the body migration.
  if (new_death || weights_moved) {
    const auto& lists = inner_.list_cache().get(
        inner_.tree(), engine_config_.fmm.traversal);
    ShardMap next = weighted_split(inner_.tree(), lists,
                                   inner_.balancer().cost_model(),
                                   effective_weights());
    if (!(next == map_)) {
      rec.migrated = true;
      rec.migrated_bodies = count_moved_bodies(map_, next);
      rec.migration_seconds = cluster_transfer_seconds(
          cluster_.link, rec.migrated_bodies * kMigrationBodyBytes);
      map_ = std::move(next);
      ++migrations_;
    }
  }

  // 5. Halo plan + exchange over the simulated interconnect. Messages
  // touching a silent (crashed / dead) endpoint burn the full retry storm
  // and time out; dead nodes own nothing after migration, so in steady
  // state only suspected-but-undetected crashes generate timeouts.
  const auto& lists = inner_.list_cache().get(inner_.tree(),
                                              engine_config_.fmm.traversal);
  HaloPlan plan = build_halo_plan(inner_.tree(), lists, map_,
                                  cluster_.multipole_doubles);

  // 5a. Halo-payload SDC (sdc/): a pending kSdcHaloPayload corrupts one
  // in-flight message after the plan is built (the "send") and before it is
  // applied. The receiver's defense is the payload checksum: the plan is a
  // pure function of (tree, lists, map), so every node recomputes the same
  // sums independently; a mismatch is repaired by re-requesting the message
  // (one extra link transfer charged below).
  const SdcPending halo_pend = cluster_health_.sdc;
  cluster_health_.sdc.clear();
  if (halo_pend.halo_payload && !plan.messages.empty()) {
    HaloMessage& victim =
        plan.messages[sdc_pick(halo_pend.halo_seed, plan.messages.size())];
    victim.payload_check ^= 1ull << (sdc_mix(halo_pend.halo_seed >> 7) % 64);
    ++rec.sdc_injected;
  }
  if (cluster_.sdc_halo_checks) {
    const HaloPlan want = build_halo_plan(inner_.tree(), lists, map_,
                                          cluster_.multipole_doubles);
    for (std::size_t i = 0; i < plan.messages.size(); ++i) {
      if (plan.messages[i].payload_check == want.messages[i].payload_check)
        continue;
      ++rec.sdc_detected;
      plan.messages[i] = want.messages[i];  // re-request from the sender
      rec.sdc_repair_seconds +=
          cluster_transfer_seconds(cluster_.link, plan.messages[i].bytes);
      ++rec.sdc_repaired;
    }
  }

  std::vector<double> drop(nodes_.size(), 0.0);
  std::vector<char> silent(nodes_.size(), 0);
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    drop[k] = nodes_[k].link_fault_prob;
    silent[k] = (nodes_[k].crashed || nodes_[k].dead) ? 1 : 0;
  }
  const ExchangeOutcome xch =
      exchange_halos(cluster_.link, plan.messages, drop, silent,
                     cluster_health_.transfer_seed);
  rec.halo_bodies = plan.body_halo;
  rec.halo_multipoles = plan.multipole_halo;
  rec.halo_bytes = plan.total_bytes;
  rec.halo_messages = static_cast<int>(plan.messages.size());
  rec.halo_retries = xch.retries;
  rec.halo_timeouts = xch.timeouts;
  rec.halo_seconds = xch.seconds + rec.sdc_repair_seconds;

  // 6. Metrics land BEFORE the inner step so this step's sampled rows carry
  // this step's halo/membership values.
  if (MetricsRegistry* m = inner_.metrics()) {
    m->add_counter("cluster.halo.bytes_total",
                   static_cast<double>(plan.total_bytes));
    m->add_counter("cluster.halo.retries_total", xch.retries);
    m->add_counter("cluster.halo.timeouts_total", xch.timeouts);
    m->add_counter("cluster.migrations_total", rec.migrated ? 1.0 : 0.0);
    m->add_counter("cluster.recoveries_total", rec.recovered ? 1.0 : 0.0);
    m->set_gauge("cluster.nodes.alive", rec.alive_nodes);
    m->set_gauge("cluster.nodes.suspected", rec.suspected_nodes);
    m->set_gauge("cluster.nodes.dead", rec.dead_nodes);
    m->set_gauge("cluster.halo.bytes", static_cast<double>(plan.total_bytes));
    m->set_gauge("cluster.halo.messages",
                 static_cast<double>(plan.messages.size()));
    m->set_gauge("cluster.halo.seconds", rec.halo_seconds);
    m->add_counter("cluster.sdc.injected_total", rec.sdc_injected);
    m->add_counter("cluster.sdc.detected_total", rec.sdc_detected);
    m->add_counter("cluster.sdc.repairs_total", rec.sdc_repaired);
  }

  // 7. The global physics step (read-only from the cluster's perspective).
  rec.inner = inner_.step_once();

  // 8. Per-node attribution: each shard's body share of the compute time,
  // scaled by its capability, plus its halo receive time.
  rec.node_compute_seconds.assign(nodes_.size(), 0.0);
  const double n_total = static_cast<double>(map_.num_bodies());
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    const auto& r = map_.range(static_cast<int>(k));
    const double share =
        n_total > 0.0 ? static_cast<double>(r.size()) / n_total : 0.0;
    const double w = nodes_[k].weight > 0.0 ? nodes_[k].weight : 1.0;
    rec.node_compute_seconds[k] =
        rec.inner.compute_seconds * share / w +
        (k < xch.node_seconds.size() ? xch.node_seconds[k] : 0.0);
  }
  if (TraceRecorder* tr = inner_.trace()) {
    const double t1 = inner_.virtual_now();
    const double t0 = t1 - rec.inner.total_seconds();
    for (std::size_t k = 0; k < nodes_.size(); ++k) {
      const std::string track = "node" + std::to_string(k);
      if (nodes_[k].dead) {
        tr->counter(TraceRecorder::kVirtualPid, track, "dead", t0, 1.0);
        continue;
      }
      tr->span(TraceRecorder::kVirtualPid, track, "shard-step", "cluster", t0,
               rec.node_compute_seconds[k],
               {TraceArg::num("bodies", map_.range(static_cast<int>(k)).size()),
                TraceArg::num("halo_bytes",
                              static_cast<double>(rec.halo_bytes))});
    }
    for (const auto& e : fired)
      tr->instant(TraceRecorder::kVirtualPid, "cluster", describe(e), "fault",
                  t0, {TraceArg::num("node", e.node)});
    if (rec.migrated)
      tr->instant(TraceRecorder::kVirtualPid, "cluster", "migrate", "cluster",
                  t0,
                  {TraceArg::num("bodies",
                                 static_cast<double>(rec.migrated_bodies))});
    if (rec.recovered)
      tr->instant(TraceRecorder::kVirtualPid, "cluster", "recover", "cluster",
                  t0, {TraceArg::num("restored_step", rec.restored_step)});
    if (rec.sdc_repaired > 0)
      tr->instant(TraceRecorder::kVirtualPid, "cluster", "sdc-repair", "sdc",
                  t0,
                  {TraceArg::num("messages", rec.sdc_repaired),
                   TraceArg::num("seconds", rec.sdc_repair_seconds)});
  }

  // 9. Coordinated checkpoint: only when no crash is being suspected --
  // every node is either healthy or already written off (its range empty).
  if (store_ && cluster_.checkpoint_interval > 0 &&
      inner_.steps_taken() % cluster_.checkpoint_interval == 0) {
    bool quiescent = true;
    for (const auto& n : nodes_)
      if (!n.dead && (n.crashed || n.missed_heartbeats > 0)) quiescent = false;
    if (quiescent) rec.checkpointed = store_->save(make_checkpoint());
  }
  return rec;
}

template <class Problem>
std::vector<ClusterStepRecord> ClusterEngine<Problem>::run(int n) {
  std::vector<ClusterStepRecord> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(step());
  return out;
}

template <class Problem>
std::vector<ClusterStepRecord> ClusterEngine<Problem>::run_to(
    int target_step) {
  std::vector<ClusterStepRecord> out;
  // Recovery rewinds the inner count; the cap bounds a misconfigured loop
  // (e.g. a store that can never catch up past a repeating crash).
  int guard = 10 * (target_step + 10);
  while (inner_.steps_taken() < target_step && guard-- > 0)
    out.push_back(step());
  return out;
}

template <class Problem>
std::vector<std::uint8_t> ClusterEngine<Problem>::encode_cluster_blob() const {
  ByteWriter w;
  w.u32(2);  // blob version (v2: injector fired high-water mark)
  w.u64(nodes_.size());
  for (const auto& n : nodes_) {
    w.u8(n.crashed ? 1 : 0);
    w.u8(n.dead ? 1 : 0);
    w.i32(n.missed_heartbeats);
    w.f64(n.link_fault_prob);
    w.i32(n.link_window_end);
    w.u64(n.sim.health().fault_epoch);
  }
  const FaultInjectorSnapshot snap = injector_.snapshot();
  w.u64(snap.next_event);
  w.i32(snap.transfer_window_end);
  w.u64(snap.num_events);
  w.u64(snap.fired_mark);
  w.u64(cluster_health_.fault_epoch);
  return w.take();
}

template <class Problem>
void ClusterEngine<Problem>::restore_cluster_blob(
    const std::vector<std::uint8_t>& blob) {
  ByteReader r(blob);
  if (r.u32() != 2)
    throw std::invalid_argument("cluster blob: unknown version");
  if (r.u64() != nodes_.size())
    throw std::invalid_argument("cluster blob: node count mismatch");
  for (auto& n : nodes_) {
    n.crashed = r.u8() != 0;
    n.dead = r.u8() != 0;
    n.missed_heartbeats = r.i32();
    n.link_fault_prob = r.f64();
    n.link_window_end = r.i32();
    MachineHealth& h = n.sim.health();
    h.transfer_fault_prob = n.link_fault_prob;
    if (n.crashed)
      for (auto& g : h.gpus) g.alive = false;
    h.fault_epoch = r.u64();
  }
  FaultInjectorSnapshot snap;
  snap.next_event = r.u64();
  snap.transfer_window_end = r.i32();
  snap.num_events = r.u64();
  snap.fired_mark = r.u64();
  cluster_health_.fault_epoch = r.u64();
  if (!r.ok() || r.remaining() != 0)
    throw std::invalid_argument("cluster blob: truncated or oversized");
  injector_.restore(snap);
}

template <class Problem>
ShardedCheckpoint ClusterEngine<Problem>::make_checkpoint() const {
  ShardedCheckpoint sc;
  sc.global = inner_.checkpoint();
  sc.cluster_blob = encode_cluster_blob();
  sc.ranges.reserve(map_.ranges().size());
  for (const auto& r : map_.ranges()) sc.ranges.emplace_back(r.begin, r.end);
  return sc;
}

template class ClusterEngine<GravityProblem>;
template class ClusterEngine<StokesProblem>;

}  // namespace afmm

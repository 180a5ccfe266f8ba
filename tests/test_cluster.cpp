#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <vector>

#include "cluster/cluster.hpp"
#include "dist/distributions.hpp"
#include "util/rng.hpp"

namespace afmm {
namespace {

namespace fs = std::filesystem;

EngineConfig base_config() {
  EngineConfig cfg;
  cfg.fmm.order = 4;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 8.0;
  cfg.balancer.initial_S = 32;
  cfg.dt = 1e-4;
  return cfg;
}

NodeSimulator default_node(int gpus = 2) {
  return NodeSimulator(CpuModelConfig{}, GpuSystemConfig::uniform(gpus));
}

ParticleSet test_bodies(std::size_t n = 1200) {
  Rng rng(71);
  PlummerOptions opt;
  opt.scale_radius = 0.2;
  opt.velocity_scale = 0.5;
  return plummer(n, rng, opt);
}

GravityProblem make_problem(const EngineConfig& cfg,
                            ParticleSet bodies = test_bodies(),
                            OverlapMode overlap = OverlapMode::kOff) {
  NodeSimulator node = default_node();
  node.set_overlap(overlap);
  return GravityProblem(cfg.fmm, 1.0, 1e-3, std::move(node),
                        std::move(bodies));
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = (fs::path(::testing::TempDir()) / name).string();
  fs::remove_all(dir);
  return dir;
}

void expect_same_bodies(const ParticleSet& a, const ParticleSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.positions[i], b.positions[i]);
    EXPECT_EQ(a.velocities[i], b.velocities[i]);
  }
}

TEST(ShardMap, UniformCoversEveryBodyContiguously) {
  const ShardMap map = ShardMap::uniform(10, 4);
  ASSERT_EQ(map.num_shards(), 4);
  EXPECT_EQ(map.num_bodies(), 10u);
  std::uint32_t cursor = 0;
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(map.range(k).begin, cursor);
    cursor = map.range(k).end;
  }
  EXPECT_EQ(cursor, 10u);
  // 10 = 3 + 3 + 2 + 2: the remainder lands on the leading shards.
  EXPECT_EQ(map.range(0).size(), 3u);
  EXPECT_EQ(map.range(1).size(), 3u);
  EXPECT_EQ(map.range(3).size(), 2u);
  for (std::uint32_t t = 0; t < 10; ++t) {
    const int k = map.owner_of(t);
    EXPECT_GE(t, map.range(k).begin);
    EXPECT_LT(t, map.range(k).end);
  }
}

TEST(ShardMap, RejectsNonContiguousRanges) {
  EXPECT_THROW(ShardMap({{0, 4}, {5, 8}}), std::invalid_argument);
  EXPECT_THROW(ShardMap({{1, 4}}), std::invalid_argument);
}

TEST(ShardMap, WeightedSplitCutsAtEffectiveLeafBoundaries) {
  const EngineConfig cfg = base_config();
  SimulationEngine<GravityProblem> engine(cfg, make_problem(cfg));
  const auto& tree = engine.tree();
  const auto& lists = engine.list_cache().get(tree, cfg.fmm.traversal);

  std::set<std::uint32_t> boundaries{0};
  for (int leaf : tree.effective_leaves()) {
    const auto& n = tree.node(leaf);
    boundaries.insert(n.begin + n.count);
  }

  const std::vector<double> weights{1.0, 2.0, 1.0};
  const ShardMap map =
      weighted_split(tree, lists, engine.balancer().cost_model(), weights);
  ASSERT_EQ(map.num_shards(), 3);
  EXPECT_EQ(map.num_bodies(), static_cast<std::uint32_t>(tree.num_bodies()));
  for (int k = 0; k < map.num_shards(); ++k) {
    EXPECT_TRUE(boundaries.count(map.range(k).end))
        << "shard " << k << " cut mid-leaf at " << map.range(k).end;
    EXPECT_GT(map.range(k).size(), 0u);  // every positive weight owns work
  }
  // The double-weight shard must not end up the smallest.
  EXPECT_GE(map.range(1).size(),
            std::min(map.range(0).size(), map.range(2).size()));
}

TEST(ShardMap, ZeroWeightShardOwnsNothing) {
  const EngineConfig cfg = base_config();
  SimulationEngine<GravityProblem> engine(cfg, make_problem(cfg));
  const auto& lists = engine.list_cache().get(engine.tree(), cfg.fmm.traversal);
  const std::vector<double> weights{1.0, 0.0, 1.0};
  const ShardMap map = weighted_split(engine.tree(), lists,
                                      engine.balancer().cost_model(), weights);
  EXPECT_TRUE(map.range(1).empty());
  EXPECT_EQ(map.num_bodies(),
            static_cast<std::uint32_t>(engine.tree().num_bodies()));
}

TEST(Halo, PlanIsDeterministicAndCrossesBoundaries) {
  const EngineConfig cfg = base_config();
  SimulationEngine<GravityProblem> engine(cfg, make_problem(cfg));
  const auto& lists = engine.list_cache().get(engine.tree(), cfg.fmm.traversal);
  const std::uint32_t n = static_cast<std::uint32_t>(engine.tree().num_bodies());
  const ShardMap map = ShardMap::uniform(n, 2);

  const HaloPlan a = build_halo_plan(engine.tree(), lists, map,
                                     cfg.fmm.order, GravityProblem::kRhs);
  const HaloPlan b = build_halo_plan(engine.tree(), lists, map,
                                     cfg.fmm.order, GravityProblem::kRhs);
  EXPECT_GT(a.body_halo, 0u);
  EXPECT_GT(a.multipole_halo, 0u);
  EXPECT_GT(a.total_bytes, 0u);
  ASSERT_FALSE(a.messages.empty());
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (std::size_t i = 0; i < a.messages.size(); ++i) {
    EXPECT_EQ(a.messages[i].src, b.messages[i].src);
    EXPECT_EQ(a.messages[i].dst, b.messages[i].dst);
    EXPECT_EQ(a.messages[i].bytes, b.messages[i].bytes);
    EXPECT_NE(a.messages[i].src, a.messages[i].dst);
  }
  // A single-shard map has no boundary to cross.
  const HaloPlan none =
      build_halo_plan(engine.tree(), lists, ShardMap::uniform(n, 1),
                      cfg.fmm.order, GravityProblem::kRhs);
  EXPECT_EQ(none.total_bytes, 0u);
  EXPECT_TRUE(none.messages.empty());
}

// A halo body carries its position and one value per rhs; a multipole
// carries every coefficient of order <= p, per rhs.
template <class Problem>
void expect_halo_bytes_follow_order_and_rhs(Problem problem, int nrhs) {
  EngineConfig cfg = base_config();
  cfg.fmm.order = 5;
  ClusterConfig cc;
  cc.num_nodes = 3;
  ClusterEngine<Problem> cluster(cfg, cc, std::move(problem));
  const ClusterStepRecord rec = cluster.step();
  ASSERT_GT(rec.halo_bodies, 0u);
  ASSERT_GT(rec.halo_multipoles, 0u);
  const std::uint64_t ncoef = 56;  // (p+1)(p+2)(p+3)/6 at p = 5
  EXPECT_EQ(rec.halo_bytes,
            8 * (rec.halo_bodies * (3 + nrhs) +
                 rec.halo_multipoles * ncoef * nrhs));
}

TEST(Halo, BytesFollowOrderAndRhsCount) {
  {
    SCOPED_TRACE("gravity");
    EngineConfig cfg = base_config();
    cfg.fmm.order = 5;
    expect_halo_bytes_follow_order_and_rhs(make_problem(cfg), 1);
  }
  {
    SCOPED_TRACE("Stokes");
    FmmConfig fmm;
    fmm.order = 5;
    Rng rng(5);
    std::vector<Vec3> pos;
    for (int i = 0; i < 600; ++i)
      pos.push_back(
          {rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-4, 4)});
    expect_halo_bytes_follow_order_and_rhs(
        StokesProblem(fmm, 0.05, 1.0, default_node(), pos,
                      constant_force({0, 0, -1})),
        4);
  }
}

TEST(Interconnect, RetriesAreDeterministicPerSeed) {
  ClusterLinkConfig link;
  std::vector<HaloMessage> msgs{{0, 1, 1 << 20, 1}, {1, 0, 1 << 19, 2}};
  const std::vector<double> drop{0.9, 0.9};
  const std::vector<double> clean{0.0, 0.0};
  const std::vector<char> up{0, 0};

  const auto a = exchange_halos(link, msgs, drop, up, 42);
  const auto b = exchange_halos(link, msgs, drop, up, 42);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.seconds, b.seconds);
  ASSERT_EQ(a.node_seconds.size(), b.node_seconds.size());
  for (std::size_t k = 0; k < a.node_seconds.size(); ++k)
    EXPECT_EQ(a.node_seconds[k], b.node_seconds[k]);
  EXPECT_GT(a.retries, 0);
  EXPECT_EQ(a.timeouts, 0);

  const auto healthy = exchange_halos(link, msgs, clean, up, 42);
  EXPECT_EQ(healthy.retries, 0);
  EXPECT_LT(healthy.seconds, a.seconds);
}

TEST(Interconnect, CrashedEndpointTimesOutWithFullRetryStorm) {
  ClusterLinkConfig link;
  std::vector<HaloMessage> msgs{{0, 1, 1 << 20, 1}};
  const std::vector<double> clean{0.0, 0.0};
  const std::vector<char> crashed{0, 1};
  const auto out = exchange_halos(link, msgs, clean, crashed, 7);
  EXPECT_EQ(out.timeouts, 1);
  EXPECT_EQ(out.retries, link.max_retries);
  // The surviving sender pays the storm; the silent node pays nothing.
  ASSERT_EQ(out.node_seconds.size(), 2u);
  EXPECT_GT(out.node_seconds[0], 0.0);
  EXPECT_EQ(out.node_seconds[1], 0.0);
}

// A fault-free K-shard cluster run must be bit-identical to the single-node
// run: the cluster layer is strictly read-only over the physics.
TEST(Cluster, FaultFreeRunMatchesSingleNodeBitForBit) {
  const EngineConfig cfg = base_config();
  const ParticleSet set = test_bodies();

  SimulationEngine<GravityProblem> solo(cfg, make_problem(cfg, set));
  const auto ref = solo.run(8);

  for (int k : {2, 4}) {
    ClusterConfig cc;
    cc.num_nodes = k;
    ClusterEngine<GravityProblem> cluster(cfg, cc, make_problem(cfg, set));
    const auto recs = cluster.run(8);
    ASSERT_EQ(recs.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(recs[i].inner.compute_seconds, ref[i].compute_seconds);
      EXPECT_EQ(recs[i].inner.S, ref[i].S);
      EXPECT_EQ(recs[i].inner.stats.p2p_interactions,
                ref[i].stats.p2p_interactions);
      EXPECT_EQ(recs[i].alive_nodes, k);
      EXPECT_EQ(recs[i].dead_nodes, 0);
      EXPECT_GT(recs[i].halo_bytes, 0u);
      EXPECT_EQ(recs[i].halo_retries, 0);
      EXPECT_EQ(recs[i].halo_timeouts, 0);
    }
    expect_same_bodies(solo.problem().bodies(),
                       cluster.engine().problem().bodies());
  }
}

// Regression for the FGO hidden-node bug: the fine-grained optimizer's
// candidate scan used to walk ALL node ids, so nodes hidden beneath a
// collapsed ancestor could join a push_down batch. The DAG executor steers
// the balancer through different S trajectories than serialized execution,
// and on this workload one of them put a collapsed parent and a hidden
// collapsed child in the same batch -- the parent's push_down re-hid the
// child, so the batch revert's collapse() threw "already an effective leaf".
// Overlap is on here so the test regresses that trajectory. The cluster
// layer is read-only over one inner engine, so the overlap-on cluster run
// must also stay bit-identical to the overlap-on single-node run.
TEST(Cluster, OverlapExecutionKeepsFgoOnTheEffectiveTree) {
  const EngineConfig cfg = base_config();
  const ParticleSet set = test_bodies();
  const int steps = 16;

  SimulationEngine<GravityProblem> solo(
      cfg, make_problem(cfg, set, OverlapMode::kOn));
  const auto ref = solo.run(steps);

  ClusterConfig cc;
  cc.num_nodes = 2;
  ClusterEngine<GravityProblem> cluster(
      cfg, cc, make_problem(cfg, set, OverlapMode::kOn));
  const auto recs = cluster.run(steps);
  ASSERT_EQ(recs.size(), static_cast<std::size_t>(steps));
  for (int i = 0; i < steps; ++i) {
    EXPECT_EQ(recs[i].inner.compute_seconds, ref[i].compute_seconds);
    EXPECT_EQ(recs[i].inner.S, ref[i].S);
  }
  expect_same_bodies(solo.problem().bodies(),
                     cluster.engine().problem().bodies());
}

// Kill node 1 at step 5 of a 2-node run that checkpoints every 3 steps into
// `dir`: the heartbeat detector declares it dead, the global rebalancer
// migrates its range to the survivor, the lost state restores from the
// coordinated shard checkpoints, the invariant auditor passes every
// subsequent step, and the final state is bit-identical to the fault-free
// cluster run.
void expect_node_loss_recovers(const std::string& dir,
                               OverlapMode overlap = OverlapMode::kOff) {
  const EngineConfig cfg = base_config();
  const ParticleSet set = test_bodies();
  const int total_steps = 12;

  ClusterConfig healthy;
  healthy.num_nodes = 2;
  ClusterEngine<GravityProblem> reference(cfg, healthy,
                                          make_problem(cfg, set, overlap));
  reference.run(total_steps);

  ClusterConfig cc;
  cc.num_nodes = 2;
  cc.heartbeat_miss_threshold = 2;
  cc.checkpoint_interval = 3;
  cc.checkpoint_dir = dir;
  cc.faults.node_crash(5, 1);
  ClusterEngine<GravityProblem> cluster(cfg, cc,
                                        make_problem(cfg, set, overlap));

  bool saw_recovery = false, saw_migration = false, saw_timeout = false;
  int guard = 10 * total_steps;
  while (cluster.engine().steps_taken() < total_steps && guard-- > 0) {
    const auto rec = cluster.step();
    saw_recovery |= rec.recovered;
    saw_migration |= rec.migrated;
    saw_timeout |= rec.halo_timeouts > 0;
    if (rec.recovered) {
      EXPECT_GE(rec.restored_step, 0);
    }
    // Every step from the recovery on must pass the full invariant audit.
    if (saw_recovery) {
      EXPECT_TRUE(cluster.engine().run_audit().ok());
    }
  }
  ASSERT_EQ(cluster.engine().steps_taken(), total_steps);
  EXPECT_TRUE(saw_timeout);    // the suspected node's halo messages timed out
  EXPECT_TRUE(saw_recovery);
  EXPECT_TRUE(saw_migration);
  EXPECT_TRUE(cluster.node_state(1).dead);
  EXPECT_FALSE(cluster.node_state(0).dead);
  EXPECT_EQ(cluster.recoveries(), 1);
  // The dead node owns nothing; the survivor owns everything.
  EXPECT_TRUE(cluster.shards().range(1).empty());
  EXPECT_EQ(cluster.shards().range(0).size(),
            static_cast<std::uint32_t>(set.size()));

  expect_same_bodies(reference.engine().problem().bodies(),
                     cluster.engine().problem().bodies());
}

// On the serialized and on the overlap timeline.
TEST(Cluster, NodeLossRecoversToBitIdenticalState) {
  for (const OverlapMode mode : {OverlapMode::kOff, OverlapMode::kOn}) {
    SCOPED_TRACE(mode == OverlapMode::kOn ? "overlap" : "serial");
    expect_node_loss_recovers(fresh_dir("cluster_node_loss"), mode);
  }
}

// A rerun into a used directory: an earlier, longer run of a different
// problem left higher-step shard sets there. Recovery must restore this
// run's own set, and its saves must not be rotated away by the stale ones.
TEST(Cluster, NodeLossIgnoresAnEarlierRunsShardSets) {
  const std::string dir = fresh_dir("cluster_node_loss_reused");
  {
    const EngineConfig cfg = base_config();
    ClusterConfig cc;
    cc.num_nodes = 2;
    cc.checkpoint_interval = 3;
    cc.checkpoint_dir = dir;
    ClusterEngine<GravityProblem> earlier(
        cfg, cc, GravityProblem(cfg.fmm, 2.0, 1e-3, default_node(),
                                test_bodies()));
    earlier.run(20);
  }
  expect_node_loss_recovers(dir);
}

// Replay determinism: resuming from the coordinated shard checkpoint must
// reproduce the original run's drops, retries and migration decisions for
// every replayed step.
TEST(Cluster, ReplayFromShardCheckpointReproducesDropsAndMigrations) {
  const EngineConfig cfg = base_config();
  const ParticleSet set = test_bodies();
  const std::string dir = fresh_dir("cluster_replay");

  ClusterConfig cc;
  cc.num_nodes = 2;
  cc.checkpoint_interval = 5;
  cc.checkpoint_dir = dir;
  // Fires INSIDE the replayed window (checkpoints land at steps 5 and 10, the
  // fault at step 10), so the resumed run must re-derive the same drop draws,
  // retries and the degradation-triggered migration.
  cc.faults.node_link_faults(10, 0, 0.6, 4);
  ClusterEngine<GravityProblem> original(cfg, cc, make_problem(cfg, set));
  const auto recs = original.run(12);
  ASSERT_EQ(recs.size(), 12u);
  ASSERT_TRUE(recs[10].migrated);  // re-split away from the lossy node

  ShardStore store(dir);
  std::string error;
  const auto sc = store.load_latest(&error);
  ASSERT_TRUE(sc.has_value()) << error;
  const int resume_step = sc->global.step;
  ASSERT_EQ(resume_step, 10);  // newest coordinated set within keep budget

  ClusterEngine<GravityProblem> resumed(cfg, cc, make_problem(cfg, set), *sc);
  ASSERT_EQ(resumed.engine().steps_taken(), resume_step);
  const auto replay = resumed.run(12 - resume_step);

  for (const auto& r : replay) {
    const auto& o = recs[static_cast<std::size_t>(r.step)];
    ASSERT_EQ(o.step, r.step);
    EXPECT_EQ(o.halo_bytes, r.halo_bytes);
    EXPECT_EQ(o.halo_messages, r.halo_messages);
    EXPECT_EQ(o.halo_retries, r.halo_retries);
    EXPECT_EQ(o.halo_timeouts, r.halo_timeouts);
    EXPECT_EQ(o.halo_seconds, r.halo_seconds);
    EXPECT_EQ(o.faults_fired, r.faults_fired);
    EXPECT_EQ(o.migrated, r.migrated);
    EXPECT_EQ(o.migrated_bodies, r.migrated_bodies);
    EXPECT_EQ(o.migration_seconds, r.migration_seconds);
    EXPECT_EQ(o.inner.compute_seconds, r.inner.compute_seconds);
  }
  EXPECT_TRUE(original.shards() == resumed.shards());
  expect_same_bodies(original.engine().problem().bodies(),
                     resumed.engine().problem().bodies());
}

TEST(Cluster, LinkDegradationTriggersWarmMigrationAndBack) {
  const EngineConfig cfg = base_config();
  ClusterConfig cc;
  cc.num_nodes = 2;
  cc.faults.node_link_faults(3, 1, 0.5, 3);
  ClusterEngine<GravityProblem> cluster(cfg, cc, make_problem(cfg));
  // NodeSimulator construction resets the health registry, which bumps the
  // epoch -- compare against the post-construction baseline.
  const std::uint64_t epoch0 = cluster.node_health(0).fault_epoch;
  const std::uint64_t epoch1 = cluster.node_health(1).fault_epoch;

  const auto recs = cluster.run(10);
  bool migrated_on_fault = false, migrated_on_expiry = false;
  for (const auto& r : recs) {
    if (r.step == 3 && r.migrated) migrated_on_fault = true;
    if (r.step > 3 && r.migrated) migrated_on_expiry = true;
  }
  EXPECT_TRUE(migrated_on_fault);   // work shifted away from the lossy node
  EXPECT_TRUE(migrated_on_expiry);  // and back once the window closed
  EXPECT_EQ(cluster.recoveries(), 0);
  EXPECT_GE(cluster.migrations(), 2);
  // The degraded node's per-node health view saw every transition; the
  // healthy node's view stayed untouched.
  EXPECT_GT(cluster.node_health(1).fault_epoch, epoch1);
  EXPECT_EQ(cluster.node_health(0).fault_epoch, epoch0);
}

TEST(ShardStore, RoundTripsCoordinatedState) {
  const EngineConfig cfg = base_config();
  ClusterConfig cc;
  cc.num_nodes = 3;
  ClusterEngine<GravityProblem> cluster(cfg, cc, make_problem(cfg));
  cluster.run(4);

  ShardedCheckpoint out = cluster.make_checkpoint();
  // State a resume during post-rollback replay carries: an injector mark
  // past its cursor, and a driver's RNG stream.
  out.global.injector.fired_mark = out.global.injector.next_event + 5;
  out.global.rng_words = {1, 2, 3, 4};
  ShardStore store(fresh_dir("shard_roundtrip"));
  std::string error;
  ASSERT_TRUE(store.save(out, &error)) << error;
  const auto in = store.load_latest(&error);
  ASSERT_TRUE(in.has_value()) << error;

  EXPECT_EQ(in->global.step, out.global.step);
  EXPECT_EQ(in->ranges, out.ranges);
  EXPECT_EQ(in->cluster_blob, out.cluster_blob);
  ASSERT_EQ(in->global.bodies.size(), out.global.bodies.size());
  for (std::size_t i = 0; i < out.global.bodies.size(); ++i) {
    EXPECT_EQ(in->global.bodies.positions[i], out.global.bodies.positions[i]);
    EXPECT_EQ(in->global.bodies.velocities[i], out.global.bodies.velocities[i]);
    EXPECT_EQ(in->global.bodies.masses[i], out.global.bodies.masses[i]);
    EXPECT_EQ(in->global.accel[i], out.global.accel[i]);
    EXPECT_EQ(in->global.potential[i], out.global.potential[i]);
  }
  EXPECT_EQ(in->global.tree.perm, out.global.tree.perm);
  ASSERT_EQ(in->global.tree.sorted_pos.size(), out.global.tree.sorted_pos.size());
  for (std::size_t t = 0; t < out.global.tree.sorted_pos.size(); ++t)
    EXPECT_EQ(in->global.tree.sorted_pos[t], out.global.tree.sorted_pos[t]);
  EXPECT_EQ(in->global.tree.nodes.size(), out.global.tree.nodes.size());
  EXPECT_EQ(in->global.balancer.S, out.global.balancer.S);
  EXPECT_EQ(in->global.health.fault_epoch, out.global.health.fault_epoch);
  // Every field of the global checkpoint survives the set, byte for byte.
  EXPECT_EQ(encode_checkpoint(in->global), encode_checkpoint(out.global));

  // Engines adopting the original and the reassembled state continue the
  // exact same trajectory.
  SimulationEngine<GravityProblem> a(cfg, make_problem(cfg), out.global);
  SimulationEngine<GravityProblem> b(cfg, make_problem(cfg), in->global);
  a.run(3);
  b.run(3);
  expect_same_bodies(a.problem().bodies(), b.problem().bodies());
}

TEST(ShardStore, CorruptShardFileRollsWholeSetBack) {
  const EngineConfig cfg = base_config();
  ClusterConfig cc;
  cc.num_nodes = 2;
  ClusterEngine<GravityProblem> cluster(cfg, cc, make_problem(cfg));

  ShardStore store(fresh_dir("shard_fallback"));
  const ShardedCheckpoint first = cluster.make_checkpoint();
  ASSERT_TRUE(store.save(first));
  cluster.run(3);
  const ShardedCheckpoint second = cluster.make_checkpoint();
  ASSERT_TRUE(store.save(second));
  ASSERT_GT(second.global.step, first.global.step);

  // Flip one byte in the NEWEST set's shard-1 file: load_latest must reject
  // the whole coordinated set and fall back to the older one.
  char name[48];
  std::snprintf(name, sizeof name, "shard_%010d_%04d.afms",
                second.global.step, 1);
  const std::string victim = (fs::path(store.dir()) / name).string();
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(256);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(256);
    f.write(&byte, 1);
  }
  std::string error;
  const auto loaded = store.load_latest(&error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->global.step, first.global.step);

  // Corrupting the older set's manifest too leaves nothing valid.
  std::snprintf(name, sizeof name, "manifest_%010d.afms", first.global.step);
  const std::string manifest = (fs::path(store.dir()) / name).string();
  {
    std::fstream f(manifest, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(20);
    const char junk = 0x7f;
    f.write(&junk, 1);
  }
  EXPECT_FALSE(store.load_latest(&error).has_value());
  EXPECT_FALSE(error.empty());
}

// Stokes shards identically: positions move AFTER the rebin, so the shard
// files' explicit position slices (not the tree image) are what restore
// depends on.
TEST(Cluster, StokesClusterMatchesSingleNodeAndShards) {
  EngineConfig cfg = base_config();
  cfg.fmm.order = 3;
  cfg.dt = 1e-3;
  Rng rng(5);
  std::vector<Vec3> pos;
  for (int i = 0; i < 600; ++i)
    pos.push_back({rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-4, 4)});

  StokesProblem solo_problem(cfg.fmm, 0.05, 1.0, default_node(), pos,
                             constant_force({0, 0, -1}));
  SimulationEngine<StokesProblem> solo(cfg, std::move(solo_problem));
  solo.run(5);

  ClusterConfig cc;
  cc.num_nodes = 3;
  StokesProblem cluster_problem(cfg.fmm, 0.05, 1.0, default_node(), pos,
                                constant_force({0, 0, -1}));
  ClusterEngine<StokesProblem> cluster(cfg, cc, std::move(cluster_problem));
  cluster.run(5);

  const auto& a = solo.problem().position_vector();
  const auto& b = cluster.engine().problem().position_vector();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);

  // Round-trip the Stokes sharded checkpoint (no masses, no derived arrays).
  ShardStore store(fresh_dir("stokes_shards"));
  ASSERT_TRUE(store.save(cluster.make_checkpoint()));
  std::string error;
  const auto sc = store.load_latest(&error);
  ASSERT_TRUE(sc.has_value()) << error;
  EXPECT_TRUE(sc->global.bodies.masses.empty());
  EXPECT_TRUE(sc->global.accel.empty());
  ASSERT_EQ(sc->global.bodies.positions.size(), b.size());
  for (std::size_t i = 0; i < b.size(); ++i)
    EXPECT_EQ(sc->global.bodies.positions[i], b[i]);
}

}  // namespace
}  // namespace afmm

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "cluster/cluster.hpp"
#include "core/problems.hpp"
#include "dist/distributions.hpp"
#include "replay_axes.hpp"
#include "state/checkpoint_detail.hpp"
#include "state/shard_store.hpp"
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

NodeSimulator default_node(OverlapMode overlap = OverlapMode::kOff) {
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));
  node.set_overlap(overlap);
  return node;
}

// G = 1, softening 1e-3.
GravityEngine make_sim(const EngineConfig& cfg, ParticleSet bodies,
                       OverlapMode overlap = OverlapMode::kOff) {
  return GravityEngine(cfg, GravityProblem(cfg.fmm, 1.0, 1e-3,
                                           default_node(overlap),
                                           std::move(bodies)));
}

ParticleSet test_bodies(std::size_t n = 1500) {
  Rng rng(71);
  PlummerOptions opt;
  opt.scale_radius = 0.2;
  opt.velocity_scale = 0.5;
  return plummer(n, rng, opt);
}

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (fs::path(::testing::TempDir()) / name).string();
  fs::remove_all(dir);
  return dir;
}

void expect_same_record(const StepRecord& a, const StepRecord& b) {
  EXPECT_EQ(a.step, b.step);
  EXPECT_EQ(a.compute_seconds, b.compute_seconds);
  EXPECT_EQ(a.cpu_seconds, b.cpu_seconds);
  EXPECT_EQ(a.gpu_seconds, b.gpu_seconds);
  EXPECT_EQ(a.lb_seconds, b.lb_seconds);
  EXPECT_EQ(a.S, b.S);
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.rebuilt, b.rebuilt);
  EXPECT_EQ(a.capability_shift, b.capability_shift);
  EXPECT_EQ(a.cpu_fallback, b.cpu_fallback);
  EXPECT_EQ(a.transfer_retries, b.transfer_retries);
}

// A straight 2k-step run and a run checkpointed at k (through a full binary
// encode/decode) and resumed must produce bit-identical trajectories.
void check_restore_determinism(const EngineConfig& cfg, int k,
                               OverlapMode overlap) {
  const auto set = test_bodies();

  GravityEngine straight = make_sim(cfg, set, overlap);
  const auto ref = straight.run(2 * k);

  GravityEngine first_half = make_sim(cfg, set, overlap);
  const auto head = first_half.run(k);
  const auto bytes = encode_checkpoint(first_half.checkpoint());
  std::string error;
  const auto decoded = decode_checkpoint(bytes, &error);
  ASSERT_TRUE(decoded.has_value()) << error;

  GravityEngine resumed(
      cfg, GravityProblem(cfg.fmm, 1.0, 1e-3, default_node(overlap), {}),
      *decoded);
  ASSERT_EQ(resumed.steps_taken(), k);
  const auto tail = resumed.run(k);

  for (int i = 0; i < k; ++i) {
    expect_same_record(ref[static_cast<std::size_t>(i)],
                       head[static_cast<std::size_t>(i)]);
    expect_same_record(ref[static_cast<std::size_t>(k + i)],
                       tail[static_cast<std::size_t>(i)]);
  }
  const ParticleSet& a = straight.problem().bodies();
  const ParticleSet& b = resumed.problem().bodies();
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(a.positions[i], b.positions[i]);
    EXPECT_EQ(a.velocities[i], b.velocities[i]);
  }
  EXPECT_EQ(straight.balancer().state(), resumed.balancer().state());
  EXPECT_EQ(straight.balancer().current_S(), resumed.balancer().current_S());
}

// The straight-versus-resumed checks at 1 and at 4 OpenMP threads, on the
// serialized and on the overlap timeline: a resumed run must reproduce the
// straight one whatever the thread count, and the overlap fields of the
// observed step times must survive the round trip.
class CheckpointReplay : public ReplayTest {};
INSTANTIATE_TEST_SUITE_P(Replay, CheckpointReplay, replay_axes(),
                         replay_axes_name);

TEST(Serial, WriterReaderRoundTrip) {
  ByteWriter w;
  w.u8(7);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.i64(-1234567890123ll);
  w.f64(3.14159);
  ByteReader r(w.buffer());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123ll);
  EXPECT_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  // Overrun latches the fail flag and yields zeros, never throws.
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Serial, Crc32MatchesKnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t*>(s), 9}), 0xCBF43926u);
}

TEST(Checkpoint, EncodeDecodeRoundTrip) {
  const auto set = test_bodies(600);
  GravityEngine sim = make_sim(base_config(), set);
  sim.run(5);

  const auto ckpt = sim.checkpoint();
  const auto bytes = encode_checkpoint(ckpt);
  std::string error;
  const auto back = decode_checkpoint(bytes, &error);
  ASSERT_TRUE(back.has_value()) << error;

  EXPECT_EQ(back->kind, SimKind::kGravity);
  EXPECT_EQ(back->step, 5);
  ASSERT_EQ(back->bodies.size(), set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(back->bodies.positions[i], ckpt.bodies.positions[i]);
    EXPECT_EQ(back->bodies.velocities[i], ckpt.bodies.velocities[i]);
    EXPECT_EQ(back->bodies.masses[i], ckpt.bodies.masses[i]);
    EXPECT_EQ(back->accel[i], ckpt.accel[i]);
    EXPECT_EQ(back->potential[i], ckpt.potential[i]);
  }
  EXPECT_EQ(back->tree.nodes.size(), ckpt.tree.nodes.size());
  EXPECT_EQ(back->balancer.S, ckpt.balancer.S);
  EXPECT_EQ(back->balancer.state, ckpt.balancer.state);
  EXPECT_EQ(back->balancer.model.observations,
            ckpt.balancer.model.observations);
  EXPECT_EQ(back->health.gpus.size(), ckpt.health.gpus.size());
  EXPECT_EQ(back->injector.next_event, ckpt.injector.next_event);
  EXPECT_EQ(back->has_observed, ckpt.has_observed);
  EXPECT_EQ(back->observed.cpu_seconds, ckpt.observed.cpu_seconds);
}

TEST(Checkpoint, RngStateSurvivesRoundTrip) {
  Rng rng(123);
  rng.next_u64();
  rng.next_u64();
  SimCheckpoint ckpt;
  const auto state = rng.state();
  ckpt.rng_words.assign(state.begin(), state.end());
  const auto back = decode_checkpoint(encode_checkpoint(ckpt));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->rng_words.size(), 4u);
  Rng restored(1);
  restored.set_state({back->rng_words[0], back->rng_words[1],
                      back->rng_words[2], back->rng_words[3]});
  for (int i = 0; i < 8; ++i) EXPECT_EQ(restored.next_u64(), rng.next_u64());
}

TEST_P(CheckpointReplay, RestoredRunIsBitIdentical) {
  check_restore_determinism(base_config(), 10, overlap());
}

TEST_P(CheckpointReplay, RestoredRunIsBitIdenticalUnderFaults) {
  auto cfg = base_config();
  // Faults on both sides of the checkpoint at step 10, plus a transfer-fault
  // window STRADDLING it -- the replay cursor and the per-step transfer seed
  // must both survive the round trip.
  cfg.faults.gpu_throttle(4, 0, 0.5)
      .transfer_faults(8, 0.5, 6)
      .gpu_loss(14, 0)
      .gpu_recovery(18, 1);
  check_restore_determinism(cfg, 10, overlap());
}

TEST_P(CheckpointReplay, RestoredRunIsBitIdenticalWithResilienceEnabled) {
  auto cfg = base_config();
  cfg.resilience.audit.interval = 3;
  cfg.resilience.checkpoint_interval = 5;
  check_restore_determinism(cfg, 10, overlap());
}

TEST(Checkpoint, VersionMismatchRejected) {
  GravityEngine sim = make_sim(base_config(), test_bodies(300));
  auto bytes = encode_checkpoint(sim.checkpoint());
  bytes[4] += 1;  // format version field sits right after the magic
  std::string error;
  EXPECT_FALSE(decode_checkpoint(bytes, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(Checkpoint, BadMagicRejected) {
  std::vector<std::uint8_t> junk(64, 0xAB);
  std::string error;
  EXPECT_FALSE(decode_checkpoint(junk, &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(Checkpoint, CorruptByteRejectedByCrc) {
  GravityEngine sim = make_sim(base_config(), test_bodies(300));
  auto bytes = encode_checkpoint(sim.checkpoint());
  bytes[bytes.size() / 2] ^= 0x40;  // flip one bit mid-payload
  std::string error;
  EXPECT_FALSE(decode_checkpoint(bytes, &error).has_value());
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
}

TEST(Checkpoint, TruncationRejected) {
  GravityEngine sim = make_sim(base_config(), test_bodies(300));
  const auto bytes = encode_checkpoint(sim.checkpoint());
  for (const std::size_t cut : {bytes.size() - 1, bytes.size() / 2,
                                std::size_t{17}, std::size_t{3}}) {
    const std::span<const std::uint8_t> head(bytes.data(), cut);
    EXPECT_FALSE(decode_checkpoint(head).has_value()) << "cut=" << cut;
  }
}

TEST(CheckpointStore, SaveLoadAndPrune) {
  const std::string dir = fresh_dir("ckpt_store_prune");
  CheckpointStore store(dir, 2);
  GravityEngine sim = make_sim(base_config(), test_bodies(300));
  for (int i = 0; i < 4; ++i) {
    sim.step_once();
    auto ckpt = sim.checkpoint();
    std::string error;
    ASSERT_TRUE(store.save(ckpt, &error)) << error;
  }
  EXPECT_EQ(store.files().size(), 2u);  // pruned to keep
  const auto latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->step, 4);
}

TEST(CheckpointStore, SaveKeepsTheFileJustWrittenAndLoadsExactStep) {
  const std::string dir = fresh_dir("ckpt_store_exact");
  CheckpointStore store(dir, 2);
  GravityEngine sim = make_sim(base_config(), test_bodies(300));
  sim.step_once();
  auto ckpt = sim.checkpoint();
  // An earlier run left higher steps behind; they must not crowd out the
  // new, lower-step snapshot.
  for (const int step : {9, 8, 1}) {
    ckpt.step = step;
    ASSERT_TRUE(store.save(ckpt));
  }
  const auto files = store.files();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_NE(files.back().find("ckpt_0000000001.afmm"), std::string::npos);
  std::string error;
  const auto exact = store.load(1, &error);
  ASSERT_TRUE(exact.has_value()) << error;
  EXPECT_EQ(exact->step, 1);
  EXPECT_FALSE(store.load(8).has_value());  // rotated away
}

TEST(CheckpointStore, TornWriteFallsBackToPreviousSnapshot) {
  const std::string dir = fresh_dir("ckpt_store_torn");
  CheckpointStore store(dir, 3);
  GravityEngine sim = make_sim(base_config(), test_bodies(300));
  sim.step_once();
  ASSERT_TRUE(store.save(sim.checkpoint()));
  sim.step_once();
  ASSERT_TRUE(store.save(sim.checkpoint()));

  // Kill mid-write: the newest snapshot is half there.
  const auto files = store.files();
  ASSERT_EQ(files.size(), 2u);
  fs::resize_file(files.front(), fs::file_size(files.front()) / 2);

  std::string error;
  const auto restored = store.load_latest(&error);
  ASSERT_TRUE(restored.has_value()) << error;
  EXPECT_EQ(restored->step, 1);  // the intact previous snapshot
}

TEST(CheckpointStore, CorruptedNewestFallsBack) {
  const std::string dir = fresh_dir("ckpt_store_corrupt");
  CheckpointStore store(dir, 3);
  GravityEngine sim = make_sim(base_config(), test_bodies(300));
  sim.step_once();
  ASSERT_TRUE(store.save(sim.checkpoint()));
  sim.step_once();
  ASSERT_TRUE(store.save(sim.checkpoint()));

  // Bit rot in the newest file.
  const auto files = store.files();
  {
    std::fstream f(files.front(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(files.front()) / 2));
    f.put('\xFF');
  }
  const auto restored = store.load_latest();
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->step, 1);
}

TEST(CheckpointStore, AllSnapshotsCorruptReportsError) {
  const std::string dir = fresh_dir("ckpt_store_hopeless");
  CheckpointStore store(dir, 3);
  std::string error;
  EXPECT_FALSE(store.load_latest(&error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Checkpoint, KindMismatchThrows) {
  GravityEngine sim = make_sim(base_config(), test_bodies(300));
  auto ckpt = sim.checkpoint();
  ckpt.kind = SimKind::kStokes;
  EXPECT_THROW(sim.restore(ckpt), std::invalid_argument);
}

TEST_P(CheckpointReplay, StokesRestoredRunIsBitIdentical) {
  Rng rng(95);
  std::vector<Vec3> pos;
  for (int i = 0; i < 900; ++i)
    pos.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1),
                   rng.uniform(2, 4)});

  EngineConfig cfg;
  cfg.fmm.order = 4;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 8.0;
  cfg.dt = 1e-3;
  cfg.balancer.initial_S = 32;
  cfg.faults.gpu_loss(8, 0);  // active fault on the far side of the snapshot
  const auto force = constant_force({0, 0, -1});
  // epsilon 0.05, viscosity 1.
  auto problem = [&](std::vector<Vec3> p) {
    return StokesProblem(cfg.fmm, 0.05, 1.0, default_node(overlap()),
                         std::move(p), force);
  };

  StokesEngine straight(cfg, problem(pos));
  const auto ref = straight.run(12);

  StokesEngine half(cfg, problem(pos));
  half.run(6);
  const auto decoded = decode_checkpoint(encode_checkpoint(half.checkpoint()));
  ASSERT_TRUE(decoded.has_value());
  StokesEngine resumed(cfg, problem({}), *decoded);
  const auto tail = resumed.run(6);

  for (int i = 0; i < 6; ++i)
    expect_same_record(ref[static_cast<std::size_t>(6 + i)],
                       tail[static_cast<std::size_t>(i)]);
  const StokesProblem& a = straight.problem();
  const StokesProblem& b = resumed.problem();
  for (std::size_t i = 0; i < pos.size(); ++i) {
    EXPECT_EQ(a.position_vector()[i], b.position_vector()[i]);
    EXPECT_EQ(a.velocities()[i], b.velocities()[i]);
  }
}

// ---- owner-namespaced stores (multi-tenant service) ------------------------

TEST(CheckpointStore, OwnerPrefixesFilenames) {
  const std::string dir = fresh_dir("ckpt_owner_prefix");
  CheckpointStore store(dir, 3, "sA");
  EXPECT_EQ(store.owner(), "sA");
  GravityEngine sim = make_sim(base_config(), test_bodies(300));
  for (int i = 0; i < 2; ++i) {
    sim.step_once();
    ASSERT_TRUE(store.save(sim.checkpoint()));
  }
  const auto files = store.files();
  ASSERT_EQ(files.size(), 2u);
  for (const auto& f : files) {
    const std::string name = fs::path(f).filename().string();
    EXPECT_EQ(name.rfind("sA_ckpt_", 0), 0u) << name;
  }
  const auto latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->step, 2);
}

TEST(CheckpointStore, OwnersAreIsolatedInOneDirectory) {
  const std::string dir = fresh_dir("ckpt_owner_isolation");
  CheckpointStore a(dir, 1, "a");
  CheckpointStore b(dir, 1, "b");
  CheckpointStore legacy(dir, 1);
  GravityEngine sim = make_sim(base_config(), test_bodies(300));
  sim.step_once();
  ASSERT_TRUE(a.save(sim.checkpoint()));
  ASSERT_TRUE(b.save(sim.checkpoint()));
  ASSERT_TRUE(legacy.save(sim.checkpoint()));
  sim.step_once();
  // a rotates (keep=1) without touching b's or the legacy store's snapshot.
  ASSERT_TRUE(a.save(sim.checkpoint()));
  EXPECT_EQ(a.files().size(), 1u);
  EXPECT_EQ(b.files().size(), 1u);
  EXPECT_EQ(legacy.files().size(), 1u);
  EXPECT_EQ(a.load_latest()->step, 2);
  EXPECT_EQ(b.load_latest()->step, 1);
  EXPECT_EQ(legacy.load_latest()->step, 1);
}

TEST(CheckpointStore, StrictMatchingRejectsLookAlikeNames) {
  // Regression guard: an owner named "ckpt" writes ckpt_ckpt_<step>.afmm. A
  // loose starts-with("ckpt_") match -- the pre-owner behavior -- would list
  // that file in the UNOWNED store and corrupt its rotation; the strict
  // matcher requires exactly one 10-digit group after the stem.
  const std::string dir = fresh_dir("ckpt_lookalike");
  CheckpointStore owned(dir, 3, "ckpt");
  GravityEngine sim = make_sim(base_config(), test_bodies(300));
  sim.step_once();
  ASSERT_TRUE(owned.save(sim.checkpoint()));
  ASSERT_EQ(owned.files().size(), 1u);

  CheckpointStore legacy(dir, 3);
  EXPECT_TRUE(legacy.files().empty());

  // Malformed bare names are rejected too (wrong digit count, extra suffix).
  std::ofstream(dir + "/ckpt_12345.afmm") << "x";
  std::ofstream(dir + "/ckpt_0000000001.afmm.bak") << "x";
  EXPECT_TRUE(legacy.files().empty());
  EXPECT_EQ(owned.files().size(), 1u);
}

TEST(CheckpointStore, InvalidOwnerRejected) {
  const std::string dir = fresh_dir("ckpt_bad_owner");
  EXPECT_THROW(CheckpointStore(dir, 2, "bad_owner"), std::invalid_argument);
  EXPECT_THROW(ShardStore(dir, 2, "has space"), std::invalid_argument);
  EXPECT_NO_THROW(CheckpointStore(dir, 2, "A-9.x"));
}

TEST(CheckpointStore, OwnerClaimAssignsDistinctNamespaces) {
  const std::string dir = fresh_dir("ckpt_claim");
  auto c1 = CheckpointOwnerClaim::claim(dir);
  EXPECT_TRUE(c1.active());
  EXPECT_EQ(c1.owner(), "");  // first claimant keeps the legacy bare names
  {
    auto c2 = CheckpointOwnerClaim::claim(dir);
    EXPECT_EQ(c2.owner(), "e1");
    auto c3 = CheckpointOwnerClaim::claim(dir);
    EXPECT_EQ(c3.owner(), "e2");
  }
  // c2/c3 released on scope exit; their namespaces are reusable.
  auto c4 = CheckpointOwnerClaim::claim(dir);
  EXPECT_EQ(c4.owner(), "e1");

  CheckpointOwnerClaim moved = std::move(c1);
  EXPECT_TRUE(moved.active());
  EXPECT_FALSE(c1.active());  // NOLINT(bugprone-use-after-move): deliberate
}

TEST(CheckpointStore, EngineAutoClaimAvoidsSharedDirCollision) {
  // Two engines configured with the SAME checkpoint dir (the default-config
  // trap this satellite fixes): each auto-claims its own namespace, so
  // neither clobbers or rotates away the other's snapshots.
  const std::string dir = fresh_dir("ckpt_shared_dir");
  auto cfg = base_config();
  cfg.resilience.checkpoint_interval = 1;
  cfg.resilience.checkpoint_dir = dir;
  cfg.resilience.checkpoint_keep = 3;
  GravityEngine sim1 = make_sim(cfg, test_bodies(300));
  GravityEngine sim2 = make_sim(cfg, test_bodies(400));
  sim1.run(2);
  sim2.run(3);
  ASSERT_NE(sim1.store(), nullptr);
  ASSERT_NE(sim2.store(), nullptr);
  EXPECT_NE(sim1.store()->owner(), sim2.store()->owner());
  EXPECT_EQ(sim1.store()->load_latest()->step, 2);
  EXPECT_EQ(sim2.store()->load_latest()->step, 3);
}

TEST(ShardStore, OwnerPrefixesAndIsolation) {
  const std::string dir = fresh_dir("shard_owner");
  GravityEngine sim = make_sim(base_config(), test_bodies(300));
  sim.step_once();
  ShardedCheckpoint ckpt;
  ckpt.global = sim.checkpoint();
  ckpt.cluster_blob = {1, 2, 3};
  ckpt.ranges = {{0, 150}, {150, 300}};

  ShardStore owned(dir, 2, "n0");
  EXPECT_EQ(owned.owner(), "n0");
  std::string error;
  ASSERT_TRUE(owned.save(ckpt, &error)) << error;
  ASSERT_EQ(owned.manifests().size(), 1u);
  EXPECT_EQ(fs::path(owned.manifests()[0]).filename().string().rfind(
                "n0_manifest_", 0),
            0u);

  ShardStore legacy(dir, 2);
  EXPECT_TRUE(legacy.manifests().empty());
  const auto back = owned.load_latest(&error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->global.step, 1);
  EXPECT_EQ(back->cluster_blob, ckpt.cluster_blob);
}

TEST(Checkpoint, SimulationStoreWritesOnCadence) {
  const std::string dir = fresh_dir("ckpt_sim_cadence");
  auto cfg = base_config();
  cfg.resilience.checkpoint_interval = 3;
  cfg.resilience.checkpoint_dir = dir;
  cfg.resilience.checkpoint_keep = 2;
  GravityEngine sim = make_sim(cfg, test_bodies(300));
  const auto recs = sim.run(7);
  // Snapshots after steps 3 and 6 (plus the initial seed, pruned to keep=2).
  EXPECT_TRUE(recs[2].checkpointed);
  EXPECT_TRUE(recs[5].checkpointed);
  EXPECT_FALSE(recs[6].checkpointed);
  ASSERT_NE(sim.store(), nullptr);
  EXPECT_EQ(sim.store()->files().size(), 2u);
  const auto latest = sim.store()->load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->step, 6);
}

// ---- wire format -----------------------------------------------------------
//
// The lengths and FNV-1a-64 fingerprints below were recorded from the
// encoders of checkpoint format v8 / shard format v5 / cluster blob v2. A
// change to any encoder that moves a byte fails here; a deliberate format
// change bumps the version and records new constants.

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ull;
  return h;
}

// A checkpoint with every field away from its default: the fired mark, the
// RNG words, the overlap fields, a collapsed node and a dead GPU all reach
// the wire.
SimCheckpoint every_field_set() {
  SimCheckpoint c;
  c.kind = SimKind::kStokes;
  c.step = 42;
  constexpr std::uint32_t n = 6;
  for (std::uint32_t i = 0; i < n; ++i) {
    const double x = 0.125 * (i + 1);
    c.bodies.positions.push_back({x, -x, 2 * x});
    c.bodies.velocities.push_back({-x, 3 * x, 0.5});
    c.bodies.masses.push_back(1.0 + x);
    c.accel.push_back({x * x, 1.0, -2.0});
    c.potential.push_back(-x);
  }
  for (std::uint32_t t = 0; t < n; ++t) {
    c.tree.perm.push_back((t * 5 + 1) % n);
    c.tree.sorted_pos.push_back(c.bodies.positions[c.tree.perm.back()]);
  }
  c.has_observed = true;
  ObservedStepTimes& o = c.observed;
  o.cpu_seconds = 0.5;
  o.gpu_seconds = 0.25;
  o.cpu_p2p_seconds = 0.125;
  o.transfer_retries = 3;
  o.overlap_seconds = 0.4375;
  o.overlap_cpu_seconds = 0.375;
  o.overlap_near_seconds = 0.40625;
  o.counts = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  o.t_p2m = 1e-3;
  o.t_m2m = 2e-3;
  o.t_m2l = 3e-3;
  o.t_l2l = 4e-3;
  o.t_l2p = 5e-3;

  c.tree.config.leaf_capacity = 3;
  c.tree.config.max_depth = 7;
  c.tree.config.root_center = {0.25, -0.5, 0.75};
  c.tree.config.root_half = 2.0;
  OctreeNode root;
  root.center = c.tree.config.root_center;
  root.half = c.tree.config.root_half;
  root.has_children = true;
  root.collapsed = true;  // its eight children are hidden
  root.count = n;
  c.tree.nodes.push_back(root);
  for (int o8 = 0; o8 < 8; ++o8) {
    OctreeNode kid;
    kid.center = child_box_center(root.center, root.half, o8);
    kid.half = root.half / 2;
    kid.parent = 0;
    kid.level = 1;
    kid.begin = o8 < 2 ? 3 * static_cast<std::uint32_t>(o8) : n;
    kid.count = o8 < 2 ? 3 : 0;
    c.tree.nodes[0].children[static_cast<std::size_t>(o8)] = o8 + 1;
    c.tree.nodes.push_back(kid);
  }

  LoadBalancerSnapshot& b = c.balancer;
  b.state = LbState::kObservation;
  b.S = 48;
  b.search_lo = 16;
  b.search_hi = 96;
  b.search_steps = 5;
  b.last_dominant = 1;
  b.best_compute = 0.75;
  b.reset_best_next = true;
  b.last_epoch = 7;
  b.epoch_pending = 2;
  CostCoefficients& k = b.model.coefficients;
  k = {1e-7, 2e-6, 3e-6, 4e-6, 5e-7, 6e-9, 7e-8, 0.9, 0.6, 1e-4};
  b.model.observations = 11;
  b.model.overlap_observations = 4;

  c.health.gpus = {{false, 1.0}, {true, 0.4}};
  c.health.cpu_cores_available = 6;
  c.health.cpu_cores_provisioned = 8;
  c.health.transfer_fault_prob = 0.3;
  c.health.transfer_seed = 0xfeedull;
  c.health.fault_epoch = 9;

  c.injector.next_event = 3;
  c.injector.transfer_window_end = 17;
  c.injector.num_events = 5;
  c.injector.fired_mark = 4;

  c.rng_words = {1, 2, 3, 0xffffffffffffffffull, 5, 6, 7, 8};
  return c;
}

TEST(WireFormat, CheckpointBytesAreUnchanged) {
  const auto bytes = encode_checkpoint(every_field_set());
  EXPECT_EQ(bytes.size(), 2170u);
  EXPECT_EQ(fnv1a(bytes), 6244022093949936885ull);
  // Every field decodes back into its own place.
  std::string error;
  const auto back = decode_checkpoint(bytes, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(encode_checkpoint(*back), bytes);
}

TEST(WireFormat, ShardSetBytesAreUnchanged) {
  const std::string dir = fresh_dir("wire_shard_set");
  ShardedCheckpoint sc;
  sc.global = every_field_set();
  sc.cluster_blob = {2, 0, 0, 0, 0xA5};
  sc.ranges = {{0, 2}, {2, 6}};
  ShardStore store(dir);
  std::string error;
  ASSERT_TRUE(store.save(sc, &error)) << error;
  // The manifest, then the shard files in order.
  std::vector<std::uint8_t> image;
  for (const char* name :
       {"manifest_0000000042.afms", "shard_0000000042_0000.afms",
        "shard_0000000042_0001.afms"}) {
    const auto bytes = ckpt::read_file((fs::path(dir) / name).string());
    ASSERT_TRUE(bytes.has_value()) << name;
    image.insert(image.end(), bytes->begin(), bytes->end());
  }
  EXPECT_EQ(image.size(), 2495u);
  EXPECT_EQ(fnv1a(image), 7937278073830744779ull);
  const auto back = store.load_latest(&error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(encode_checkpoint(back->global), encode_checkpoint(sc.global));
  EXPECT_EQ(back->cluster_blob, sc.cluster_blob);
}

TEST(WireFormat, ClusterBlobBytesAreUnchanged) {
  const EngineConfig cfg = base_config();
  ClusterConfig cc;
  cc.num_nodes = 3;
  cc.faults.node_link_faults(1, 1, 0.5, 4).node_crash(2, 2);
  ClusterEngine<GravityProblem> cluster(
      cfg, cc, GravityProblem(cfg.fmm, 1.0, 1e-3, default_node(),
                              test_bodies(400)));
  cluster.run(4);
  const auto blob = cluster.make_checkpoint().cluster_blob;
  EXPECT_EQ(blob.size(), 126u);
  EXPECT_EQ(fnv1a(blob), 5331204217317732826ull);
}

}  // namespace
}  // namespace afmm

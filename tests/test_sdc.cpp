// Silent-data-corruption resilience (sdc/): ABFT detection at every surface,
// surgical repair without rollback, the escalation ladder, and the
// fault-free bit-identity guarantee of detection itself.
//
// The repair tests all share one structure: a fault-free reference run and a
// corrupted run with detection armed must end in BIT-IDENTICAL states -- a
// repair that merely "looks close" is a miss, because the checksum proof the
// engine demands is byte equality with the clean computation.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/problems.hpp"
#include "dist/distributions.hpp"
#include "kernels/stokeslet.hpp"
#include "omp_threads.hpp"
#include "sdc/sdc.hpp"
#include "state/auditor.hpp"
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

// G = 1, softening 1e-3.
GravityEngine make_sim(const EngineConfig& cfg, ParticleSet bodies,
                       NodeSimulator node = default_node()) {
  return GravityEngine(cfg, GravityProblem(cfg.fmm, 1.0, 1e-3, std::move(node),
                                           std::move(bodies)));
}

// A sedimenting blob: epsilon 0.05, viscosity 1, unit downward force.
StokesProblem sedimenting(const EngineConfig& cfg, std::vector<Vec3> pos) {
  return StokesProblem(cfg.fmm, 0.05, 1.0, default_node(), std::move(pos),
                       constant_force({0, 0, -1}));
}

ParticleSet test_bodies(std::size_t n = 1200) {
  Rng rng(71);
  PlummerOptions opt;
  opt.scale_radius = 0.2;
  opt.velocity_scale = 0.5;
  return plummer(n, rng, opt);
}

void expect_same_bodies(const ParticleSet& a, const ParticleSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.positions[i], b.positions[i]) << "body " << i;
    EXPECT_EQ(a.velocities[i], b.velocities[i]) << "body " << i;
  }
}

// Runs a test at 1 and at 4 OpenMP threads: the P2P executor's threaded loop
// must keep SDC counts exact and bodies bit-identical.
class SdcThreads : public ::testing::TestWithParam<int> {
 protected:
  OmpThreads threads_{GetParam()};
};
INSTANTIATE_TEST_SUITE_P(Threads, SdcThreads, ::testing::Values(1, 4),
                         [](const auto& info) {
                           return std::to_string(info.param);
                         });

// The fault-free detection tests at 1 and 4 threads, with the sampled
// scalar re-evaluation on every 8th batch and on every batch
// (p2p_verify_stride = 1): one target of each sampled batch, rotating over
// the batch's targets (and so over every lane), is recomputed with the
// scalar accumulate() and compared bytewise with the lane routine's result,
// so stride 1 checks the lane routine on every batch of real engine steps.
class SdcDetection : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  OmpThreads threads_{std::get<0>(GetParam())};
  int verify_stride() const { return std::get<1>(GetParam()); }
};
INSTANTIATE_TEST_SUITE_P(
    ThreadsStride, SdcDetection,
    ::testing::Combine(::testing::Values(1, 4), ::testing::Values(8, 1)),
    [](const auto& info) {
      return std::to_string(std::get<0>(info.param)) + "threads_stride" +
             std::to_string(std::get<1>(info.param));
    });

struct SdcTally {
  int injected = 0, detected = 0, repaired = 0, unrepaired = 0;
  bool escalated = false;
  void add(const StepRecord& r) {
    injected += r.sdc_injected;
    detected += r.sdc_detected;
    repaired += r.sdc_repaired;
    unrepaired += r.sdc_unrepaired;
    escalated |= r.sdc_escalated;
  }
};

// ---- primitives ----------------------------------------------------------

TEST(Sdc, FlipDoubleBitKeepsValueFiniteForAnyBitArg) {
  // The bit argument is derived from truncated 64-bit seeds and may be any
  // int, including negative (regression: signed % used to land flips in the
  // low mantissa only). Every flip must stay finite and actually change the
  // value; a second identical flip must restore it exactly.
  for (int bit : {0, 1, 29, 30, 31, 61, 1 << 30, -1, -29, -123456789}) {
    double v = 0.28134829;
    const double orig = v;
    sdc_flip_double_bit(v, bit);
    EXPECT_TRUE(std::isfinite(v)) << "bit " << bit;
    EXPECT_NE(v, orig) << "bit " << bit;
    sdc_flip_double_bit(v, bit);
    EXPECT_EQ(v, orig) << "bit " << bit;
  }
}

TEST(Sdc, ChecksumCatchesEverySingleBitFlip) {
  std::vector<double> buf = {1.0, -0.5, 3.14159, 0.0, 1e-9};
  const std::uint64_t clean = fnv1a(buf.data(), buf.size() * sizeof(double));
  for (int bit : {0, 7, 31, 32, 44, 61}) {
    for (std::size_t i = 0; i < buf.size(); ++i) {
      std::vector<double> copy = buf;
      std::uint64_t u;
      std::memcpy(&u, &copy[i], sizeof u);
      u ^= 1ull << bit;
      std::memcpy(&copy[i], &u, sizeof u);
      EXPECT_NE(fnv1a(copy.data(), copy.size() * sizeof(double)), clean)
          << "element " << i << " bit " << bit;
    }
  }
}

TEST(Sdc, MomentumAuditTripsOnViolatedThirdLaw) {
  // An exactly action-reaction-balanced force set passes at any tolerance.
  std::vector<Vec3> accel = {{1, 2, -3}, {-1, -2, 3}, {5, 0, 1}, {-5, 0, -1}};
  std::vector<double> mass(4, 1.0);
  AuditReport healthy;
  audit_momentum(accel, mass, 1e-12, healthy);
  EXPECT_TRUE(healthy.ok()) << healthy.summary();

  // Halving one body's force (the shape a high-exponent bit flip produces)
  // breaks the sum.
  accel[2].x *= 0.5;
  AuditReport report;
  audit_momentum(accel, mass, 1e-3, report);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("momentum audit"), std::string::npos)
      << report.summary();
}

// ---- per-surface detection + surgical repair -----------------------------

TEST(Sdc, ExpansionCorruptionRepairedWithoutRollback) {
  const auto set = test_bodies();
  GravityEngine reference = make_sim(base_config(), set);
  reference.run(6);

  auto cfg = base_config();
  cfg.fmm.sdc.expansion_checks = true;
  cfg.faults.sdc_expansion(3);
  cfg.fault_seed = 7;
  GravityEngine sim = make_sim(cfg, set);
  SdcTally tally;
  for (int i = 0; i < 6; ++i) tally.add(sim.step_once());

  EXPECT_EQ(tally.injected, 1);
  EXPECT_EQ(tally.detected, 1);
  EXPECT_EQ(tally.repaired, 1);
  EXPECT_EQ(tally.unrepaired, 0);
  EXPECT_EQ(sim.rollbacks(), 0);
  expect_same_bodies(reference.problem().bodies(), sim.problem().bodies());
}

TEST_P(SdcThreads, GpuBatchCorruptionRepairedWithoutRollback) {
  const auto set = test_bodies();
  GravityEngine reference = make_sim(base_config(), set);
  reference.run(6);

  auto cfg = base_config();
  cfg.fmm.sdc.p2p_checks = true;
  cfg.faults.sdc_gpu_batch(3);
  cfg.fault_seed = 7;
  GravityEngine sim = make_sim(cfg, set);
  SdcTally tally;
  for (int i = 0; i < 6; ++i) tally.add(sim.step_once());

  EXPECT_EQ(tally.injected, 1);
  EXPECT_EQ(tally.detected, 1);
  EXPECT_EQ(tally.repaired, 1);
  EXPECT_EQ(tally.unrepaired, 0);
  EXPECT_EQ(sim.rollbacks(), 0);
  expect_same_bodies(reference.problem().bodies(), sim.problem().bodies());
}

TEST(Sdc, AccelBitFlipRepairedByReDerivation) {
  const auto set = test_bodies();
  GravityEngine reference = make_sim(base_config(), set);
  reference.run(6);

  // The flip lands AFTER the step's checksum refresh; the every-step audit
  // sees the mismatch and the repair rung re-derives accelerations from the
  // intact positions, proven against the stored checksum.
  auto cfg = base_config();
  cfg.faults.bit_flip(3);
  cfg.fault_seed = 7;
  cfg.resilience.audit.interval = 1;
  cfg.resilience.sdc_repair = true;
  GravityEngine sim = make_sim(cfg, set);
  SdcTally tally;
  for (int i = 0; i < 6; ++i) tally.add(sim.step_once());

  EXPECT_EQ(tally.injected, 1);
  EXPECT_EQ(tally.detected, 1);
  EXPECT_EQ(tally.repaired, 1);
  EXPECT_EQ(tally.unrepaired, 0);
  EXPECT_EQ(sim.rollbacks(), 0);
  EXPECT_EQ(sim.sdc_rollbacks(), 0);
  expect_same_bodies(reference.problem().bodies(), sim.problem().bodies());
}

TEST(Sdc, StokesBitFlipRepairedFromStoredSolve) {
  EngineConfig cfg;
  cfg.fmm.order = 4;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 8.0;
  cfg.dt = 1e-3;
  cfg.balancer.initial_S = 32;

  Rng rng(91);
  std::vector<Vec3> pos;
  while (pos.size() < 700) {
    Vec3 p{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    if (norm2(p) <= 1.0) pos.push_back(Vec3{0, 0, 4} + p);
  }

  StokesEngine reference(cfg, sedimenting(cfg, pos));
  reference.run(6);

  auto faulty_cfg = cfg;
  faulty_cfg.faults.bit_flip(3);
  faulty_cfg.fault_seed = 7;
  faulty_cfg.resilience.audit.interval = 1;
  faulty_cfg.resilience.sdc_repair = true;
  StokesEngine sim(faulty_cfg, sedimenting(faulty_cfg, pos));
  SdcTally tally;
  for (int i = 0; i < 6; ++i) tally.add(sim.step_once());

  EXPECT_EQ(tally.injected, 1);
  EXPECT_EQ(tally.detected, 1);
  EXPECT_EQ(tally.repaired, 1);
  EXPECT_EQ(tally.unrepaired, 0);
  EXPECT_EQ(sim.rollbacks(), 0);
  const StokesProblem& a = reference.problem();
  const StokesProblem& b = sim.problem();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(a.position_vector()[i], b.position_vector()[i]) << "body " << i;
    EXPECT_EQ(a.velocities()[i], b.velocities()[i]) << "body " << i;
  }
}

// ---- tripwires on primary state ------------------------------------------

TEST(Sdc, PrimaryStateCorruptionDetectedWithinOneAudit) {
  GravityEngine sim = make_sim(base_config(), test_bodies());
  sim.run(3);
  ASSERT_TRUE(sim.run_audit().ok());

  // One flipped mantissa bit in one velocity component: numerically tiny,
  // structurally invisible, caught only by the state checksum.
  sim.problem().corrupt_velocity_for_test(7);
  const auto report = sim.run_audit();
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("state checksum mismatch"),
            std::string::npos)
      << report.summary();
}

// ---- the escalation ladder -----------------------------------------------

// Mirrors bench/sdc_recovery's escalate arc at test size (n=1500, 8 steps,
// schedule seed 6 -- picked so the baked-in P2P corruption lands in a
// gradient bit big enough for the momentum tripwire). The batch corruption
// bakes into the integrated velocities because P2P checksums are off; the
// momentum audit trips, the derived-state repair is proven insufficient by
// the state checksum, and the ladder escalates to exactly one rollback --
// after which the replay (fired-mark: no re-fire) converges bit-identically.
TEST(Sdc, EscalationLadderRollsBackOnceAndConverges) {
  EngineConfig cfg;
  cfg.fmm.order = 3;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 8.0;
  cfg.balancer.initial_S = 64;
  cfg.dt = 1e-4;

  Rng rng(2013);
  PlummerOptions opt;
  opt.scale_radius = 1.0;
  opt.max_radius = 8.0;
  const auto set = plummer(1500, rng, opt);
  CpuModelConfig cpu;
  cpu.num_cores = 10;
  cpu.cores_per_socket = 6;
  auto node = [&] { return NodeSimulator(cpu, GpuSystemConfig::uniform(2)); };

  GravityEngine reference = make_sim(cfg, set, node());
  reference.run(8);

  auto esc = cfg;
  esc.fmm.sdc.expansion_checks = true;  // expansion flip still repaired
  esc.faults.sdc_expansion(2).bit_flip(4).sdc_gpu_batch(6);
  esc.fault_seed = 6;
  esc.resilience.audit.interval = 1;
  esc.resilience.audit.force_samples = 0;
  esc.resilience.audit.momentum_rel_tol = 1e-4;
  esc.resilience.checkpoint_interval = 2;
  esc.resilience.sdc_repair = true;
  GravityEngine sim = make_sim(esc, set, node());

  SdcTally tally;
  int rolled_back_steps = 0;
  int guard = 32;
  while (sim.steps_taken() < 8 && guard-- > 0) {
    const StepRecord rec = sim.step_once();
    tally.add(rec);
    if (rec.rolled_back) ++rolled_back_steps;
  }
  EXPECT_EQ(sim.steps_taken(), 8);
  EXPECT_EQ(tally.injected, 3);
  EXPECT_EQ(tally.detected, 3);
  EXPECT_EQ(tally.repaired, 2);   // expansion + accel flip repaired locally
  EXPECT_EQ(tally.unrepaired, 1);  // the baked batch corruption
  EXPECT_TRUE(tally.escalated);
  EXPECT_EQ(rolled_back_steps, 1);
  EXPECT_EQ(sim.sdc_rollbacks(), 1);
  expect_same_bodies(reference.problem().bodies(), sim.problem().bodies());
}

// ---- fault-free bit-identity of detection itself -------------------------

TEST_P(SdcDetection, DetectionOnFaultFreeGravityRunIsBitIdentical) {
  const auto set = test_bodies();

  // Same resilience cadence (audits, checkpoints) on both sides; the ONLY
  // difference is the SDC detectors. Detection must read, hash, compare --
  // and change nothing.
  auto off = base_config();
  off.obs.trace = true;
  off.obs.metrics = true;
  off.resilience.audit.interval = 1;
  off.resilience.checkpoint_interval = 2;
  GravityEngine plain = make_sim(off, set);

  auto on = off;
  on.fmm.sdc.expansion_checks = true;
  on.fmm.sdc.expansion_reaggregation = true;
  on.fmm.sdc.p2p_checks = true;
  on.fmm.sdc.p2p_verify_stride = verify_stride();
  on.resilience.audit.momentum_rel_tol = 1e-2;
  on.resilience.sdc_repair = true;
  GravityEngine armed = make_sim(on, set);

  const auto a = plain.run(8);
  const auto b = armed.run(8);
  EXPECT_EQ(armed.rollbacks(), 0);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(a[i].compute_seconds, b[i].compute_seconds) << "step " << i;
    EXPECT_EQ(a[i].S, b[i].S) << "step " << i;
    EXPECT_EQ(b[i].sdc_detected, 0) << "step " << i;
  }
  expect_same_bodies(plain.problem().bodies(), armed.problem().bodies());

  // Traces and metrics must also match byte for byte: detection adds no
  // events, no extra series values, no timing skew.
  const fs::path dir = fs::path(::testing::TempDir()) / "sdc_identity";
  fs::create_directories(dir);
  ASSERT_TRUE(plain.trace()->write_json_file((dir / "a.json").string()));
  ASSERT_TRUE(armed.trace()->write_json_file((dir / "b.json").string()));
  ASSERT_TRUE(plain.metrics()->write_csv_file((dir / "a.csv").string()));
  ASSERT_TRUE(armed.metrics()->write_csv_file((dir / "b.csv").string()));
  auto slurp = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  EXPECT_EQ(slurp(dir / "a.json"), slurp(dir / "b.json"));
  EXPECT_EQ(slurp(dir / "a.csv"), slurp(dir / "b.csv"));
}

TEST_P(SdcDetection, DetectionOnFaultFreeStokesRunIsBitIdentical) {
  EngineConfig cfg;
  cfg.fmm.order = 4;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 8.0;
  cfg.dt = 1e-3;
  cfg.balancer.initial_S = 32;

  Rng rng(92);
  std::vector<Vec3> pos;
  while (pos.size() < 600) {
    Vec3 p{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    if (norm2(p) <= 1.0) pos.push_back(Vec3{0, 0, 4} + 0.5 * p);
  }

  StokesEngine plain(cfg, sedimenting(cfg, pos));

  auto on = cfg;
  on.fmm.sdc.expansion_checks = true;
  on.fmm.sdc.p2p_checks = true;
  on.fmm.sdc.p2p_verify_stride = verify_stride();
  on.resilience.audit.interval = 1;
  on.resilience.audit.force_samples = 4;
  on.resilience.sdc_repair = true;
  StokesEngine armed(on, sedimenting(on, pos));

  plain.run(6);
  const auto recs = armed.run(6);
  for (const auto& r : recs) {
    EXPECT_FALSE(r.audit_failed);
    EXPECT_EQ(r.sdc_detected, 0);
  }
  const StokesProblem& a = plain.problem();
  const StokesProblem& b = armed.problem();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.position_vector()[i], b.position_vector()[i]) << "body " << i;
    EXPECT_EQ(a.velocities()[i], b.velocities()[i]) << "body " << i;
  }
}

// ---- halo payload checks (cluster/) --------------------------------------

TEST(Sdc, HaloPayloadCorruptionRepairedAtReceiver) {
  EngineConfig cfg;
  cfg.fmm.order = 4;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 8.0;
  cfg.balancer.initial_S = 32;
  cfg.dt = 1e-4;
  const auto set = test_bodies();
  auto make_problem = [&] {
    return GravityProblem(cfg.fmm, 1.0, 1e-3, default_node(), set);
  };

  ClusterConfig healthy;
  healthy.num_nodes = 2;
  ClusterEngine<GravityProblem> reference(cfg, healthy, make_problem());
  const auto ref_recs = reference.run(8);

  ClusterConfig cc;
  cc.num_nodes = 2;
  cc.faults.sdc_halo_payload(3);
  cc.fault_seed = 7;
  ClusterEngine<GravityProblem> cluster(cfg, cc, make_problem());
  int injected = 0, detected = 0, repaired = 0;
  double repair_seconds = 0.0;
  const auto recs = cluster.run(8);
  for (const auto& r : recs) {
    injected += r.sdc_injected;
    detected += r.sdc_detected;
    repaired += r.sdc_repaired;
    repair_seconds += r.sdc_repair_seconds;
  }
  EXPECT_EQ(injected, 1);
  EXPECT_EQ(detected, 1);
  EXPECT_EQ(repaired, 1);
  EXPECT_GT(repair_seconds, 0.0);  // the re-request is charged to the halo
  EXPECT_EQ(recs[3].halo_seconds,
            ref_recs[3].halo_seconds + recs[3].sdc_repair_seconds);
  expect_same_bodies(reference.engine().problem().bodies(),
                     cluster.engine().problem().bodies());
}

}  // namespace
}  // namespace afmm

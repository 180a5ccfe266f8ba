// SimulationEngine seam tests (core/engine.hpp):
//
//   * the committed golden dump proves the engine extraction left gravity
//     trajectories, StepRecords, trace bytes and metric rows bit-identical
//     to the pre-refactor GravitySimulation;
//   * Stokes runs the same resilience loop as gravity (audit failure and
//     watchdog trips roll back to the last good checkpoint and re-enter
//     Search);
//   * Stokes observability is read-only (obs on/off trajectories match
//     bit-for-bit) and deterministic (two obs-on runs emit identical bytes);
//   * StepRecord parity: both problems populate the prediction / resilience
//     fields on the same cadence, so downstream consumers (benches, the step
//     emitter) need no per-problem cases.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "core/stokes_simulation.hpp"
#include "dist/distributions.hpp"
#include "golden_gravity.hpp"
#include "util/rng.hpp"

namespace afmm {
namespace {

std::string golden_path() {
  return std::string(AFMM_GOLDEN_DIR) + "/gravity_short.golden";
}

// First line where the two dumps disagree, for a readable failure message.
std::string first_diff(const std::string& a, const std::string& b) {
  std::istringstream sa(a), sb(b);
  std::string la, lb;
  int line = 1;
  while (true) {
    const bool ga = static_cast<bool>(std::getline(sa, la));
    const bool gb = static_cast<bool>(std::getline(sb, lb));
    if (!ga && !gb) return "(no differing line found)";
    if (la != lb || ga != gb)
      return "line " + std::to_string(line) + ":\n  golden: " +
             (ga ? la : "<eof>") + "\n  got:    " + (gb ? lb : "<eof>");
    ++line;
  }
}

TEST(Engine, GravityGoldenTrajectoryIsBitIdentical) {
  const std::string got = golden::golden_dump();

  if (std::getenv("AFMM_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << golden_path();
    out << got;
    GTEST_SKIP() << "regenerated " << golden_path();
  }

  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in) << "missing " << golden_path()
                  << " (run with AFMM_REGEN_GOLDEN=1 to create it)";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string expect = buf.str();

  // Byte equality covers every StepRecord field (hexfloat), the full final
  // phase space, the trace JSON fingerprint and the metric rows -- one ULP
  // of drift anywhere fails. Compare fingerprints first so a mismatch
  // reports a single readable line instead of 60 kB of dump.
  ASSERT_FALSE(expect.empty());
  EXPECT_EQ(golden::fnv1a(got), golden::fnv1a(expect))
      << "first divergence at " << first_diff(expect, got);
  EXPECT_TRUE(got == expect);
}

std::vector<Vec3> blob(Rng& rng, int n, const Vec3& center, double radius) {
  std::vector<Vec3> pos;
  while (static_cast<int>(pos.size()) < n) {
    Vec3 p{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    if (norm2(p) <= 1.0) pos.push_back(center + radius * p);
  }
  return pos;
}

StokesSimulationConfig stokes_config() {
  StokesSimulationConfig cfg;
  cfg.fmm.order = 3;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 8.0;
  cfg.epsilon = 0.05;
  cfg.viscosity = 1.0;
  cfg.dt = 1e-3;
  cfg.balancer.initial_S = 32;
  return cfg;
}

StokesSimulation stokes_sim(const StokesSimulationConfig& cfg,
                            unsigned seed = 93) {
  Rng rng(seed);
  auto pos = blob(rng, 500, {0, 0, 3}, 1.0);
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));
  return StokesSimulation(cfg, std::move(node), std::move(pos),
                          constant_force({0, 0, -1}));
}

TEST(Engine, OverlapExecutionIsTrajectoryInvariant) {
  // The overlap executor is a pure re-timing of the step: with the balancer
  // pinned (degenerate Search bracket + static strategy, so S can never
  // react to the changed virtual clock), the overlap-on run must reproduce
  // the overlap-off trajectory bit for bit, while the *.seconds series
  // visibly changes.
  auto make = [](OverlapMode mode) {
    SimulationConfig cfg = golden::golden_config();
    cfg.balancer.strategy = LbStrategy::kStatic;
    cfg.balancer.min_S = cfg.balancer.initial_S;
    cfg.balancer.max_S = cfg.balancer.initial_S;
    cfg.obs.trace = false;
    cfg.obs.metrics = false;
    Rng rng(2026);
    auto bodies = uniform_cube(400, rng, {0.5, 0.5, 0.5}, 0.5);
    NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));
    node.set_overlap(mode);
    return GravitySimulation(cfg, std::move(node), std::move(bodies));
  };
  GravitySimulation off = make(OverlapMode::kOff);
  GravitySimulation on = make(OverlapMode::kOn);
  bool compute_differed = false;
  for (int i = 0; i < golden::kGoldenSteps; ++i) {
    const StepRecord a = off.step();
    const StepRecord b = on.step();
    ASSERT_EQ(a.S, b.S) << "step " << i;
    ASSERT_EQ(a.cpu_fallback, b.cpu_fallback) << "step " << i;
    // The far-field makespan and GPU kernel time are schedule-independent.
    EXPECT_EQ(a.cpu_seconds, b.cpu_seconds) << "step " << i;
    EXPECT_EQ(a.gpu_seconds, b.gpu_seconds) << "step " << i;
    if (a.compute_seconds != b.compute_seconds) compute_differed = true;
  }
  EXPECT_TRUE(compute_differed)
      << "overlap execution never changed the virtual step time";
  const auto& pa = off.bodies().positions;
  const auto& pb = on.bodies().positions;
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i].x, pb[i].x) << "body " << i;
    ASSERT_EQ(pa[i].y, pb[i].y) << "body " << i;
    ASSERT_EQ(pa[i].z, pb[i].z) << "body " << i;
  }
  const auto& va = off.bodies().velocities;
  const auto& vb = on.bodies().velocities;
  for (std::size_t i = 0; i < va.size(); ++i) {
    ASSERT_EQ(va[i].x, vb[i].x) << "body " << i;
    ASSERT_EQ(va[i].y, vb[i].y) << "body " << i;
    ASSERT_EQ(va[i].z, vb[i].z) << "body " << i;
  }
}

TEST(Engine, StokesAuditFailureRollsBackAndReSearches) {
  auto cfg = stokes_config();
  cfg.resilience.checkpoint_interval = 4;
  cfg.resilience.audit.interval = 1;
  auto sim = stokes_sim(cfg);
  sim.run(6);
  ASSERT_EQ(sim.rollbacks(), 0);
  ASSERT_TRUE(sim.run_audit().ok());

  // Silent structural corruption: the solve still runs (nothing reads the
  // parent link), but the end-of-step audit catches it and recovers.
  sim.corrupt_tree_for_test();
  const auto rec = sim.step();
  EXPECT_TRUE(rec.audited);
  EXPECT_TRUE(rec.audit_failed);
  EXPECT_TRUE(rec.rolled_back);
  EXPECT_GE(rec.restored_step, 0);
  EXPECT_EQ(sim.rollbacks(), 1);
  // Rollback re-enters Search so the balancer re-learns the machine --
  // identical policy to the gravity path (tests/test_auditor.cpp).
  EXPECT_EQ(sim.balancer().state(), LbState::kSearch);
  // The restored state is clean and the run continues healthily.
  EXPECT_TRUE(sim.run_audit().ok());
  for (const auto& r : sim.run(3)) {
    EXPECT_FALSE(r.audit_failed);
    EXPECT_FALSE(r.rolled_back);
  }
}

TEST(Engine, StokesWatchdogTripRollsBack) {
  // The acceptance scenario: observability AND a fault schedule on while the
  // watchdog trips -- the run must survive the rollback and keep emitting a
  // well-formed trace.
  auto cfg = stokes_config();
  cfg.resilience.checkpoint_interval = 4;
  // Impossible virtual budget: every step trips deterministically.
  cfg.resilience.watchdog.virtual_limit_seconds = 1e-12;
  // At step 0: every later step is rolled back to step 0, so the injector
  // (restored with each rollback) replays exactly this event each time.
  cfg.faults.gpu_throttle(0, 0, 0.5);
  cfg.obs.trace = true;
  cfg.obs.metrics = true;
  auto sim = stokes_sim(cfg);
  const auto rec = sim.step();
  EXPECT_TRUE(rec.watchdog_tripped);
  EXPECT_TRUE(rec.rolled_back);
  EXPECT_EQ(rec.restored_step, 0);
  EXPECT_EQ(sim.rollbacks(), 1);
  EXPECT_EQ(sim.balancer().state(), LbState::kSearch);

  // The run survives repeated trip + rollback cycles.
  for (const auto& r : sim.run(4)) {
    EXPECT_TRUE(r.watchdog_tripped);
    EXPECT_TRUE(r.rolled_back);
  }
  // The trace recorded the whole ordeal: step spans, rollback markers on the
  // state track, and the injected fault instants.
  ASSERT_NE(sim.trace(), nullptr);
  bool saw_state = false, saw_fault = false, saw_step = false;
  for (const auto& e : sim.trace()->events()) {
    saw_state |= e.cat == "state";
    saw_fault |= e.cat == "fault";
    saw_step |= e.cat == "step";
  }
  EXPECT_TRUE(saw_step);
  EXPECT_TRUE(saw_state);
  EXPECT_TRUE(saw_fault);
  const std::string json = sim.trace()->to_json();
  EXPECT_GT(json.size(), 2u);
  ASSERT_NE(sim.metrics(), nullptr);
  EXPECT_FALSE(sim.metrics()->rows().empty());
}

TEST(Engine, StokesObservabilityIsReadOnlyAndDeterministic) {
  constexpr int kSteps = 8;
  auto plain_cfg = stokes_config();
  auto obs_cfg = plain_cfg;
  obs_cfg.obs.trace = true;
  obs_cfg.obs.metrics = true;

  auto plain = stokes_sim(plain_cfg);
  auto obs_a = stokes_sim(obs_cfg);
  auto obs_b = stokes_sim(obs_cfg);
  const auto rec_plain = plain.run(kSteps);
  const auto rec_a = obs_a.run(kSteps);
  obs_b.run(kSteps);

  // Observation never perturbs the run: positions and the balancer's S
  // series match the obs-off run bit-for-bit.
  ASSERT_EQ(plain.positions().size(), obs_a.positions().size());
  for (std::size_t i = 0; i < plain.positions().size(); ++i) {
    EXPECT_EQ(plain.positions()[i].x, obs_a.positions()[i].x);
    EXPECT_EQ(plain.positions()[i].y, obs_a.positions()[i].y);
    EXPECT_EQ(plain.positions()[i].z, obs_a.positions()[i].z);
  }
  for (int i = 0; i < kSteps; ++i) {
    EXPECT_EQ(rec_plain[i].S, rec_a[i].S);
    EXPECT_EQ(rec_plain[i].state, rec_a[i].state);
    EXPECT_EQ(rec_plain[i].compute_seconds, rec_a[i].compute_seconds);
  }
  EXPECT_EQ(plain.trace(), nullptr);
  EXPECT_EQ(plain.metrics(), nullptr);

  // ... and two obs-on runs emit byte-identical traces and metric rows
  // (virtual-time clocks only), mirroring tests/test_obs.cpp for gravity.
  ASSERT_NE(obs_a.trace(), nullptr);
  ASSERT_NE(obs_b.trace(), nullptr);
  EXPECT_EQ(obs_a.trace()->to_json(), obs_b.trace()->to_json());
  const auto& rows_a = obs_a.metrics()->rows();
  const auto& rows_b = obs_b.metrics()->rows();
  ASSERT_EQ(rows_a.size(), rows_b.size());
  for (std::size_t i = 0; i < rows_a.size(); ++i) {
    EXPECT_EQ(rows_a[i].step, rows_b[i].step);
    EXPECT_EQ(rows_a[i].metric, rows_b[i].metric);
    EXPECT_EQ(rows_a[i].value, rows_b[i].value);
  }
  EXPECT_EQ(obs_a.virtual_now(), obs_b.virtual_now());
  EXPECT_GT(obs_a.virtual_now(), 0.0);
}

TEST(Engine, DeferredPrepareIsBitIdenticalToEager) {
  // The resumable seam: a deferred engine that is then stepped must produce
  // the eager constructor's trajectory bit for bit, and prepare() must be
  // idempotent.
  constexpr int kSteps = 6;
  SimulationConfig cfg;
  cfg.fmm.order = 3;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 16.0;
  cfg.balancer.initial_S = 16;
  cfg.dt = 1e-3;
  Rng rng(17);
  const auto set = plummer(200, rng);
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));

  SimulationEngine<GravityProblem> eager(
      cfg, GravityProblem(cfg.fmm, 1.0, 1e-2, node, set));
  EXPECT_TRUE(eager.prepared());
  const auto ref = eager.run(kSteps);

  SimulationEngine<GravityProblem> lazy(
      DeferredInit{}, cfg, GravityProblem(cfg.fmm, 1.0, 1e-2, node, set));
  EXPECT_FALSE(lazy.prepared());
  lazy.prepare();
  EXPECT_TRUE(lazy.prepared());
  lazy.prepare();  // idempotent
  std::vector<StepRecord> got;
  for (int i = 0; i < kSteps; ++i) got.push_back(lazy.step_once());

  for (int i = 0; i < kSteps; ++i) {
    EXPECT_EQ(ref[i].step, got[i].step);
    EXPECT_EQ(ref[i].compute_seconds, got[i].compute_seconds);
    EXPECT_EQ(ref[i].lb_seconds, got[i].lb_seconds);
    EXPECT_EQ(ref[i].S, got[i].S);
    EXPECT_EQ(ref[i].state, got[i].state);
    EXPECT_EQ(ref[i].predicted_far_seconds, got[i].predicted_far_seconds);
  }
  const auto& pa = eager.problem().bodies().positions;
  const auto& pb = lazy.problem().bodies().positions;
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].x, pb[i].x);
    EXPECT_EQ(pa[i].y, pb[i].y);
    EXPECT_EQ(pa[i].z, pb[i].z);
  }
}

TEST(Engine, PredictedStepSecondsTracksCostModel) {
  SimulationConfig cfg;
  cfg.fmm.order = 3;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 16.0;
  cfg.balancer.initial_S = 16;
  Rng rng(18);
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));
  SimulationEngine<GravityProblem> eng(
      DeferredInit{}, cfg, GravityProblem(cfg.fmm, 1.0, 1e-2, node,
                                          plummer(200, rng)));
  // Nominal before prepare, then positive and deterministic.
  EXPECT_GT(eng.predicted_step_seconds(), 0.0);
  eng.run(4);
  const double f1 = eng.predicted_step_seconds();
  const double f2 = eng.predicted_step_seconds();
  EXPECT_GT(f1, 0.0);
  EXPECT_EQ(f1, f2);  // pure forecast: no state advanced
}

TEST(Engine, ExternalObsMatchesOwnSinksByteForByte) {
  // Routing obs to caller-owned sinks (what the service does) must emit the
  // exact bytes the engine-owned sinks would have: same trace JSON, same
  // metric rows, same trajectory.
  constexpr int kSteps = 6;
  auto own_cfg = stokes_config();
  own_cfg.obs.trace = true;
  own_cfg.obs.metrics = true;
  auto own = stokes_sim(own_cfg);
  own.run(kSteps);

  auto ext_cfg = stokes_config();  // obs off in config; sinks attached below
  Rng rng(93);
  auto pos = blob(rng, 500, {0, 0, 3}, 1.0);
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));
  SimulationEngine<StokesProblem> ext(
      DeferredInit{}, ext_cfg,
      StokesProblem(ext_cfg.fmm, ext_cfg.epsilon, ext_cfg.viscosity, node,
                    pos, constant_force({0, 0, -1})));
  TraceRecorder trace;
  MetricsRegistry metrics;
  ext.set_external_obs(&trace, &metrics);
  for (int i = 0; i < kSteps; ++i) ext.step_once();

  ASSERT_NE(own.trace(), nullptr);
  EXPECT_EQ(own.trace()->to_json(), trace.to_json());
  const auto& rows_a = own.metrics()->rows();
  const auto& rows_b = metrics.rows();
  ASSERT_EQ(rows_a.size(), rows_b.size());
  for (std::size_t i = 0; i < rows_a.size(); ++i) {
    EXPECT_EQ(rows_a[i].metric, rows_b[i].metric);
    EXPECT_EQ(rows_a[i].value, rows_b[i].value);
  }
}

TEST(Engine, TenantLabelPrefixesTracksAndMetrics) {
  auto cfg = stokes_config();
  auto sim_engine = [&cfg]() {
    Rng rng(93);
    auto pos = blob(rng, 300, {0, 0, 3}, 1.0);
    NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));
    return SimulationEngine<StokesProblem>(
        DeferredInit{}, cfg,
        StokesProblem(cfg.fmm, cfg.epsilon, cfg.viscosity, node, pos,
                      constant_force({0, 0, -1})));
  };
  auto eng = sim_engine();
  TraceRecorder trace;
  MetricsRegistry metrics;
  eng.set_external_obs(&trace, &metrics, "t1");
  eng.step_once();
  EXPECT_EQ(eng.tenant(), "t1");
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("t1/step"), std::string::npos);
  EXPECT_NE(json.find("t1/tree"), std::string::npos);
  for (const auto& row : metrics.rows())
    EXPECT_EQ(row.metric.rfind("tenant.t1.", 0), 0u) << row.metric;

  // Attachment is first-step-only, and tenant shares the owner charset.
  EXPECT_THROW(eng.set_external_obs(&trace, &metrics, "t1"),
               std::logic_error);
  auto eng2 = sim_engine();
  EXPECT_THROW(eng2.set_external_obs(&trace, &metrics, "bad tenant"),
               std::invalid_argument);
}

TEST(Engine, StepRecordParityAcrossProblems) {
  // Both problems run with the same engine cadence; the records they produce
  // must populate the shared fields alike -- the gap this closes is Stokes
  // historically dropping predictions and resilience bookkeeping.
  constexpr int kSteps = 10;
  ResilienceConfig cadence;
  cadence.checkpoint_interval = 4;
  cadence.audit.interval = 2;
  cadence.audit.force_samples = 0;  // cadence parity, not physics

  SimulationConfig gcfg;
  gcfg.fmm.order = 3;
  gcfg.tree.root_center = {0.5, 0.5, 0.5};
  gcfg.tree.root_half = 0.5;
  gcfg.balancer.initial_S = 32;
  gcfg.resilience = cadence;
  Rng grng(2026);
  auto bodies = uniform_cube(400, grng, {0.5, 0.5, 0.5}, 0.5);
  NodeSimulator gnode(CpuModelConfig{}, GpuSystemConfig::uniform(2));
  GravitySimulation grav(gcfg, std::move(gnode), std::move(bodies));

  auto scfg = stokes_config();
  scfg.resilience = cadence;
  auto stokes = stokes_sim(scfg);

  const auto g = grav.run(kSteps);
  const auto s = stokes.run(kSteps);
  ASSERT_EQ(g.size(), s.size());
  bool any_predictions = false;
  for (int i = 0; i < kSteps; ++i) {
    EXPECT_EQ(g[i].step, s[i].step) << "step " << i;
    // Resilience bookkeeping follows the shared cadence, not the problem.
    EXPECT_EQ(g[i].audited, s[i].audited) << "step " << i;
    EXPECT_EQ(g[i].checkpointed, s[i].checkpointed) << "step " << i;
    EXPECT_FALSE(s[i].audit_failed) << "step " << i;
    EXPECT_FALSE(s[i].watchdog_tripped) << "step " << i;
    EXPECT_FALSE(s[i].rolled_back) << "step " << i;
    EXPECT_EQ(g[i].restored_step, s[i].restored_step) << "step " << i;
    // Both problems prime with an initial solve, so the cost model becomes
    // ready on the same step for both and predictions appear together.
    EXPECT_EQ(g[i].predicted_far_seconds > 0.0,
              s[i].predicted_far_seconds > 0.0)
        << "step " << i;
    EXPECT_EQ(g[i].predicted_near_seconds > 0.0,
              s[i].predicted_near_seconds > 0.0)
        << "step " << i;
    any_predictions |= s[i].predicted_far_seconds > 0.0;
    // Health/fault fields are populated (healthy machine, 2 GPUs) for both.
    EXPECT_EQ(s[i].alive_gpus, 2) << "step " << i;
    EXPECT_GT(s[i].gpu_capability, 0.0) << "step " << i;
    EXPECT_GT(s[i].effective_cores, 0) << "step " << i;
  }
  EXPECT_TRUE(any_predictions);

  // Drift guard: adding a StepRecord field changes this size; extend the
  // parity checks above (and golden_gravity.hpp's dump) when it fires.
  struct Expected {
    int step;
    double a, b, c, d;
    int S;
    LbState state;
    bool rebuilt;
    int enforce_ops, fgo_ops;
    SolveStats stats;
    int faults_fired, alive_gpus;
    double gpu_capability;
    int effective_cores;
    bool capability_shift, cpu_fallback;
    int transfer_retries;
    double pfar, pnear;
    bool audited, audit_failed, watchdog_tripped, rolled_back;
    int restored_step;
    bool checkpointed;
    int sdc_injected, sdc_detected, sdc_repaired, sdc_unrepaired;
    bool sdc_escalated;
  };
  static_assert(sizeof(StepRecord) == sizeof(Expected),
                "StepRecord changed: update the parity test and golden dump");
}

}  // namespace
}  // namespace afmm

// Multi-tenant simulation service tests (service/):
//
//   * multiplexed sessions -- gravity and Stokes mixed, with and without a
//     fault schedule -- produce trajectories, StepRecords and metric rows
//     bit-identical to the same session run alone, INCLUDING across
//     evict->restore cycles through the session-namespaced CheckpointStore;
//   * the DRR scheduler enforces quotas: grants only when the deficit covers
//     the cost-model forecast, exact debiting, and long-run machine-time
//     shares proportional to priority for backlogged tenants;
//   * idle sessions are evicted on the configured cadence and restored
//     transparently on the next touch;
//   * the shared machine clock hands out exclusive occupancy in execution
//     order and accounts per-owner busy time;
//   * one trace spans all tenants ("<name>/*" tracks + "service" lifecycle
//     instants) and per-session metric rows carry the tenant prefix.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/problems.hpp"
#include "core/simulation.hpp"
#include "core/stokes_simulation.hpp"
#include "dist/distributions.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"

namespace afmm {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = (fs::path(::testing::TempDir()) / name).string();
  fs::remove_all(dir);
  return dir;
}

NodeSimulator small_node() {
  CpuModelConfig cpu;
  cpu.num_cores = 4;
  return NodeSimulator(cpu, GpuSystemConfig::uniform(1));
}

SessionFactory gravity_factory(unsigned seed, std::size_t n = 64,
                               FaultSchedule faults = {}) {
  SimulationConfig cfg;
  cfg.fmm.order = 3;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 16.0;
  cfg.balancer.initial_S = 16;
  cfg.dt = 1e-3;
  cfg.faults = faults;
  Rng rng(seed);
  return gravity_session_factory(cfg, 1.0, 1e-2, small_node(),
                                 plummer(n, rng));
}

SessionFactory stokes_factory(unsigned seed, std::size_t n = 64) {
  StokesSimulationConfig cfg;
  cfg.fmm.order = 3;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 2.0;
  cfg.balancer.initial_S = 16;
  cfg.dt = 1e-3;
  Rng rng(seed);
  auto set = uniform_cube(n, rng, {0, 0, 0}, 1.0);
  return stokes_session_factory(cfg, 0.05, 1.0, small_node(),
                                std::move(set.positions),
                                constant_force({0, 0, -1}));
}

void expect_same_record(const StepRecord& a, const StepRecord& b,
                        const std::string& who, int i) {
  EXPECT_EQ(a.step, b.step) << who << " step " << i;
  EXPECT_EQ(a.compute_seconds, b.compute_seconds) << who << " step " << i;
  EXPECT_EQ(a.cpu_seconds, b.cpu_seconds) << who << " step " << i;
  EXPECT_EQ(a.gpu_seconds, b.gpu_seconds) << who << " step " << i;
  EXPECT_EQ(a.lb_seconds, b.lb_seconds) << who << " step " << i;
  EXPECT_EQ(a.S, b.S) << who << " step " << i;
  EXPECT_EQ(a.state, b.state) << who << " step " << i;
  EXPECT_EQ(a.rebuilt, b.rebuilt) << who << " step " << i;
  EXPECT_EQ(a.faults_fired, b.faults_fired) << who << " step " << i;
  EXPECT_EQ(a.predicted_far_seconds, b.predicted_far_seconds)
      << who << " step " << i;
  EXPECT_EQ(a.predicted_near_seconds, b.predicted_near_seconds)
      << who << " step " << i;
}

// Drive `steps` steps of one session through a service configured to evict
// aggressively, then check trajectory + records + metric rows against a solo
// replay of the identical factory.
void check_solo_identity(const std::string& tag, SessionFactory factory,
                         int steps) {
  ServiceConfig sc;
  sc.quantum_seconds = 1.0;  // affordability never throttles this test
  sc.idle_evict_rounds = 1;
  sc.checkpoint_dir = fresh_dir("svc_identity_" + tag);
  sc.metrics = true;
  SimulationService service(sc);
  service.admit(tag, factory);

  // Bursts of 2 with idle rounds between them, so the session goes through
  // several evict->restore cycles mid-trajectory.
  int taken = 0;
  while (taken < steps) {
    const int burst = std::min(2, steps - taken);
    service.request_steps(tag, burst);
    service.run_until_idle();
    taken += burst;
    service.run_round();  // idle round: eviction cadence fires
    service.run_round();
  }
  EXPECT_GE(service.evictions(), 2);
  EXPECT_GE(service.restores(), 1);
  EXPECT_TRUE(service.evicted(tag));  // idle at the end -> spilled

  // Solo replay with the same tenant label into a private registry: rows
  // must match the service session's registry bit for bit, because that
  // registry deliberately survives eviction.
  auto solo = factory.fresh();
  MetricsRegistry solo_reg;
  solo->set_external_obs(nullptr, &solo_reg, tag);
  std::vector<StepRecord> solo_records;
  for (int k = 0; k < steps; ++k) solo_records.push_back(solo->step_once());

  EXPECT_EQ(service.state_fingerprint(tag), solo->state_fingerprint());
  EXPECT_TRUE(service.resident(tag));  // the fingerprint read restored it

  const auto& svc_records = service.records(tag);
  ASSERT_EQ(svc_records.size(), solo_records.size());
  for (int i = 0; i < steps; ++i)
    expect_same_record(svc_records[static_cast<std::size_t>(i)],
                       solo_records[static_cast<std::size_t>(i)], tag, i);

  ASSERT_NE(service.session_metrics(tag), nullptr);
  const auto& svc_rows = service.session_metrics(tag)->rows();
  const auto& solo_rows = solo_reg.rows();
  ASSERT_EQ(svc_rows.size(), solo_rows.size());
  for (std::size_t i = 0; i < svc_rows.size(); ++i) {
    EXPECT_EQ(svc_rows[i].step, solo_rows[i].step);
    EXPECT_EQ(svc_rows[i].metric, solo_rows[i].metric);
    // cache.* gauges mirror the interaction-list cache, which is honestly
    // COLD after a restore (lists are rebuilt, not checkpointed) -- the one
    // instrumentation surface allowed to differ from the solo run. Physics,
    // balancing, health and resilience rows must match bit for bit.
    if (svc_rows[i].metric.find(".cache.") == std::string::npos) {
      EXPECT_EQ(svc_rows[i].value, solo_rows[i].value) << svc_rows[i].metric;
    }
    EXPECT_EQ(svc_rows[i].metric.rfind("tenant." + tag + ".", 0), 0u)
        << svc_rows[i].metric;
  }
}

TEST(Service, GravitySessionIsBitIdenticalToSoloAcrossEviction) {
  check_solo_identity("grav", gravity_factory(11), 8);
}

TEST(Service, StokesSessionIsBitIdenticalToSoloAcrossEviction) {
  check_solo_identity("stokes", stokes_factory(12), 8);
}

TEST(Service, FaultedSessionIsBitIdenticalToSoloAcrossEviction) {
  FaultSchedule faults;
  faults.gpu_throttle(2, 0, 0.5).gpu_loss(5, 0);
  check_solo_identity("chaos", gravity_factory(13, 64, faults), 8);
}

TEST(Service, MultiplexedSessionsDoNotPerturbEachOther) {
  // Three concurrent tenants, interleaved on one timeline: each must still
  // match its solo fingerprint (the tentpole's core promise).
  ServiceConfig sc;
  sc.quantum_seconds = 1.0;
  sc.idle_evict_rounds = 0;  // keep resident; eviction covered elsewhere
  SimulationService service(sc);
  const char* names[] = {"g1", "g2", "st"};
  SessionFactory factories[] = {gravity_factory(21), gravity_factory(22),
                                stokes_factory(23)};
  for (int i = 0; i < 3; ++i) service.admit(names[i], factories[i]);
  for (int i = 0; i < 3; ++i) service.request_steps(names[i], 6);
  service.run_until_idle();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(service.steps_run(names[i]), 6);
    auto solo = factories[i].fresh();
    for (int k = 0; k < 6; ++k) solo->step_once();
    EXPECT_EQ(service.state_fingerprint(names[i]), solo->state_fingerprint())
        << names[i];
  }
  // The shared clock accounted every executed step exclusively.
  EXPECT_EQ(service.clock().occupancy().size(), service.history().size());
  EXPECT_EQ(service.clock().utilization(), 1.0);
}

TEST(Service, DrrGrantsOnlyWithinDeficitAndSharesByPriority) {
  ServiceConfig sc;
  sc.quantum_seconds = 5e-5;  // small quantum => real contention
  SimulationService service(sc);
  // Identical recipes, so per-step cost matches and the machine-second
  // shares are directly comparable.
  service.admit("lo", gravity_factory(31), SessionOptions{1});
  service.admit("hi", gravity_factory(31), SessionOptions{3});
  service.request_steps("lo", 4000);
  service.request_steps("hi", 4000);
  for (int r = 0; r < 150; ++r) service.run_round();
  // Both still backlogged: the scheduler, not demand, set the shares.
  ASSERT_GT(service.pending_steps("lo"), 0);
  ASSERT_GT(service.pending_steps("hi"), 0);
  EXPECT_EQ(service.quota_violations(), 0);

  double lo_s = 0.0, hi_s = 0.0;
  for (const ExecutedStep& e : service.history()) {
    EXPECT_GE(e.deficit_before, e.predicted);  // every grant was affordable
    (e.session == "lo" ? lo_s : hi_s) += e.seconds;
  }
  ASSERT_GT(lo_s, 0.0);
  // Weighted fairness: the priority-3 tenant gets ~3x the machine seconds,
  // up to one step's granularity on each side.
  EXPECT_GT(hi_s / lo_s, 2.0);
  EXPECT_LT(hi_s / lo_s, 4.0);
  EXPECT_EQ(service.clock().owner_seconds("lo"), lo_s);
  EXPECT_EQ(service.clock().owner_seconds("hi"), hi_s);
}

TEST(Service, IdleEvictionSweepsOnCadenceAndRestoresTransparently) {
  ServiceConfig sc;
  sc.quantum_seconds = 1.0;
  sc.idle_evict_rounds = 2;
  sc.checkpoint_dir = fresh_dir("svc_idle_evict");
  SimulationService service(sc);
  service.admit("a", gravity_factory(41));
  service.request_steps("a", 3);
  service.run_until_idle();
  EXPECT_TRUE(service.resident("a"));
  service.run_round();  // idle 1: still resident
  EXPECT_TRUE(service.resident("a"));
  service.run_round();  // idle 2: swept
  EXPECT_FALSE(service.resident("a"));
  EXPECT_TRUE(service.evicted("a"));
  EXPECT_EQ(service.evictions(), 1);

  // New demand restores transparently and continues the step count.
  service.request_steps("a", 2);
  service.run_until_idle();
  EXPECT_EQ(service.restores(), 1);
  EXPECT_EQ(service.steps_run("a"), 5);
  ASSERT_EQ(service.records("a").size(), 5u);
  // Step indices are 0-based and continue seamlessly across the restore.
  EXPECT_EQ(service.records("a").back().step, 4);
}

TEST(Service, MaxResidentPressureSpillsLongestIdle) {
  ServiceConfig sc;
  sc.quantum_seconds = 1.0;
  sc.idle_evict_rounds = 0;  // only the residency cap evicts here
  sc.max_resident = 1;
  sc.checkpoint_dir = fresh_dir("svc_pressure");
  SimulationService service(sc);
  service.admit("a", gravity_factory(51));
  service.admit("b", gravity_factory(52));
  service.request_steps("a", 2);
  service.run_until_idle();
  service.request_steps("b", 2);
  service.run_until_idle();
  // Only one engine may stay resident; "a" (longest idle) was spilled.
  EXPECT_FALSE(service.resident("a"));
  EXPECT_TRUE(service.evicted("a"));
  EXPECT_TRUE(service.resident("b"));
}

TEST(Service, SessionLifecycleErrors) {
  ServiceConfig sc;
  SimulationService service(sc);
  service.admit("a", gravity_factory(61));
  EXPECT_THROW(service.admit("a", gravity_factory(61)), std::invalid_argument);
  EXPECT_THROW(service.admit("", gravity_factory(61)), std::invalid_argument);
  EXPECT_THROW(service.admit("bad name", gravity_factory(61)),
               std::invalid_argument);
  EXPECT_THROW(service.request_steps("ghost", 1), std::out_of_range);
  service.remove("a");
  EXPECT_FALSE(service.has_session("a"));
  EXPECT_THROW(service.request_steps("a", 1), std::invalid_argument);
  // Eviction without a spill dir is a refusal, not an error.
  EXPECT_FALSE(service.evict("a"));
}

TEST(Service, SharedClockAccountsExclusiveOccupancy) {
  SharedMachineClock clock;
  EXPECT_EQ(clock.utilization(), 1.0);  // vacuously busy when unused
  EXPECT_EQ(clock.acquire("a", 2.0), 0.0);
  EXPECT_EQ(clock.acquire("b", 1.0), 2.0);
  clock.idle(1.0);
  EXPECT_EQ(clock.acquire("a", 1.0), 4.0);
  EXPECT_EQ(clock.now(), 5.0);
  EXPECT_EQ(clock.busy_seconds(), 4.0);
  EXPECT_EQ(clock.idle_seconds(), 1.0);
  EXPECT_EQ(clock.utilization(), 0.8);
  EXPECT_EQ(clock.owner_seconds("a"), 3.0);
  EXPECT_EQ(clock.owner_seconds("b"), 1.0);
  EXPECT_EQ(clock.owner_seconds("ghost"), 0.0);
  const auto& per = clock.per_owner();
  ASSERT_EQ(per.size(), 2u);
  EXPECT_EQ(per[0].owner, "a");  // first-use order
  EXPECT_EQ(per[1].owner, "b");
  ASSERT_EQ(clock.occupancy().size(), 3u);
  EXPECT_EQ(clock.occupancy()[1].owner, "b");
  EXPECT_EQ(clock.occupancy()[1].start, 2.0);
  EXPECT_EQ(clock.occupancy()[1].seconds, 1.0);
}

TEST(Service, OneTraceSpansAllTenantsWithLifecycleInstants) {
  ServiceConfig sc;
  sc.quantum_seconds = 1.0;
  sc.idle_evict_rounds = 1;
  sc.checkpoint_dir = fresh_dir("svc_trace");
  sc.trace = true;
  sc.metrics = true;
  SimulationService service(sc);
  service.admit("g1", gravity_factory(71));
  service.admit("g2", gravity_factory(72));
  service.request_steps("g1", 2);
  service.request_steps("g2", 2);
  service.run_until_idle();
  service.run_round();  // idle -> both evicted
  service.request_steps("g1", 1);
  service.run_until_idle();

  ASSERT_NE(service.trace(), nullptr);
  const std::string json = service.trace()->to_json();
  // Tenant-prefixed tracks from the obs tenant dimension...
  EXPECT_NE(json.find("g1/step"), std::string::npos);
  EXPECT_NE(json.find("g2/step"), std::string::npos);
  // ... and service lifecycle instants on the shared timeline.
  bool admit = false, evict = false, restore = false;
  for (const auto& e : service.trace()->events()) {
    if (e.cat != "service") continue;
    admit |= e.name == "admit";
    evict |= e.name == "evict";
    restore |= e.name == "restore";
  }
  EXPECT_TRUE(admit);
  EXPECT_TRUE(evict);
  EXPECT_TRUE(restore);

  // Merged CSV: service.* aggregate rows then tenant rows, parseable header.
  const std::string csv =
      (fs::path(::testing::TempDir()) / "svc_merged.csv").string();
  ASSERT_TRUE(service.write_merged_metrics_csv(csv));
  std::ifstream in(csv);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "step,metric,value");
  bool saw_service = false, saw_tenant = false;
  while (std::getline(in, line)) {
    saw_service |= line.find(",service.sessions,") != std::string::npos;
    saw_tenant |= line.find(",tenant.g1.") != std::string::npos;
  }
  EXPECT_TRUE(saw_service);
  EXPECT_TRUE(saw_tenant);
}

}  // namespace
}  // namespace afmm

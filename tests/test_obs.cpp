// Observability (obs/) guarantees the rest of the repo builds on:
//
//   * fixed-seed runs serialize to byte-identical trace JSON, with and
//     without a fault schedule (the virtual-time-only determinism contract);
//   * the sampled metric rows agree exactly with the StepRecords the
//     simulation returns (one source of truth, two exports);
//   * switching observability on leaves the physical trajectory and the
//     balancer's S series bit-identical (read-only sinks);
//   * the emitted JSON is structurally well formed and covers every event
//     category the trace consumers rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/problems.hpp"
#include "dist/distributions.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace afmm {
namespace {

ParticleSet test_bodies() {
  Rng rng(17);
  return uniform_cube(1200, rng, {0.5, 0.5, 0.5}, 0.5);
}

EngineConfig obs_config(bool with_faults) {
  EngineConfig cfg;
  cfg.fmm.order = 3;
  cfg.tree.root_center = {0.5, 0.5, 0.5};
  cfg.tree.root_half = 0.5;
  cfg.balancer.initial_S = 48;
  if (with_faults)
    cfg.faults.gpu_throttle(3, 0, 0.4).gpu_loss(6, 0).gpu_recovery(9, 0);
  cfg.resilience.checkpoint_interval = 4;
  cfg.resilience.audit.interval = 2;
  cfg.obs.trace = true;
  cfg.obs.metrics = true;
  return cfg;
}

// G = 1, softening 1e-3, on a 2-GPU node.
GravityEngine make_sim(const EngineConfig& cfg) {
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));
  return GravityEngine(cfg, GravityProblem(cfg.fmm, 1.0, 1e-3, std::move(node),
                                           test_bodies()));
}

std::string run_trace_json(bool with_faults, int steps) {
  GravityEngine sim = make_sim(obs_config(with_faults));
  sim.run(steps);
  return sim.trace()->to_json();
}

TEST(Obs, DisabledIsNullSink) {
  EngineConfig cfg = obs_config(false);
  cfg.obs.trace = false;
  cfg.obs.metrics = false;
  GravityEngine sim = make_sim(cfg);
  sim.run(3);
  EXPECT_EQ(sim.trace(), nullptr);
  EXPECT_EQ(sim.metrics(), nullptr);
  EXPECT_DOUBLE_EQ(sim.virtual_now(), 0.0);
}

TEST(Obs, TraceJsonDeterministicAcrossRuns) {
  const std::string a = run_trace_json(false, 8);
  const std::string b = run_trace_json(false, 8);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Obs, TraceJsonDeterministicWithFaultSchedule) {
  const std::string a = run_trace_json(true, 12);
  const std::string b = run_trace_json(true, 12);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // ... and the schedule actually fired (otherwise this test proves nothing).
  EXPECT_NE(a.find("\"cat\":\"fault\""), std::string::npos);
}

TEST(Obs, TraceCoversEventCategories) {
  GravityEngine sim = make_sim(obs_config(true));
  sim.run(12);
  const TraceRecorder& tr = *sim.trace();
  EXPECT_TRUE(tr.has_category("step"));
  EXPECT_TRUE(tr.has_category("tree"));
  EXPECT_TRUE(tr.has_category("balancer"));
  EXPECT_TRUE(tr.has_category("expansion"));
  EXPECT_TRUE(tr.has_category("p2p"));
  EXPECT_TRUE(tr.has_category("transfer"));
  EXPECT_TRUE(tr.has_category("fault"));
  EXPECT_TRUE(tr.has_category("state"));   // audits + checkpoints
  // Virtual time advanced by the sum of the step totals.
  EXPECT_GT(sim.virtual_now(), 0.0);
}

TEST(Obs, TrackIdsNumberedPerPidInFirstUseOrder) {
  // Two pids whose tracks are first used interleaved: each pid numbers its
  // own tracks from 1 in first-use order, a repeated name gets its tid back,
  // and the metadata lists the tracks in first-use order.
  constexpr int kV = TraceRecorder::kVirtualPid;
  constexpr int kW = TraceRecorder::kWallPid;
  TraceRecorder rec;
  rec.span(kV, "cpu", "a", "c", 0.0, 1.0);
  rec.span(kW, "wall.ops", "b", "c", 0.0, 1.0);
  rec.instant(kV, "gpu0", "c", "c", 1.0);
  rec.counter(kW, "wall.cpu", "d", 1.0, 2.0);
  rec.span(kV, "cpu", "e", "c", 2.0, 1.0);
  rec.counter(kV, "gpu1", "f", 2.0, 3.0);
  rec.instant(kW, "wall.ops", "g", "c", 3.0);
  const std::vector<std::pair<int, int>> expected = {
      {kV, 1}, {kW, 1}, {kV, 2}, {kW, 2}, {kV, 1}, {kV, 3}, {kW, 1}};
  ASSERT_EQ(rec.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(rec.events()[i].pid, expected[i].first) << "event " << i;
    EXPECT_EQ(rec.events()[i].tid, expected[i].second) << "event " << i;
  }
  const std::string json = rec.to_json();
  const char* tracks[] = {"\"cpu\"", "\"wall.ops\"", "\"gpu0\"",
                          "\"wall.cpu\"", "\"gpu1\""};
  for (std::size_t i = 1; i < std::size(tracks); ++i)
    EXPECT_LT(json.find(tracks[i - 1]), json.find(tracks[i])) << tracks[i];

  // clear() starts the numbering over.
  rec.clear();
  rec.span(kV, "gpu1", "h", "c", 0.0, 1.0);
  rec.span(kV, "cpu", "i", "c", 0.0, 1.0);
  EXPECT_EQ(rec.events()[0].tid, 1);
  EXPECT_EQ(rec.events()[1].tid, 2);
}

TEST(Obs, TraceJsonWellFormed) {
  const std::string json = run_trace_json(true, 6);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  // Structural balance check (braces/brackets outside string literals).
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(Obs, MetricsRowsMatchStepRecords) {
  GravityEngine sim = make_sim(obs_config(true));
  const auto records = sim.run(12);
  const MetricsRegistry& m = *sim.metrics();
  int cumulative_faults = 0;
  for (const auto& rec : records) {
    cumulative_faults += rec.faults_fired;
    const int s = rec.step;
    EXPECT_DOUBLE_EQ(m.row_value(s, "step.compute_seconds"),
                     rec.compute_seconds);
    EXPECT_DOUBLE_EQ(m.row_value(s, "step.cpu_seconds"), rec.cpu_seconds);
    EXPECT_DOUBLE_EQ(m.row_value(s, "step.gpu_seconds"), rec.gpu_seconds);
    EXPECT_DOUBLE_EQ(m.row_value(s, "step.lb_seconds"), rec.lb_seconds);
    EXPECT_DOUBLE_EQ(m.row_value(s, "predicted.far_seconds"),
                     rec.predicted_far_seconds);
    EXPECT_DOUBLE_EQ(m.row_value(s, "predicted.near_seconds"),
                     rec.predicted_near_seconds);
    EXPECT_DOUBLE_EQ(m.row_value(s, "lb.S"), rec.S);
    EXPECT_DOUBLE_EQ(m.row_value(s, "lb.state"),
                     static_cast<double>(static_cast<int>(rec.state)));
    EXPECT_DOUBLE_EQ(m.row_value(s, "health.alive_gpus"), rec.alive_gpus);
    EXPECT_DOUBLE_EQ(m.row_value(s, "health.effective_cores"),
                     rec.effective_cores);
    EXPECT_DOUBLE_EQ(m.row_value(s, "resilience.checkpointed"),
                     rec.checkpointed ? 1.0 : 0.0);
    EXPECT_DOUBLE_EQ(m.row_value(s, "resilience.audited"),
                     rec.audited ? 1.0 : 0.0);
    EXPECT_DOUBLE_EQ(m.row_value(s, "faults.fired"), cumulative_faults);
  }
  // The histogram saw exactly one observation per step.
  const int last = records.back().step;
  EXPECT_DOUBLE_EQ(m.row_value(last, "step.compute_seconds.hist.count"),
                   static_cast<double>(records.size()));
}

TEST(Obs, ObservabilityLeavesTrajectoryBitIdentical) {
  EngineConfig on = obs_config(true);
  EngineConfig off = on;
  off.obs.trace = false;
  off.obs.metrics = false;

  GravityEngine sim_on = make_sim(on);
  GravityEngine sim_off = make_sim(off);
  const auto rec_on = sim_on.run(12);
  const auto rec_off = sim_off.run(12);

  ASSERT_EQ(rec_on.size(), rec_off.size());
  for (std::size_t i = 0; i < rec_on.size(); ++i) {
    EXPECT_EQ(rec_on[i].S, rec_off[i].S);
    EXPECT_EQ(rec_on[i].state, rec_off[i].state);
    EXPECT_EQ(rec_on[i].compute_seconds, rec_off[i].compute_seconds);
    EXPECT_EQ(rec_on[i].lb_seconds, rec_off[i].lb_seconds);
  }
  const auto& pa = sim_on.problem().bodies().positions;
  const auto& pb = sim_off.problem().bodies().positions;
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].x, pb[i].x);
    EXPECT_EQ(pa[i].y, pb[i].y);
    EXPECT_EQ(pa[i].z, pb[i].z);
  }
}

TEST(Obs, WallOpsTrackOnlyWhenEnabled) {
  EngineConfig cfg = obs_config(false);
  GravityEngine plain = make_sim(cfg);
  plain.run(2);
  for (const auto& e : plain.trace()->events())
    EXPECT_NE(e.pid, TraceRecorder::kWallPid);

  cfg.fmm.collect_real_timings = true;
  GravityEngine wall = make_sim(cfg);
  wall.run(2);
  bool saw_wall = false;
  for (const auto& e : wall.trace()->events())
    saw_wall |= e.pid == TraceRecorder::kWallPid;
  EXPECT_TRUE(saw_wall);
  EXPECT_TRUE(wall.trace()->has_category("expansion-wall"));
}

TEST(Metrics, RegistryBasics) {
  MetricsRegistry m;
  m.add_counter("c", 2.0);
  m.add_counter("c", 3.0);
  m.set_gauge("g", 7.5);
  m.define_histogram("h", {1.0, 10.0});
  m.observe("h", 0.5);
  m.observe("h", 5.0);
  m.observe("h", 50.0);
  m.sample(0);
  EXPECT_DOUBLE_EQ(m.row_value(0, "c"), 5.0);
  EXPECT_DOUBLE_EQ(m.row_value(0, "g"), 7.5);
  EXPECT_DOUBLE_EQ(m.row_value(0, "h.le_1"), 1.0);    // cumulative buckets
  EXPECT_DOUBLE_EQ(m.row_value(0, "h.le_10"), 2.0);
  EXPECT_DOUBLE_EQ(m.row_value(0, "h.le_inf"), 3.0);
  EXPECT_DOUBLE_EQ(m.row_value(0, "h.count"), 3.0);
  EXPECT_DOUBLE_EQ(m.row_value(0, "h.sum"), 55.5);
  EXPECT_TRUE(std::isnan(m.row_value(1, "c")));  // never sampled at step 1
}

}  // namespace
}  // namespace afmm

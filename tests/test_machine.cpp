#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "machine/machine.hpp"
#include "util/rng.hpp"

namespace afmm {
namespace {

std::vector<Vec3> random_points(Rng& rng, int n) {
  std::vector<Vec3> pts;
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  return pts;
}

TreeConfig unit_config(int S) {
  TreeConfig tc;
  tc.leaf_capacity = S;
  tc.root_center = {0.5, 0.5, 0.5};
  tc.root_half = 0.5;
  return tc;
}

TEST(CpuModel, EffectiveRatePositiveAndBonusKicksIn) {
  CpuModelConfig cpu;
  cpu.cores_per_socket = 8;
  cpu.cache_bonus_per_extra_socket = 0.05;
  cpu.num_cores = 32;
  EXPECT_GT(cpu.effective_rate(1), 0.0);
  // 9 cores span two sockets: rate per core gets the shared-cache bonus.
  EXPECT_GT(cpu.effective_rate(9), cpu.effective_rate(8));
}

TEST(CpuModel, BandwidthShareSaturates) {
  CpuModelConfig cpu;
  cpu.bw_per_core_gbs = 8.0;
  cpu.bw_total_gbs = 60.0;
  EXPECT_DOUBLE_EQ(cpu.bandwidth_share(1), 8.0e9);
  EXPECT_DOUBLE_EQ(cpu.bandwidth_share(4), 8.0e9);
  EXPECT_DOUBLE_EQ(cpu.bandwidth_share(30), 2.0e9);
}

TEST(CpuModel, TaskSecondsScalesWithFlops) {
  CpuModelConfig cpu;
  EXPECT_NEAR(cpu.task_seconds(2e6, 1), 2.0 * cpu.task_seconds(1e6, 1), 1e-12);
  EXPECT_GT(cpu.task_seconds(1e6, 32), cpu.task_seconds(1e6, 1));
}

class MachineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(11);
    pts_ = random_points(rng, 4000);
    tree_.build(pts_, unit_config(32));
    lists_ = build_interaction_lists(tree_);
  }
  std::vector<Vec3> pts_;
  AdaptiveOctree tree_;
  InteractionLists lists_;
};

TEST_F(MachineFixture, FarFieldTimesArePositiveAndConsistent) {
  ExpansionContext ctx(4);
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(1));
  const auto t = node.simulate_far_field(ctx, tree_, lists_);
  EXPECT_GT(t.cpu_seconds, 0.0);
  EXPECT_GT(t.t_m2l, 0.0);
  EXPECT_GT(t.t_p2m, 0.0);
  EXPECT_EQ(t.counts.m2l, lists_.total_m2l_pairs);
  // Total op time can't be less than the makespan of one core's share.
  const double work = t.t_p2m + t.t_m2m + t.t_m2l + t.t_l2l + t.t_l2p;
  EXPECT_GE(work, t.cpu_seconds * 0.999 / 10.0);  // 10 cores default
  EXPECT_LE(t.cpu_seconds, work * 1.2 + 1e-3);    // no worse than serial
}

TEST_F(MachineFixture, MoreCoresShrinkCpuTime) {
  ExpansionContext ctx(5);
  double prev = 1e30;
  for (int cores : {1, 2, 4, 8, 16}) {
    CpuModelConfig cpu;
    cpu.num_cores = cores;
    NodeSimulator node(cpu, GpuSystemConfig::uniform(1));
    const auto t = node.simulate_far_field(ctx, tree_, lists_);
    EXPECT_LT(t.cpu_seconds, prev) << "cores=" << cores;
    prev = t.cpu_seconds;
  }
}

TEST_F(MachineFixture, SpeedupFlattensAtHighCoreCounts) {
  // Fig. 6's qualitative shape: near-linear early, saturating late.
  ExpansionContext ctx(5);
  auto cpu_time = [&](int cores) {
    CpuModelConfig cpu;
    cpu.num_cores = cores;
    NodeSimulator node(cpu, GpuSystemConfig::uniform(1));
    return node.simulate_far_field(ctx, tree_, lists_).cpu_seconds;
  };
  const double t1 = cpu_time(1);
  const double s8 = t1 / cpu_time(8);
  const double s32 = t1 / cpu_time(32);
  EXPECT_GT(s8, 6.0);         // near-linear at 8
  EXPECT_GT(s32, s8);         // still improving
  EXPECT_LT(s32, 32.0 * 0.9); // but clearly sublinear at 32
}

TEST_F(MachineFixture, SerialBaselineExceedsParallelHeterogeneous) {
  ExpansionContext ctx(4);
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(4));
  const double serial = node.serial_all_cpu_seconds(ctx, tree_, lists_);
  const auto t = node.simulate_far_field(ctx, tree_, lists_);
  EXPECT_GT(serial, t.cpu_seconds);
}

TEST_F(MachineFixture, StokesletPassesScaleFarFieldTimes) {
  ExpansionContext ctx(4);
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(1));
  const auto t1 = node.simulate_far_field(ctx, tree_, lists_, 1);
  const auto t4 = node.simulate_far_field(ctx, tree_, lists_, 4);
  // The fluid problem's M2L cost is ~4x the gravitational one (paper,
  // Section IX.B).
  EXPECT_NEAR(t4.t_m2l / t1.t_m2l, 4.0, 0.01);
  EXPECT_GT(t4.cpu_seconds, 2.5 * t1.cpu_seconds);
}

TEST_F(MachineFixture, OverlapIsOffUntilSetAndSwitchesBothWays) {
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(1));
  EXPECT_EQ(node.overlap_mode(), OverlapMode::kOff);
  EXPECT_FALSE(node.overlap_enabled());
  node.set_overlap(OverlapMode::kOn);
  EXPECT_TRUE(node.overlap_enabled());
  node.set_overlap(OverlapMode::kOff);
  EXPECT_FALSE(node.overlap_enabled());
}

TEST_F(MachineFixture, OverlapStepScheduleIsWellFormed) {
  ExpansionContext ctx(4);
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));
  node.set_overlap(OverlapMode::kOn);
  const auto gpu =
      simulate_p2p_timing(tree_, lists_.p2p, 20.0, node.gpus(), &node.health());
  ASSERT_FALSE(gpu.cpu_fallback);
  std::shared_ptr<const DagSchedule> sched;
  const ObservedStepTimes t = node.observe(ctx, tree_, lists_, gpu, 1, &sched);
  ASSERT_TRUE(sched);
  ASSERT_FALSE(sched->tasks.empty());
  EXPECT_EQ(sched->gpu_lanes, 2);
  EXPECT_GT(t.overlap_seconds, 0.0);
  // The makespan is the later of the two sides, and compute_seconds()
  // switches to it.
  EXPECT_DOUBLE_EQ(t.overlap_seconds,
                   std::max(t.overlap_cpu_seconds, t.overlap_near_seconds));
  EXPECT_DOUBLE_EQ(t.compute_seconds(), t.overlap_seconds);
  EXPECT_GT(t.serialized_compute_seconds(), 0.0);
  // Exclusivity per virtual worker: CPU-pool spans keyed by worker slot,
  // lane spans keyed by lane id, never two at once.
  auto is_lane = [](DagTaskKind k) {
    return k == DagTaskKind::kUpload || k == DagTaskKind::kKernel ||
           k == DagTaskKind::kDownload;
  };
  std::map<std::pair<bool, int>, std::vector<std::pair<double, double>>> by;
  for (const auto& s : sched->tasks) {
    EXPECT_GE(s.start, 0.0);
    EXPECT_GE(s.seconds, 0.0);
    EXPECT_LE(s.start + s.seconds, t.overlap_seconds + 1e-12);
    by[{is_lane(s.kind), s.worker}].emplace_back(s.start,
                                                 s.start + s.seconds);
  }
  for (auto& [key, spans] : by) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i)
      EXPECT_GE(spans[i].first, spans[i - 1].second - 1e-12)
          << "worker lane=" << key.first << " id=" << key.second;
  }
  // Each lane's chain is fully serialized: launch + upload + kernel +
  // download is a lower bound on the lane finish.
  const double lane_min = gpu.timeline.launch_seconds +
                          gpu.timeline.upload_each[0] +
                          gpu.per_gpu[0].seconds +
                          gpu.timeline.download_each[0];
  EXPECT_GE(t.overlap_near_seconds, lane_min - 1e-12);
}

TEST_F(MachineFixture, OverlapBeatsSerializedSweepsOnCpuDominantStep) {
  // With a modest GPU near field, the serialized timeline pays
  // up_makespan + down_makespan (cpu_seconds: a barrier between the sweeps);
  // the merged DAG lets down-sweep tasks start as soon as their own sources
  // are done, so the event-driven makespan lands strictly below the barrier
  // sum while never beating the physics lower bounds.
  ExpansionContext ctx(4);
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));
  node.set_overlap(OverlapMode::kOn);
  const auto gpu =
      simulate_p2p_timing(tree_, lists_.p2p, 20.0, node.gpus(), &node.health());
  ASSERT_FALSE(gpu.cpu_fallback);
  const ObservedStepTimes t = node.observe(ctx, tree_, lists_, gpu, 1);
  ASSERT_GT(t.cpu_seconds, t.gpu_seconds);  // CPU-dominant as constructed
  EXPECT_LT(t.overlap_seconds, t.cpu_seconds);
  EXPECT_GE(t.overlap_seconds, t.gpu_seconds);  // kernels still ran
}

TEST_F(MachineFixture, OverlapStepCoversCpuFallback) {
  // Every GPU lost: the near field becomes P parallel CPU shares competing
  // with the far field -- still one DAG, no lanes.
  ExpansionContext ctx(4);
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));
  node.set_overlap(OverlapMode::kOn);
  node.health().gpus[0].alive = false;
  node.health().gpus[1].alive = false;
  const auto gpu =
      simulate_p2p_timing(tree_, lists_.p2p, 20.0, node.gpus(), &node.health());
  ASSERT_TRUE(gpu.cpu_fallback);
  std::shared_ptr<const DagSchedule> sched;
  const ObservedStepTimes t = node.observe(ctx, tree_, lists_, gpu, 1, &sched);
  EXPECT_EQ(t.cpu_p2p_seconds, node.cpu_p2p_seconds(gpu.total_interactions));
  ASSERT_TRUE(sched);
  EXPECT_EQ(sched->gpu_lanes, 0);
  EXPECT_GT(t.overlap_seconds, 0.0);
  // No barrier between near and far shares: at most the serialized sum
  // plus the honestly-charged per-task spawn overheads, at least the
  // bigger of the two.
  EXPECT_LE(t.overlap_seconds, t.serialized_compute_seconds() * 1.01);
  EXPECT_GE(t.overlap_seconds,
            std::max(t.cpu_p2p_seconds, t.gpu_seconds) - 1e-12);
}

TEST_F(MachineFixture, MaintenanceCostsScaleWithInput) {
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(1));
  EXPECT_GT(node.rebuild_seconds(100000, 5000),
            node.rebuild_seconds(10000, 500));
  EXPECT_GT(node.rebin_seconds(100000), node.rebin_seconds(10000));
  EXPECT_GT(node.enforce_seconds(100, 10000), node.enforce_seconds(1, 10000));
  EXPECT_GT(node.rebuild_seconds(100000, 5000), node.rebin_seconds(100000));
}

}  // namespace
}  // namespace afmm

// Golden-trajectory scenario for the engine refactor regression test.
//
// Runs a short gravity trajectory that exercises every layer the engine
// owns -- balancing, fault injection, resilience (audit + checkpoint
// cadence) and observability (trace + metrics) -- and serializes the result
// to a deterministic text dump: every StepRecord field in hexfloat, the
// final phase-space state bit-for-bit, and FNV-1a fingerprints of the trace
// JSON and metric rows. The dump recorded before the SimulationEngine
// extraction is committed at tests/golden/gravity_short.golden; the test
// re-runs the scenario and requires byte equality, so the engine cannot
// perturb trajectories, StepRecords, or trace output even by one ULP.
//
// Uses only the public GravitySimulation API on purpose: the same header
// produced the golden file with the pre-refactor code.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/simulation.hpp"
#include "dist/distributions.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace afmm::golden {

inline constexpr int kGoldenSteps = 12;

inline SimulationConfig golden_config() {
  SimulationConfig cfg;
  cfg.fmm.order = 3;
  cfg.tree.root_center = {0.5, 0.5, 0.5};
  cfg.tree.root_half = 0.5;
  cfg.balancer.initial_S = 48;
  cfg.dt = 1e-3;
  cfg.faults.gpu_throttle(3, 0, 0.4).gpu_loss(6, 0).gpu_recovery(9, 0);
  cfg.resilience.checkpoint_interval = 4;
  cfg.resilience.audit.interval = 2;
  cfg.obs.trace = true;
  cfg.obs.metrics = true;
  return cfg;
}

inline GravitySimulation golden_simulation() {
  Rng rng(2026);
  auto bodies = uniform_cube(400, rng, {0.5, 0.5, 0.5}, 0.5);
  NodeSimulator node(CpuModelConfig{}, GpuSystemConfig::uniform(2));
  // The golden dump encodes the serialized timeline; pin the overlap
  // executor off so an ambient AFMM_OVERLAP=1 cannot change the *.seconds
  // series this file fingerprints. (A separate test proves trajectories are
  // bit-identical either way.)
  node.set_overlap(OverlapMode::kOff);
  return GravitySimulation(golden_config(), std::move(node),
                           std::move(bodies));
}

inline std::uint64_t fnv1a(const std::string& data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::string hexf(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

inline std::string dump_record(const StepRecord& r) {
  std::string out;
  char head[256];
  std::snprintf(head, sizeof(head),
                "step %d S %d state %d rebuilt %d enforce %d fgo %d shift %d "
                "faults %d alive %d cores %d fallback %d retries %d "
                "audited %d auditfail %d wd %d rb %d restored %d ckpt %d\n",
                r.step, r.S, static_cast<int>(r.state), r.rebuilt ? 1 : 0,
                r.enforce_ops, r.fgo_ops, r.capability_shift ? 1 : 0,
                r.faults_fired, r.alive_gpus, r.effective_cores,
                r.cpu_fallback ? 1 : 0, r.transfer_retries, r.audited ? 1 : 0,
                r.audit_failed ? 1 : 0, r.watchdog_tripped ? 1 : 0,
                r.rolled_back ? 1 : 0, r.restored_step, r.checkpointed ? 1 : 0);
  out += head;
  out += "  compute " + hexf(r.compute_seconds) + " cpu " +
         hexf(r.cpu_seconds) + " gpu " + hexf(r.gpu_seconds) + " lb " +
         hexf(r.lb_seconds) + "\n";
  out += "  pfar " + hexf(r.predicted_far_seconds) + " pnear " +
         hexf(r.predicted_near_seconds) + " gpucap " + hexf(r.gpu_capability) +
         "\n";
  char stats[160];
  std::snprintf(stats, sizeof(stats),
                "  nodes %d leaves %d depth %d m2l %llu p2p %llu\n",
                r.stats.nodes, r.stats.effective_leaves, r.stats.depth,
                static_cast<unsigned long long>(r.stats.m2l_pairs),
                static_cast<unsigned long long>(r.stats.p2p_interactions));
  out += stats;
  return out;
}

// Runs the scenario and serializes it; the golden file holds this string as
// produced by the pre-refactor GravitySimulation.
inline std::string golden_dump() {
  GravitySimulation sim = golden_simulation();
  std::string out = "golden gravity v1\n";
  for (int i = 0; i < kGoldenSteps; ++i) out += dump_record(sim.step());

  const auto& bodies = sim.bodies();
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    out += "pos " + std::to_string(i) + " " + hexf(bodies.positions[i].x) +
           " " + hexf(bodies.positions[i].y) + " " +
           hexf(bodies.positions[i].z) + "\n";
    out += "vel " + std::to_string(i) + " " + hexf(bodies.velocities[i].x) +
           " " + hexf(bodies.velocities[i].y) + " " +
           hexf(bodies.velocities[i].z) + "\n";
  }

  const std::string trace_json = sim.trace()->to_json();
  char line[128];
  std::snprintf(line, sizeof(line), "trace fnv1a %016llx len %zu\n",
                static_cast<unsigned long long>(fnv1a(trace_json)),
                trace_json.size());
  out += line;

  std::string metrics;
  for (const auto& row : sim.metrics()->rows())
    metrics +=
        std::to_string(row.step) + "," + row.metric + "," + hexf(row.value) +
        "\n";
  std::snprintf(line, sizeof(line), "metrics fnv1a %016llx rows %zu\n",
                static_cast<unsigned long long>(fnv1a(metrics)),
                sim.metrics()->rows().size());
  out += line;
  out += "virtual_now " + hexf(sim.virtual_now()) + "\n";
  return out;
}

}  // namespace afmm::golden

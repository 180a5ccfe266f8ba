// Multi-tenant service throughput under seeded churn.
//
// Admits --sessions (default 120) mixed gravity/Stokes sessions with
// deterministic per-session recipes (size, priority, total steps, burst
// size, idle gap, arrival round), drives the DRR scheduler round by round,
// and lets the idle-eviction policy spill engines to disk between bursts.
// Reports sessions/sec and steps/sec (wall clock) plus p50/p99 per-step
// service time (virtual seconds) of the shared machine timeline.
//
// The run is EXIT-GATED on the service's core promises:
//
//   1. Every session's trajectory is bit-identical to the same session run
//      alone: the state fingerprint at completion AND every StepRecord field
//      match a solo replay of the identical factory -- including sessions
//      that went through one or more evict->restore cycles.
//   2. At least one evict->restore cycle actually happened (the churn gaps
//      exceed idle_evict_rounds by construction).
//   3. Quota enforcement, recomputed from the ExecutedStep audit log: every
//      grant had deficit >= forecast, consecutive grants within a round
//      debit the deficit exactly, and the scheduler's own violation counter
//      is zero.
//   4. All sessions complete within the round budget.
//
// Artifacts: per-round series (service_throughput.csv), summary
// (service_throughput_summary.csv), the merged multi-tenant trace
// (service_throughput_trace.json) and metrics (service_throughput_metrics.csv)
// the --service validator checks.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/problems.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"

using namespace afmm;
using namespace afmm::bench;

namespace {

struct Plan {
  std::string name;
  bool stokes = false;
  int priority = 1;
  int total = 0;    // steps this session wants over its lifetime
  int burst = 0;    // steps per demand burst
  int gap = 0;      // rounds between bursts (forces idle eviction)
  int arrival = 0;  // admission round
  SessionFactory factory;
  int requested = 0;
  int next_request_round = 0;
  bool admitted = false;
  bool done = false;
};

bool same_record(const StepRecord& a, const StepRecord& b) {
  return a.step == b.step && a.compute_seconds == b.compute_seconds &&
         a.cpu_seconds == b.cpu_seconds && a.gpu_seconds == b.gpu_seconds &&
         a.lb_seconds == b.lb_seconds && a.S == b.S && a.state == b.state &&
         a.rebuilt == b.rebuilt && a.enforce_ops == b.enforce_ops &&
         a.fgo_ops == b.fgo_ops &&
         a.predicted_far_seconds == b.predicted_far_seconds &&
         a.predicted_near_seconds == b.predicted_near_seconds &&
         a.capability_shift == b.capability_shift;
}

}  // namespace

int main(int argc, char** argv) {
  const int num_sessions = static_cast<int>(arg_or(argc, argv, "sessions", 120));
  const int order = static_cast<int>(arg_or(argc, argv, "order", 3));
  const long seed = arg_or(argc, argv, "seed", 0x5eed);
  const int max_rounds = static_cast<int>(arg_or(argc, argv, "max-rounds", 20000));
  const std::string out = out_dir(argc, argv);
  validate_args(argc, argv);

  NodeSimulator node(system_a_cpu(4), GpuSystemConfig::uniform(1));

  // Per-session recipes, each from its own stream so the plan is a pure
  // function of (seed, index) regardless of scheduling order.
  std::vector<Plan> plans(static_cast<std::size_t>(num_sessions));
  for (int i = 0; i < num_sessions; ++i) {
    Rng rng(static_cast<std::uint64_t>(seed) * 1000003ULL +
            static_cast<std::uint64_t>(i));
    Plan& p = plans[static_cast<std::size_t>(i)];
    p.name = "s" + std::to_string(i);
    p.stokes = i % 3 == 2;  // 1/3 Stokes, 2/3 gravity
    p.priority = 1 + i % 3;
    p.total = 6 + static_cast<int>(rng.below(9));     // 6..14 steps
    p.burst = 2 + static_cast<int>(rng.below(3));     // 2..4 per burst
    p.gap = 4 + static_cast<int>(rng.below(3));       // 4..6 rounds idle
    p.arrival = i / 4 + static_cast<int>(rng.below(3));
    const std::size_t n = 48 + rng.below(49);         // 48..96 bodies
    if (p.stokes) {
      EngineConfig cfg;
      cfg.fmm.order = order;
      cfg.tree.root_center = {0, 0, 0};
      cfg.tree.root_half = 2.0;
      cfg.balancer.initial_S = 16;
      cfg.dt = 1e-3;
      auto set = uniform_cube(n, rng, {0, 0, 0}, 1.0);
      p.factory = stokes_session_factory(cfg, 0.05, 1.0, node,
                                         std::move(set.positions),
                                         constant_force({0, 0, -1}));
    } else {
      EngineConfig cfg;
      cfg.fmm.order = order;
      cfg.tree.root_center = {0, 0, 0};
      cfg.tree.root_half = 16.0;
      cfg.balancer.initial_S = 16;
      cfg.dt = 1e-3;
      p.factory = gravity_session_factory(cfg, 1.0, 1e-2, node,
                                          plummer(n, rng));
    }
  }

  ServiceConfig sc;
  sc.quantum_seconds = 5e-3;
  sc.idle_evict_rounds = 2;
  sc.checkpoint_dir = out + "/service_ckpt";
  sc.checkpoint_keep = 2;
  sc.trace = true;
  sc.metrics = true;
  SimulationService service(sc);

  int num_stokes = 0;
  for (const Plan& p : plans) num_stokes += p.stokes ? 1 : 0;
  std::printf("Service throughput: %d sessions (%d gravity / %d stokes), "
              "order %d, seed %ld.\n",
              num_sessions, num_sessions - num_stokes, num_stokes, order, seed);

  Table series({"round", "steps", "live", "resident", "spilled", "pending",
                "busy_s", "util"});
  series.mirror_csv(out + "/service_throughput.csv");

  int failures = 0;
  int completed = 0;
  const auto wall_start = std::chrono::steady_clock::now();

  int round = 0;
  for (; round < max_rounds && completed < num_sessions; ++round) {
    for (Plan& p : plans) {
      if (!p.admitted && p.arrival <= round) {
        service.admit(p.name, p.factory, SessionOptions{p.priority});
        p.admitted = true;
        p.next_request_round = round;
      }
      if (!p.admitted || p.done) continue;
      if (service.pending_steps(p.name) > 0) continue;
      if (p.requested == p.total) {
        // Lifetime complete: verify against a solo replay, then depart.
        const std::uint64_t fp = service.state_fingerprint(p.name);
        auto solo = p.factory.fresh();
        std::vector<StepRecord> solo_records;
        for (int k = 0; k < p.total; ++k)
          solo_records.push_back(solo->step_once());
        const auto& svc_records = service.records(p.name);
        bool ok = fp == solo->state_fingerprint() &&
                  svc_records.size() == solo_records.size();
        for (std::size_t k = 0; ok && k < solo_records.size(); ++k)
          ok = same_record(svc_records[k], solo_records[k]);
        if (!ok) {
          std::fprintf(stderr,
                       "FAIL: session %s diverged from its solo replay\n",
                       p.name.c_str());
          ++failures;
        }
        service.remove(p.name);
        p.done = true;
        ++completed;
      } else if (round >= p.next_request_round) {
        const int k = std::min(p.burst, p.total - p.requested);
        service.request_steps(p.name, k);
        p.requested += k;
        p.next_request_round = round + p.gap;
      }
    }

    const int executed = service.run_round();

    int live = 0, resident = 0, spilled = 0, pending = 0;
    for (const Plan& p : plans) {
      if (!p.admitted || p.done) continue;
      ++live;
      if (service.resident(p.name)) ++resident;
      if (service.evicted(p.name)) ++spilled;
      pending += service.pending_steps(p.name);
    }
    if (round % 8 == 0 || completed == num_sessions)
      series.add_row({Table::integer(round), Table::integer(executed),
                      Table::integer(live), Table::integer(resident),
                      Table::integer(spilled), Table::integer(pending),
                      Table::num(service.clock().busy_seconds()),
                      Table::num(service.clock().utilization(), 3)});
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  series.print("service throughput | per-round series "
               "(full series in service_throughput.csv)");

  // ---- gates ---------------------------------------------------------------
  if (completed != num_sessions) {
    std::fprintf(stderr, "FAIL: only %d of %d sessions completed in %d rounds\n",
                 completed, num_sessions, round);
    ++failures;
  }

  // Quota audit, recomputed from the scheduler's own ExecutedStep log.
  const auto& hist = service.history();
  int restored_steps = 0;
  for (std::size_t i = 0; i < hist.size(); ++i) {
    const ExecutedStep& e = hist[i];
    if (e.restored) ++restored_steps;
    if (e.deficit_before < e.predicted) {
      std::fprintf(stderr,
                   "FAIL: round %d granted %s step %d with deficit %.17g < "
                   "forecast %.17g\n",
                   e.round, e.session.c_str(), e.step, e.deficit_before,
                   e.predicted);
      ++failures;
    }
    // Consecutive grants to one session within a round debit exactly.
    if (i + 1 < hist.size() && hist[i + 1].round == e.round &&
        hist[i + 1].session == e.session &&
        hist[i + 1].deficit_before != e.deficit_before - e.seconds) {
      std::fprintf(stderr, "FAIL: deficit ledger mismatch for %s in round %d\n",
                   e.session.c_str(), e.round);
      ++failures;
    }
  }
  if (service.quota_violations() != 0) {
    std::fprintf(stderr, "FAIL: scheduler counted %d quota violations\n",
                 service.quota_violations());
    ++failures;
  }
  if (service.restores() < 1 || restored_steps < 1) {
    std::fprintf(stderr,
                 "FAIL: churn produced no evict->restore cycle "
                 "(%d restores, %d restored steps)\n",
                 service.restores(), restored_steps);
    ++failures;
  }

  // ---- summary -------------------------------------------------------------
  std::vector<double> step_seconds;
  step_seconds.reserve(hist.size());
  for (const ExecutedStep& e : hist) step_seconds.push_back(e.seconds);
  const double p50_s = hist.empty() ? 0.0 : p50(step_seconds);
  const double p99_s = hist.empty() ? 0.0 : p99(step_seconds);

  Table summary({"sessions", "steps", "rounds", "evictions", "restores",
                 "violations", "p50_step_s", "p99_step_s", "sessions_per_sec",
                 "steps_per_sec", "clock_util"});
  summary.mirror_csv(out + "/service_throughput_summary.csv");
  summary.add_row(
      {Table::integer(completed), Table::integer(static_cast<long long>(hist.size())),
       Table::integer(service.rounds()), Table::integer(service.evictions()),
       Table::integer(service.restores()),
       Table::integer(service.quota_violations()), Table::num(p50_s),
       Table::num(p99_s), Table::num(wall_s > 0 ? completed / wall_s : 0.0),
       Table::num(wall_s > 0 ? static_cast<double>(hist.size()) / wall_s : 0.0),
       Table::num(service.clock().utilization(), 3)});
  summary.print("service throughput | summary (latencies are virtual "
                "machine-seconds per step)");

  if (service.trace() &&
      !service.trace()->write_json_file(out + "/service_throughput_trace.json"))
    std::fprintf(stderr, "warning: could not write trace json\n");
  if (!service.write_merged_metrics_csv(out + "/service_throughput_metrics.csv"))
    std::fprintf(stderr, "warning: could not write metrics csv\n");

  if (failures) {
    std::fprintf(stderr, "service_throughput: %d gate failure(s)\n", failures);
    return 1;
  }
  std::printf("service_throughput: all gates passed (%d sessions, %zu steps, "
              "%d evictions, %d restores).\n",
              completed, hist.size(), service.evictions(), service.restores());
  return 0;
}

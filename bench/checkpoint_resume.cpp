// Kill-and-resume experiment for the checkpoint/restore subsystem.
//
// Three acts, all deterministic:
//
//   1. reference   -- one uninterrupted resilient run of --steps steps under
//                     an active fault schedule (throttle, loss, recovery).
//   2. kill+resume -- the same run killed dead at --kill (the engine
//                     object is destroyed, like a SIGKILL between steps),
//                     then resumed from the newest on-disk snapshot. The
//                     resumed trajectory must be BIT-IDENTICAL to the
//                     reference: same compute times, same S, same states,
//                     same final positions.
//   3. corruption  -- the newest snapshot is truncated (torn write); the
//                     store must fall back to the previous one. Then a NaN
//                     is planted in the force array of a live run; the
//                     auditor must catch it and roll back.
//
// Per-step series (reference vs resumed, with match flags) mirror to
// checkpoint_resume.csv; the recovery summary prints at the end.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/problems.hpp"
#include "util/rng.hpp"

using namespace afmm;
using namespace afmm::bench;

namespace {

void reset_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace

int main(int argc, char** argv) {
  const long n = arg_or(argc, argv, "n", 20000);
  const int order = static_cast<int>(arg_or(argc, argv, "order", 4));
  const int steps = static_cast<int>(arg_or(argc, argv, "steps", 80));
  const int interval = static_cast<int>(arg_or(argc, argv, "interval", 10));
  long kill = arg_or(argc, argv, "kill", 0);
  const std::string out = out_dir(argc, argv);
  validate_args(argc, argv);
  // Default kill point: mid-interval after half the run, so the resume
  // genuinely replays a few steps instead of landing on a snapshot boundary.
  if (kill == 0) kill = steps / 2 + interval / 2;

  Rng rng(61);
  auto set = plummer(static_cast<std::size_t>(n), rng);

  EngineConfig cfg;
  cfg.fmm.order = order;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 8.0;
  cfg.balancer.initial_S = 64;
  cfg.dt = 1e-4;
  cfg.faults.gpu_throttle(steps / 4, 0, 0.4)
      .gpu_loss(steps / 2, 0)
      .gpu_recovery(3 * steps / 4, 0);
  cfg.resilience.checkpoint_interval = interval;
  cfg.resilience.audit.interval = interval;

  // G = 1, softening 1e-3; a resume starts from no bodies.
  auto problem = [&cfg](ParticleSet bodies) {
    return GravityProblem(
        cfg.fmm, 1.0, 1e-3,
        NodeSimulator(system_a_cpu(10), GpuSystemConfig::uniform(2)),
        std::move(bodies));
  };

  std::printf("Checkpoint/resume: %ld bodies, order %d, %d steps, "
              "snapshot every %d, killed at step %ld.\n",
              n, order, steps, interval, kill);

  // ---- act 1: uninterrupted reference ------------------------------------
  const std::string ref_dir = out + "/checkpoint_resume_ref";
  reset_dir(ref_dir);
  cfg.resilience.checkpoint_dir = ref_dir;
  GravityEngine reference(cfg, problem(set));
  const auto ref_records = reference.run(steps);

  // ---- act 2: kill at --kill, resume from the newest snapshot ------------
  const std::string kill_dir = out + "/checkpoint_resume_kill";
  reset_dir(kill_dir);
  cfg.resilience.checkpoint_dir = kill_dir;
  std::vector<StepRecord> resumed_records(static_cast<std::size_t>(steps));
  {
    GravityEngine doomed(cfg, problem(set));
    for (int i = 0; i < kill; ++i)
      resumed_records[static_cast<std::size_t>(i)] = doomed.step_once();
  }  // "SIGKILL": the process state is gone, only the store survives

  CheckpointStore store(kill_dir, cfg.resilience.checkpoint_keep);
  std::string error;
  auto snapshot = store.load_latest(&error);
  if (!snapshot) {
    std::fprintf(stderr, "resume failed: %s\n", error.c_str());
    return 1;
  }
  const int resumed_from = snapshot->step;
  GravityEngine resumed(cfg, problem({}), *snapshot);
  while (resumed.steps_taken() < steps) {
    const std::size_t at = static_cast<std::size_t>(resumed.steps_taken());
    resumed_records[at] = resumed.step_once();
  }

  // ---- compare -----------------------------------------------------------
  int series_mismatches = 0;
  Table series({"step", "ref_compute_s", "resumed_compute_s", "ref_S",
                "resumed_S", "state", "ckpt", "match"});
  series.mirror_csv(out + "/checkpoint_resume.csv");
  for (int i = 0; i < steps; ++i) {
    const auto& a = ref_records[static_cast<std::size_t>(i)];
    const auto& b = resumed_records[static_cast<std::size_t>(i)];
    const bool match = a.compute_seconds == b.compute_seconds &&
                       a.lb_seconds == b.lb_seconds && a.S == b.S &&
                       a.state == b.state;
    series_mismatches += match ? 0 : 1;
    const int stride = std::max(1, steps / 40);
    if (i % stride == 0 || !match || i + 1 == steps ||
        i == static_cast<int>(kill) || i == resumed_from)
      series.add_row({Table::integer(i), Table::num(a.compute_seconds),
                      Table::num(b.compute_seconds), Table::integer(a.S),
                      Table::integer(b.S), to_string(a.state),
                      Table::integer(a.checkpointed ? 1 : 0),
                      Table::integer(match ? 1 : 0)});
  }
  series.print("checkpoint resume | reference vs killed-and-resumed "
               "(full series in checkpoint_resume.csv)");

  const bool positions_identical = reference.problem().bodies().positions ==
                                  resumed.problem().bodies().positions;

  // ---- act 3a: torn write -> fallback to the previous snapshot -----------
  const auto files = store.files();
  std::filesystem::resize_file(files.front(),
                               std::filesystem::file_size(files.front()) / 2);
  auto fallback = store.load_latest(&error);
  const int fallback_step = fallback ? fallback->step : -1;

  // ---- act 3b: planted NaN force -> audit failure -> rollback ------------
  cfg.resilience.checkpoint_dir.clear();  // in-memory rollback only
  GravityEngine victim(cfg, problem(set));
  victim.run(interval);  // establish a good checkpoint past step 0
  victim.problem().corrupt_force_for_test(set.size() / 2);
  StepRecord recovery;
  for (int i = 0; i < interval && !recovery.rolled_back; ++i)
    recovery = victim.step_once();

  std::printf("\nrecovery summary:\n");
  std::printf("  resumed from snapshot of step %d (killed at %ld)\n",
              resumed_from, kill);
  std::printf("  per-step series mismatches:   %d\n", series_mismatches);
  std::printf("  final positions bit-identical: %s\n",
              positions_identical ? "yes" : "NO");
  std::printf("  torn newest snapshot -> fallback loaded step %d\n",
              fallback_step);
  std::printf("  NaN force: audit_failed=%d rolled_back=%d restored_step=%d "
              "(balancer now %s)\n",
              recovery.audit_failed ? 1 : 0, recovery.rolled_back ? 1 : 0,
              recovery.restored_step, to_string(victim.balancer().state()));

  const bool ok = series_mismatches == 0 && positions_identical && fallback &&
                  recovery.rolled_back;
  return ok ? 0 : 1;
}

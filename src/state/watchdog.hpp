// Per-step watchdog guarding the simulation loop.
//
// Two independent budgets, either of which trips the dog:
//
//   * wall_limit_seconds    -- real elapsed time between arm() and the
//                              post-step check. Catches the host process
//                              wedging (runaway traversal, pathological tree,
//                              livelocked task graph).
//   * virtual_limit_seconds -- the step's simulated total time. Catches the
//                              modeled machine degenerating (a corrupted tree
//                              whose P2P work exploded) deterministically, so
//                              watchdog trips are reproducible in tests.
//
// A trip never kills anything by itself: the simulation reacts by rolling
// back to the last good checkpoint and re-entering Search (see
// core/engine.hpp). Zero limits disable the respective budget.
#pragma once

#include <chrono>

namespace afmm {

struct WatchdogConfig {
  double wall_limit_seconds = 0.0;     // 0 = no real-time budget
  double virtual_limit_seconds = 0.0;  // 0 = no simulated-time budget

  bool enabled() const {
    return wall_limit_seconds > 0.0 || virtual_limit_seconds > 0.0;
  }
};

class StepWatchdog {
 public:
  StepWatchdog() = default;
  explicit StepWatchdog(const WatchdogConfig& config) : config_(config) {}

  void arm() { start_ = Clock::now(); }

  double wall_elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  // Check after the step completed; `virtual_step_seconds` is the step's
  // simulated total time (compute + balancing).
  bool tripped(double virtual_step_seconds) const {
    if (config_.virtual_limit_seconds > 0.0 &&
        virtual_step_seconds > config_.virtual_limit_seconds)
      return true;
    if (config_.wall_limit_seconds > 0.0 &&
        wall_elapsed() > config_.wall_limit_seconds)
      return true;
    return false;
  }

  const WatchdogConfig& config() const { return config_; }

 private:
  using Clock = std::chrono::steady_clock;
  WatchdogConfig config_;
  Clock::time_point start_ = Clock::now();
};

}  // namespace afmm

// Per-thread wall-clock accumulation of FMM operator times -- the paper's
// Section IV.D measurement machinery: "on the CPU each thread keeps track of
// the time spent on each FMM operation and the number of times it carried
// out each operation"; coefficients are then total time / total count summed
// over threads.
//
// The balancer derives its coefficients from the machine model's virtual
// times, not from these; they feed the wall-clock trace process (an engine
// whose FmmConfig::collect_real_timings is set) and afmm_cli's measured
// coefficient table.
// Correctness contract:
//
//   * every thread gets its OWN slot, no matter how many threads the OpenMP
//     runtime creates. The first kInlineThreads ids use cache-line padded
//     lock-free slots; higher ids (oversubscribed or explicitly enlarged
//     teams) fall back to a mutex-guarded overflow map instead of silently
//     aliasing onto slot id % kInlineThreads and racing;
//   * nested Scoped timers accrue SELF time only: a scope that is open while
//     an inner scope runs (on the same thread) subtracts the inner scope's
//     elapsed time, so each wall-clock second is attributed to exactly one
//     operator and total_seconds() can never exceed threads x wall time.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>

namespace afmm {

enum class FmmOp : int {
  kP2M = 0,
  kM2M,
  kM2L,
  kL2L,
  kL2P,
  kCount
};

const char* to_string(FmmOp op);

struct OpTotals {
  double seconds = 0.0;
  std::uint64_t count = 0;
  // Observational coefficient: seconds per application (0 if unused).
  double coefficient() const {
    return count ? seconds / static_cast<double>(count) : 0.0;
  }
};

class OpTimers {
 public:
  // Lock-free fast-path slots; thread ids at or above this go through the
  // guarded overflow map (correct, merely slower -- and exercised only when
  // the runtime oversubscribes).
  static constexpr int kInlineThreads = 64;

  OpTimers() = default;
  OpTimers(const OpTimers&) = delete;
  OpTimers& operator=(const OpTimers&) = delete;

  // Accumulate `seconds` and `count` applications of `op` on the calling
  // thread's slot. Thread id is taken from omp_get_thread_num().
  void add(FmmOp op, double seconds, std::uint64_t count = 1);

  // RAII scope: times its lifetime and accumulates on destruction. Nested
  // scopes on one thread form a stack; each scope reports its lifetime MINUS
  // the lifetimes of scopes nested inside it, so operator seconds are never
  // double counted when task bodies open their own timers.
  class Scoped {
   public:
    Scoped(OpTimers* timers, FmmOp op, std::uint64_t count = 1)
        : timers_(timers), op_(op), count_(count) {
      if (!timers_) return;
      parent_ = tl_top_;
      tl_top_ = this;
      start_ = std::chrono::steady_clock::now();
    }
    ~Scoped() {
      if (!timers_) return;
      const auto end = std::chrono::steady_clock::now();
      const double elapsed =
          std::chrono::duration<double>(end - start_).count();
      tl_top_ = parent_;
      if (parent_) parent_->child_seconds_ += elapsed;
      const double self = elapsed - child_seconds_;
      timers_->add(op_, self > 0.0 ? self : 0.0, count_);
    }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

   private:
    OpTimers* timers_;
    FmmOp op_;
    std::uint64_t count_;
    std::chrono::steady_clock::time_point start_;
    // Wall time spent inside scopes nested within this one (same thread).
    double child_seconds_ = 0.0;
    Scoped* parent_ = nullptr;
    inline static thread_local Scoped* tl_top_ = nullptr;
  };

  // Sums all thread slots for one operation.
  OpTotals totals(FmmOp op) const;

  // Total measured seconds across all operations and threads.
  double total_seconds() const;

  // Distinct thread slots that have recorded anything (regression hook for
  // the aliasing fix: must match the number of participating threads).
  int threads_seen() const;

  void reset();

 private:
  struct alignas(64) Slot {
    std::array<double, static_cast<int>(FmmOp::kCount)> seconds{};
    std::array<std::uint64_t, static_cast<int>(FmmOp::kCount)> counts{};
    bool used = false;
  };

  std::array<Slot, kInlineThreads> slots_{};
  // Threads with omp_get_thread_num() >= kInlineThreads; guarded because
  // several such threads may insert concurrently.
  mutable std::mutex overflow_mu_;
  std::map<int, Slot> overflow_;
};

}  // namespace afmm

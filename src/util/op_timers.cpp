#include "util/op_timers.hpp"

#include <omp.h>

namespace afmm {

const char* to_string(FmmOp op) {
  switch (op) {
    case FmmOp::kP2M: return "P2M";
    case FmmOp::kM2M: return "M2M";
    case FmmOp::kM2L: return "M2L";
    case FmmOp::kL2L: return "L2L";
    case FmmOp::kL2P: return "L2P";
    case FmmOp::kCount: break;
  }
  return "?";
}

void OpTimers::add(FmmOp op, double seconds, std::uint64_t count) {
  const int tid = omp_get_thread_num();
  if (tid < kInlineThreads) {
    Slot& slot = slots_[static_cast<std::size_t>(tid)];
    slot.seconds[static_cast<int>(op)] += seconds;
    slot.counts[static_cast<int>(op)] += count;
    slot.used = true;
    return;
  }
  // Oversubscribed team: a dedicated slot per thread id, guarded instead of
  // aliased -- the old `tid % 64` mapping made threads >= 64 race on the
  // low slots and corrupt the observational coefficients.
  std::lock_guard<std::mutex> lock(overflow_mu_);
  Slot& slot = overflow_[tid];
  slot.seconds[static_cast<int>(op)] += seconds;
  slot.counts[static_cast<int>(op)] += count;
  slot.used = true;
}

OpTotals OpTimers::totals(FmmOp op) const {
  OpTotals t;
  for (const auto& slot : slots_) {
    t.seconds += slot.seconds[static_cast<int>(op)];
    t.count += slot.counts[static_cast<int>(op)];
  }
  std::lock_guard<std::mutex> lock(overflow_mu_);
  for (const auto& [tid, slot] : overflow_) {
    (void)tid;
    t.seconds += slot.seconds[static_cast<int>(op)];
    t.count += slot.counts[static_cast<int>(op)];
  }
  return t;
}

double OpTimers::total_seconds() const {
  double sum = 0.0;
  for (int op = 0; op < static_cast<int>(FmmOp::kCount); ++op)
    sum += totals(static_cast<FmmOp>(op)).seconds;
  return sum;
}

int OpTimers::threads_seen() const {
  int n = 0;
  for (const auto& slot : slots_)
    if (slot.used) ++n;
  std::lock_guard<std::mutex> lock(overflow_mu_);
  for (const auto& [tid, slot] : overflow_) {
    (void)tid;
    if (slot.used) ++n;
  }
  return n;
}

void OpTimers::reset() {
  for (auto& slot : slots_) {
    slot.seconds.fill(0.0);
    slot.counts.fill(0);
    slot.used = false;
  }
  std::lock_guard<std::mutex> lock(overflow_mu_);
  overflow_.clear();
}

}  // namespace afmm

#include "faults/fault_injector.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "util/hash.hpp"

namespace afmm {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kGpuLoss: return "gpu-loss";
    case FaultKind::kGpuRecovery: return "gpu-recovery";
    case FaultKind::kGpuThrottle: return "gpu-throttle";
    case FaultKind::kCpuPreemption: return "cpu-preemption";
    case FaultKind::kCpuRestore: return "cpu-restore";
    case FaultKind::kTransferFaults: return "transfer-faults";
    case FaultKind::kNodeCrash: return "node-crash";
    case FaultKind::kNodeRejoin: return "node-rejoin";
    case FaultKind::kNodeLinkFaults: return "node-link-faults";
    case FaultKind::kBitFlip: return "sdc-bit-flip";
    case FaultKind::kSdcGpuBatch: return "sdc-gpu-batch";
    case FaultKind::kSdcExpansion: return "sdc-expansion";
    case FaultKind::kSdcHaloPayload: return "sdc-halo-payload";
  }
  return "?";
}

bool is_sdc(FaultKind k) {
  return k == FaultKind::kBitFlip || k == FaultKind::kSdcGpuBatch ||
         k == FaultKind::kSdcExpansion || k == FaultKind::kSdcHaloPayload;
}

std::string describe(const FaultEvent& e) {
  char buf[96];
  switch (e.kind) {
    case FaultKind::kGpuLoss:
    case FaultKind::kGpuRecovery:
      std::snprintf(buf, sizeof(buf), "%s dev=%d", to_string(e.kind),
                    e.device);
      break;
    case FaultKind::kGpuThrottle:
      std::snprintf(buf, sizeof(buf), "%s dev=%d clock=%g", to_string(e.kind),
                    e.device, e.clock_scale);
      break;
    case FaultKind::kCpuPreemption:
      std::snprintf(buf, sizeof(buf), "%s cores=%d", to_string(e.kind),
                    e.cores);
      break;
    case FaultKind::kCpuRestore:
      std::snprintf(buf, sizeof(buf), "%s", to_string(e.kind));
      break;
    case FaultKind::kTransferFaults:
      std::snprintf(buf, sizeof(buf), "%s p=%g for %d steps",
                    to_string(e.kind), e.fail_prob, e.duration);
      break;
    case FaultKind::kNodeCrash:
    case FaultKind::kNodeRejoin:
      std::snprintf(buf, sizeof(buf), "%s node=%d", to_string(e.kind), e.node);
      break;
    case FaultKind::kNodeLinkFaults:
      std::snprintf(buf, sizeof(buf), "%s node=%d p=%g for %d steps",
                    to_string(e.kind), e.node, e.fail_prob, e.duration);
      break;
    case FaultKind::kBitFlip:
    case FaultKind::kSdcGpuBatch:
    case FaultKind::kSdcExpansion:
    case FaultKind::kSdcHaloPayload:
      std::snprintf(buf, sizeof(buf), "%s step=%d", to_string(e.kind), e.step);
      break;
    default:
      std::snprintf(buf, sizeof(buf), "%s", to_string(e.kind));
  }
  return buf;
}

FaultSchedule& FaultSchedule::gpu_loss(int step, int device) {
  events.push_back({step, FaultKind::kGpuLoss, device, 1.0, 0, 0.0, 0});
  return *this;
}

FaultSchedule& FaultSchedule::gpu_recovery(int step, int device) {
  events.push_back({step, FaultKind::kGpuRecovery, device, 1.0, 0, 0.0, 0});
  return *this;
}

FaultSchedule& FaultSchedule::gpu_throttle(int step, int device,
                                           double clock_scale) {
  events.push_back(
      {step, FaultKind::kGpuThrottle, device, clock_scale, 0, 0.0, 0});
  return *this;
}

FaultSchedule& FaultSchedule::cpu_preemption(int step, int cores) {
  events.push_back({step, FaultKind::kCpuPreemption, 0, 1.0, cores, 0.0, 0});
  return *this;
}

FaultSchedule& FaultSchedule::cpu_restore(int step) {
  events.push_back({step, FaultKind::kCpuRestore, 0, 1.0, 0, 0.0, 0});
  return *this;
}

FaultSchedule& FaultSchedule::transfer_faults(int step, double fail_prob,
                                              int duration) {
  events.push_back(
      {step, FaultKind::kTransferFaults, 0, 1.0, 0, fail_prob, duration});
  return *this;
}

FaultSchedule& FaultSchedule::node_crash(int step, int node) {
  events.push_back({step, FaultKind::kNodeCrash, 0, 1.0, 0, 0.0, 0, node});
  return *this;
}

FaultSchedule& FaultSchedule::node_rejoin(int step, int node) {
  events.push_back({step, FaultKind::kNodeRejoin, 0, 1.0, 0, 0.0, 0, node});
  return *this;
}

FaultSchedule& FaultSchedule::node_link_faults(int step, int node,
                                               double fail_prob, int duration) {
  events.push_back(
      {step, FaultKind::kNodeLinkFaults, 0, 1.0, 0, fail_prob, duration, node});
  return *this;
}

FaultSchedule& FaultSchedule::bit_flip(int step) {
  events.push_back({step, FaultKind::kBitFlip, 0, 1.0, 0, 0.0, 0});
  return *this;
}

FaultSchedule& FaultSchedule::sdc_gpu_batch(int step) {
  events.push_back({step, FaultKind::kSdcGpuBatch, 0, 1.0, 0, 0.0, 0});
  return *this;
}

FaultSchedule& FaultSchedule::sdc_expansion(int step) {
  events.push_back({step, FaultKind::kSdcExpansion, 0, 1.0, 0, 0.0, 0});
  return *this;
}

FaultSchedule& FaultSchedule::sdc_halo_payload(int step) {
  events.push_back({step, FaultKind::kSdcHaloPayload, 0, 1.0, 0, 0.0, 0});
  return *this;
}

FaultInjector::FaultInjector(FaultSchedule schedule, std::uint64_t seed)
    : schedule_(std::move(schedule)), seed_(seed) {
  std::stable_sort(
      schedule_.events.begin(), schedule_.events.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.step < b.step; });
}

FaultInjectorSnapshot FaultInjector::snapshot() const {
  return {static_cast<std::uint64_t>(next_), transfer_window_end_,
          static_cast<std::uint64_t>(schedule_.events.size()),
          static_cast<std::uint64_t>(fired_mark_)};
}

void FaultInjector::restore(const FaultInjectorSnapshot& snap) {
  if (snap.num_events != schedule_.events.size())
    throw std::invalid_argument(
        "FaultInjector::restore: snapshot belongs to a different schedule");
  next_ = static_cast<std::size_t>(snap.next_event);
  transfer_window_end_ = snap.transfer_window_end;
  // Monotone: an in-process rollback rewinds the cursor but must not forget
  // which corruption events already fired (max keeps the current mark); a
  // cross-process resume adopts the persisted mark.
  fired_mark_ = std::max(fired_mark_, static_cast<std::size_t>(snap.fired_mark));
  // A restore legitimately rewinds time; re-arm the out-of-order guard.
  last_step_ = INT_MIN;
}

bool FaultInjector::exhausted() const {
  return next_ >= schedule_.events.size() && transfer_window_end_ < 0;
}

void FaultInjector::apply(const FaultEvent& e, MachineHealth& health) {
  switch (e.kind) {
    case FaultKind::kGpuLoss:
      if (e.device >= 0 && e.device < static_cast<int>(health.gpus.size()))
        health.gpus[e.device].alive = false;
      break;
    case FaultKind::kGpuRecovery:
      if (e.device >= 0 && e.device < static_cast<int>(health.gpus.size())) {
        health.gpus[e.device].alive = true;
        health.gpus[e.device].clock_scale = 1.0;
      }
      break;
    case FaultKind::kGpuThrottle:
      if (e.device >= 0 && e.device < static_cast<int>(health.gpus.size()))
        health.gpus[e.device].clock_scale =
            std::clamp(e.clock_scale, 0.01, 1.0);
      break;
    case FaultKind::kCpuPreemption:
      health.cpu_cores_available =
          std::max(1, health.cpu_cores_available - std::max(0, e.cores));
      break;
    case FaultKind::kCpuRestore:
      health.cpu_cores_available = health.cpu_cores_provisioned;
      break;
    case FaultKind::kTransferFaults:
      health.transfer_fault_prob = std::clamp(e.fail_prob, 0.0, 1.0);
      transfer_window_end_ = e.duration > 0 ? e.step + e.duration : -1;
      if (health.transfer_fault_prob == 0.0) transfer_window_end_ = -1;
      break;
    case FaultKind::kNodeCrash:
    case FaultKind::kNodeRejoin:
    case FaultKind::kNodeLinkFaults:
      // Node-scoped: no single-machine field to touch. The cluster layer
      // interprets the fired event against its per-node views; the epoch
      // bump below still marks "something changed" for observers.
      break;
    case FaultKind::kBitFlip:
      health.sdc.bit_flip = true;
      health.sdc.bit_flip_seed = event_seed(e);
      return;  // silent: no epoch bump (data corruption != capability change)
    case FaultKind::kSdcGpuBatch:
      health.sdc.gpu_batch = true;
      health.sdc.gpu_batch_seed = event_seed(e);
      return;
    case FaultKind::kSdcExpansion:
      health.sdc.expansion = true;
      health.sdc.expansion_seed = event_seed(e);
      return;
    case FaultKind::kSdcHaloPayload:
      health.sdc.halo_payload = true;
      health.sdc.halo_seed = event_seed(e);
      return;
  }
  ++health.fault_epoch;
}

std::uint64_t FaultInjector::event_seed(const FaultEvent& e) const {
  return splitmix64(seed_ ^
                    (static_cast<std::uint64_t>(e.step) * 0x9e3779b97f4a7c15ull) ^
                    (static_cast<std::uint64_t>(e.kind) << 56));
}

std::vector<FaultEvent> FaultInjector::advance_to(int step,
                                                  MachineHealth& health) {
  if (step < last_step_) {
    char msg[128];
    std::snprintf(msg, sizeof(msg),
                  "FaultInjector::advance_to: step %d after step %d (steps "
                  "must be nondecreasing; restore() re-arms the guard)",
                  step, last_step_);
    throw std::logic_error(msg);
  }
  last_step_ = step;
  std::vector<FaultEvent> fired;
  if (transfer_window_end_ >= 0 && step >= transfer_window_end_) {
    health.transfer_fault_prob = 0.0;
    transfer_window_end_ = -1;
    ++health.fault_epoch;
  }
  while (next_ < schedule_.events.size() &&
         schedule_.events[next_].step <= step) {
    const FaultEvent& e = schedule_.events[next_];
    // An SDC event below the fired high-water mark already corrupted a
    // previous incarnation of this step; replay after a rollback must not
    // corrupt again or the run could never progress past an unrepairable
    // event. Fail-stop events DO re-apply: restore() rebuilt pre-fault
    // health, so replay needs them to reproduce the machine trajectory.
    const bool skip = is_sdc(e.kind) && next_ < fired_mark_;
    if (!skip) {
      apply(e, health);
      fired.push_back(e);
    }
    ++next_;
    fired_mark_ = std::max(fired_mark_, next_);
  }
  // Fresh per-step seed keeps transfer-retry draws deterministic yet
  // uncorrelated across steps.
  health.transfer_seed = splitmix64(seed_ ^ static_cast<std::uint64_t>(step));
  return fired;
}

}  // namespace afmm

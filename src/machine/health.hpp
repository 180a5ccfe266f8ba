// Mutable health registry of the virtual node.
//
// The configuration structs (CpuModelConfig, GpuSystemConfig) describe the
// machine as PROVISIONED; MachineHealth describes it as it is RIGHT NOW:
// which GPUs are alive, how far each one's clock has been throttled, how
// many CPU cores survive preemption by co-tenants, and whether the CPU-GPU
// links are currently dropping transfers. The fault injector (faults/) is
// the only writer in normal operation; NodeSimulator and the P2P executor
// consult it every step, so the load balancer always balances the machine
// that is actually there.
//
// `fault_epoch` increments on every applied change, letting observers tell
// "the machine changed" apart from "the workload changed" without comparing
// every field.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sdc/sdc.hpp"

namespace afmm {

struct GpuHealth {
  bool alive = true;
  // Current clock as a fraction of the configured clock: 1.0 nominal,
  // < 1.0 thermally throttled. Ignored while !alive.
  double clock_scale = 1.0;
};

struct MachineHealth {
  std::vector<GpuHealth> gpus;
  // Cores currently usable; never above the provisioned count. A value of 0
  // still schedules on one core (the process itself always runs somewhere).
  int cpu_cores_available = 0;
  int cpu_cores_provisioned = 0;
  // Probability that a single CPU-GPU transfer attempt fails while a
  // transient-fault window is active (0 = healthy links).
  double transfer_fault_prob = 0.0;
  // Seed the transfer retry model draws from; the fault injector rotates it
  // per step so retries are deterministic per (schedule seed, step).
  std::uint64_t transfer_seed = 0;
  // Incremented by every applied fault/recovery event. Silent-corruption
  // (SDC) events deliberately do NOT bump it: they change data, not machine
  // capability, and an epoch bump would make the balancer treat a bit flip
  // as a capability shift.
  std::uint64_t fault_epoch = 0;
  // Silent corruption armed for the step currently being solved. Transient:
  // set by FaultInjector::apply, consumed by the solver/engine, cleared at
  // the end of the step; never serialized (checkpoints are taken from a
  // quiescent clean state).
  SdcPending sdc;

  // (Re)provision for `num_gpus` devices and `cores` CPU cores, all healthy.
  // The fault epoch is preserved AND bumped, never zeroed: re-provisioning is
  // itself a capability change, and an observer that stored an epoch before a
  // checkpoint-restore-then-reset sequence must never see a value repeat
  // (zeroing made post-reset epochs collide with pre-reset ones, silently
  // hiding real shifts from epoch-comparing observers).
  void reset(std::size_t num_gpus, int cores) {
    gpus.assign(num_gpus, GpuHealth{});
    cpu_cores_available = cores;
    cpu_cores_provisioned = cores;
    transfer_fault_prob = 0.0;
    transfer_seed = 0;
    sdc.clear();
    ++fault_epoch;
  }

  int num_alive_gpus() const {
    int n = 0;
    for (const auto& g : gpus) n += g.alive ? 1 : 0;
    return n;
  }

  // Relative capability of device `g` (0 when dead or out of range).
  double gpu_scale(std::size_t g) const {
    if (g >= gpus.size() || !gpus[g].alive) return 0.0;
    return gpus[g].clock_scale > 0.0 ? gpus[g].clock_scale : 0.0;
  }

  // Sum of per-GPU clock scales over alive devices; the "how much GPU is
  // left" figure step records report (provisioned healthy = num devices).
  double total_gpu_capability() const {
    double c = 0.0;
    for (std::size_t g = 0; g < gpus.size(); ++g) c += gpu_scale(g);
    return c;
  }
};

}  // namespace afmm

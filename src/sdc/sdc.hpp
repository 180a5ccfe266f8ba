// Silent-data-corruption (SDC) primitives shared by every detection surface.
//
// Fail-stop faults (PRs 2/3/7) announce themselves; silent corruption does
// not. This header holds the pieces the rest of the system composes into an
// ABFT-style defense:
//
//   - deterministic seed mixing + index/bit picking so injected corruption
//     replays bit-identically from a (seed, step, kind) triple;
//   - the raw-byte FNV-1a checksum of util/hash.hpp, used both as the
//     detector (checksum at production time, verify at consumption time)
//     and as the repair ground truth (a repair is only counted when
//     re-hashing reproduces the stored sum, i.e. the repair is bit-exact);
//   - SdcPending, the transient per-step carrier on MachineHealth through
//     which the FaultInjector tells solvers/engine what to corrupt;
//   - SdcDetectConfig (which detectors are armed) and SdcReport (what was
//     injected / detected / repaired this solve).
//
// Everything here is dependency-light on purpose: machine/health.hpp embeds
// SdcPending, so this header must not pull in tree/solver/obs types.
#pragma once

#include <cstdint>
#include <cstring>

#include "util/hash.hpp"

namespace afmm {

// Deterministic pick of an index in [0, n). n must be > 0.
inline std::size_t sdc_pick(std::uint64_t seed, std::size_t n) {
  return static_cast<std::size_t>(splitmix64(seed) %
                                  static_cast<std::uint64_t>(n));
}

// Flip one mantissa/exponent bit of a double in place. Bits 32..61 keep the
// value finite and the corruption "plausible" (no NaN/Inf the finite audit
// would trivially catch) -- this is the silent part of silent corruption.
inline void sdc_flip_double_bit(double& v, int bit) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  u ^= (1ull << (32 + (static_cast<unsigned>(bit) % 30u)));
  std::memcpy(&v, &u, sizeof v);
}

// What the FaultInjector armed for the step being solved. Lives transiently
// on MachineHealth (set by FaultInjector::apply, consumed by the solver /
// engine, cleared at the end of the step) and is deliberately NOT
// serialized: a checkpoint is always taken from a quiescent, clean state.
struct SdcPending {
  bool bit_flip = false;       // kBitFlip: flip a bit of the derived state
  bool gpu_batch = false;      // kSdcGpuBatch: corrupt one P2P batch result
  bool expansion = false;      // kSdcExpansion: flip a multipole coefficient
  bool halo_payload = false;   // kSdcHaloPayload: corrupt a halo message
  std::uint64_t bit_flip_seed = 0;
  std::uint64_t gpu_batch_seed = 0;
  std::uint64_t expansion_seed = 0;
  std::uint64_t halo_seed = 0;

  void clear() { *this = SdcPending{}; }
};

// Which in-solve detectors are armed (FmmConfig::sdc). All default OFF so the
// seed behavior -- and the solver's instruction stream -- is untouched unless
// a run opts in. With detectors ON and no fault scheduled the solve is still
// bit-identical: detection only reads, it never rewrites clean data.
struct SdcDetectConfig {
  // Checksum every effective node's multipole block after the upward pass,
  // verify before the downward pass, and run the monopole/mass-moment
  // consistency tripwire over internal nodes.
  bool expansion_checks = false;
  // Additionally re-aggregate each internal node's expansion from its
  // children through M2M and require a bitwise match (the strongest -- and
  // costliest -- expansion invariant; one extra M2M sweep per solve).
  bool expansion_reaggregation = false;
  // Checksum every P2P batch result at production, verify before it is
  // flushed into the global accumulator.
  bool p2p_checks = false;
  // Every Nth P2P batch additionally re-evaluates its first target body on
  // the CPU and requires a bitwise match (0 = off).
  int p2p_verify_stride = 0;
};

// Tally of SDC activity inside one solve (or one step).
struct SdcReport {
  int injected = 0;    // corruption events applied
  int detected = 0;    // corruption events caught by a detector
  int repaired = 0;    // surgical repairs verified bit-exact
  int unrepaired = 0;  // detections whose local repair failed verification
  void merge(const SdcReport& o) {
    injected += o.injected;
    detected += o.detected;
    repaired += o.repaired;
    unrepaired += o.unrepaired;
  }
};

// Hook bundle threaded into a detection surface (P2P executor, far field).
// `detect` arms the always-on verification; `inject` asks the surface to
// corrupt one deterministic victim drawn from `seed`; counts land in
// `report`. A null hooks pointer means the surface runs the untouched
// seed code path.
struct SdcHooks {
  const SdcDetectConfig* detect = nullptr;
  bool inject = false;
  std::uint64_t seed = 0;
  SdcReport* report = nullptr;
};

}  // namespace afmm

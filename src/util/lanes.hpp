// Lane widths of the SIMD lane routines.
//
// Two hot paths run in lock-step lanes, one target per lane, each routine
// built at W = 2 and W = 4 from one body: the P2P kernels'
// accumulate_lanes<W>() (kernels/*.cpp), one target body per lane, and M2L,
// one target node per lane: ExpansionContext::m2l_lanes<W>()
// (expansion/operators.cpp) with its derivative tensors,
// LaplaceDerivatives::evaluate_lanes<W>() (expansion/laplace_derivs.cpp).
// W = 2 fills one SSE2 register of doubles and runs on any x86-64 CPU;
// W = 4 fills one AVX2 register and is compiled for AVX2 alone
// (AFMM_TARGET_AVX2), so it may run only where lane_width() is 4. Every lane
// performs the scalar routine's exact operations: sqrt and division round
// correctly at any vector width, and -ffp-contract=off keeps FMA out.
//
// The baseline stays 2 wide: 4 lanes in two SSE2 registers were no faster
// (EXPERIMENTS.md, `BM_P2P_*`).
#pragma once

// Compiles one function for AVX2 on x86-64; elsewhere the 4-lane routines
// build for the target's baseline ISA and lane_width() never picks them.
#if defined(__x86_64__)
#define AFMM_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define AFMM_TARGET_AVX2
#endif

namespace afmm {

// Lanes one lane-routine call advances together on this CPU: 4 when it
// supports AVX2, else 2. Decided once per process.
int lane_width();

}  // namespace afmm

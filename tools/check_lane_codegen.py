#!/usr/bin/env python3
"""Check that the SIMD lane routines in libafmm.a are vectorized.

Three routines are built twice from one body each, W = 2 for baseline
x86-64 and W = 4 for AVX2 (src/util/lanes.hpp): every P2P kernel's
accumulate_lanes<W>() (src/kernels/*.cpp), the M2L derivative tensor's
LaplaceDerivatives::evaluate_lanes<W>() (src/expansion/laplace_derivs.cpp)
and the M2L contraction, ExpansionContext::m2l_lanes<W>()
(src/expansion/operators.cpp). A lost vectorization keeps every test green,
because the lanes stay bit-identical, but it throws away the lanes' speed.
So this disassembles the library with `objdump -d -C` and requires:

  * accumulate_lanes<2>: packed SSE2 `sqrtpd` and `divpd` on xmm registers;
  * accumulate_lanes<4>: packed AVX `vsqrtpd` and `vdivpd` on ymm registers;
  * evaluate_lanes<2>, m2l_lanes<2>: packed SSE2 `mulpd` and `addpd` on xmm
    registers;
  * evaluate_lanes<4>, m2l_lanes<4>: packed AVX `vmulpd` and `vaddpd` on ymm
    registers.

Run it on a default build: under -march=native the 2-lane routines use the
VEX forms (`vsqrtpd` on xmm) and fail the 2-lane rules.

Usage: check_lane_codegen.py [path/to/libafmm.a]   (default build/src/libafmm.a)
Exits 1 naming each routine that is missing or lacks an instruction.
"""
import re
import subprocess
import sys

P2P = {
    2: (r"\tsqrtpd\s.*%xmm", r"\tdivpd\s.*%xmm"),
    4: (r"\tvsqrtpd\s.*%ymm", r"\tvdivpd\s.*%ymm"),
}
MUL_ADD = {
    2: (r"\tmulpd\s.*%xmm", r"\taddpd\s.*%xmm"),
    4: (r"\tvmulpd\s.*%ymm", r"\tvaddpd\s.*%ymm"),
}
# Routine (without its template arguments) -> {width: required patterns}.
ROUTINES = {
    "afmm::GravityKernel::accumulate_lanes": P2P,
    "afmm::StokesletKernel::accumulate_lanes": P2P,
    "afmm::LaplaceDerivatives::evaluate_lanes": MUL_ADD,
    "afmm::ExpansionContext::m2l_lanes": MUL_ADD,
}
HEADER = re.compile(r"^[0-9a-f]+ <(.*)>:$")


def routines(disassembly):
    """Maps each function name to its instruction lines."""
    out = {}
    lines = None
    for line in disassembly.splitlines():
        m = HEADER.match(line)
        if m:
            lines = out.setdefault(m.group(1), [])
        elif lines is not None and line.strip():
            lines.append(line)
    return out


def main():
    lib = sys.argv[1] if len(sys.argv) > 1 else "build/src/libafmm.a"
    disassembly = subprocess.run(["objdump", "-d", "-C", lib], check=True,
                                 capture_output=True, text=True).stdout
    found = routines(disassembly)
    failures = []
    for routine, required in ROUTINES.items():
        for width, patterns in required.items():
            name = f"{routine}<{width}>("
            body = [l for f, ls in found.items() if name in f for l in ls]
            if not body:
                failures.append(f"{name}...): not found in {lib}")
                continue
            for pattern in patterns:
                if not any(re.search(pattern, l) for l in body):
                    failures.append(f"{name}...): no instruction matching "
                                    f"{pattern!r}")
            print(f"check_lane_codegen: {routine} width {width}: "
                  f"{len(body)} instructions")
    for f in failures:
        print(f"check_lane_codegen: FAIL {f}", file=sys.stderr)
    if failures:
        return 1
    print("check_lane_codegen: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

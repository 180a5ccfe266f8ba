#!/usr/bin/env python3
"""Check that the P2P lane routines in libafmm.a are vectorized.

Each kernel builds accumulate_lanes<W>() twice from one body
(src/kernels/*.cpp): W = 2 for baseline x86-64 and W = 4 for AVX2. A lost
vectorization keeps every test green, because the lanes stay bit-identical,
but it halves the near field's speed. So this disassembles the library with
`objdump -d -C` and requires, in every kernel's routine:

  * W = 2: packed SSE2 `sqrtpd` and `divpd` on xmm registers;
  * W = 4: packed AVX `vsqrtpd` and `vdivpd` on ymm registers.

Run it on a default build: under -march=native the 2-lane routines use the
VEX forms (`vsqrtpd` on xmm) and fail the first rule.

Usage: check_lane_codegen.py [path/to/libafmm.a]   (default build/src/libafmm.a)
Exits 1 naming each routine that is missing or lacks an instruction.
"""
import re
import subprocess
import sys

KERNELS = ("GravityKernel", "StokesletKernel")
REQUIRED = {
    2: (r"\tsqrtpd\s.*%xmm", r"\tdivpd\s.*%xmm"),
    4: (r"\tvsqrtpd\s.*%ymm", r"\tvdivpd\s.*%ymm"),
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
    for kernel in KERNELS:
        for width, patterns in REQUIRED.items():
            name = f"afmm::{kernel}::accumulate_lanes<{width}>("
            body = [l for f, ls in found.items() if name in f for l in ls]
            if not body:
                failures.append(f"{name}...): not found in {lib}")
                continue
            for pattern in patterns:
                if not any(re.search(pattern, l) for l in body):
                    failures.append(f"{name}...): no instruction matching "
                                    f"{pattern!r}")
            print(f"check_lane_codegen: {kernel} width {width}: "
                  f"{len(body)} instructions")
    for f in failures:
        print(f"check_lane_codegen: FAIL {f}", file=sys.stderr)
    if failures:
        return 1
    print("check_lane_codegen: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

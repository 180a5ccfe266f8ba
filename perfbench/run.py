#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The binary is built with CMake under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench, inside the checkout); traced runs write their span
traces under its runs/ directory. The measured program gets a fixed OpenMP
thread count below nproc, pinned to cores, and an environment without
AFMM_* or OMP_* variables, so nothing in the caller's environment can swap
the program under test.

The last line of standard output is the result JSON; the line before it
holds the run's annotations. The exit code is the binary's: non-zero when a
correctness gate fails, when the build fails, or when the program's sources
are missing (a tree holding only the benchmark).

--self-test runs every workload at tiny sizes, traced and untraced, checks
every metric name and unit against BENCHMARK.json, forces each correctness
gate to fail once to prove it fires, and checks that a tree without the
program's sources is refused.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def threads():
    # Fixed and below nproc: 2 threads measured steadier than 4 on a 4-vCPU VM.
    return 2 if (os.cpu_count() or 1) >= 3 else 1


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"program sources not found under {ROOT}; nothing to measure")
        return None
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            # Build output goes to stderr: stdout carries only results.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                log("build failed: " + " ".join(cmd))
                return None
    return os.path.join(bdir, "perfbench")


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("AFMM_", "OMP_", "GOMP_"))}
    env["OMP_NUM_THREADS"] = str(threads())
    env["OMP_DYNAMIC"] = "false"
    # Threads pinned to fixed cores: unpinned, the calibration sweep and the
    # steps around it could land on vCPUs of different speed (same-seed
    # calibration times ranged 0.50-0.81 ms; pinned, 0.79-0.81 ms).
    env["OMP_PROC_BIND"] = "close"
    env["OMP_PLACES"] = "cores"
    return env


def run_binary(exe, workload, seed, seconds, trace, extra=(), quiet=False):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--threads", str(threads()),
           "--out", os.path.join(build_dir(), "runs"),
           "--commit", commit(), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL if quiet else None,
                              text=True, env=child_env(), cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def main_run(args):
    exe = build()
    if exe is None:
        return 1
    code, lines = run_binary(exe, args.workload, args.seed, args.seconds,
                             args.trace)
    result = parse_result(lines)
    if result is None:
        for line in lines:
            print(line, file=sys.stderr)
        log(f"{args.workload} printed no result (exit {code})")
        return code or 1
    for line in lines:
        print(line)
    return code


# ---- self-test --------------------------------------------------------------

GATES = [  # (gate forced to fail, workload, trace)
    ("determinism", "solve-plummer", 0),
    ("fingerprint", "sim-stokes-blob", 1),
    ("coverage", "replay-collapse", 1),
    ("rel_err", "replay-collapse", 0),
    ("divergence", "service-churn", 0),
]


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    exe = build()
    if exe is None:
        return 1
    problems = []
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for w in bench["workloads"]:
        for trace in (0, 1):
            code, lines = run_binary(exe, w["name"], 7, 2, trace, ["--smoke", "1"])
            result = parse_result(lines)
            where = f"{w['name']} trace={trace}"
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{where}: exit {code}, result {result}")
                continue
            want = [(m["name"], m["unit"]) for m in expected[trace]]
            got = [(k, v["unit"]) for k, v in result["metrics"].items()]
            if got != want:
                problems.append(f"{where}: metrics {got} != BENCHMARK.json {want}")
            for k, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                    problems.append(f"{where}: {k} is not a finite number")
            if not isinstance(result["attempted"], int) or result["attempted"] < 1:
                problems.append(f"{where}: attempted must be a positive integer")
            log(f"ok   {where}")
    for gate, workload, trace in GATES:
        code, lines = run_binary(exe, workload, 7, 1, trace,
                                 ["--smoke", "1", "--break", gate], quiet=True)
        result = parse_result(lines)
        if code == 0 or result is None or result["correct"]:
            problems.append(f"gate {gate} on {workload} did not fire (exit {code})")
        else:
            log(f"ok   gate {gate} fires on {workload}")

    # A tree holding only the benchmark must be refused without a result.
    bare = os.path.join(build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "solve-plummer", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=RUN_TIMEOUT_S)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or parse_result(proc.stdout.splitlines()) is not None:
        problems.append("a tree without the program's sources was not refused")
    else:
        log("ok   a tree without the program's sources is refused")

    for p in problems:
        log("FAIL " + p)
    log("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())

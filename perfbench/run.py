#!/usr/bin/env python3
"""InteGrade performance benchmark: one command, one workload, one run.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds the benchmark driver (perfbench/igbench.cpp linked against the
libraries in src/) from the current tree, then runs whole rounds of the
workload, each round in a fresh single-threaded process, until --seconds of
host time have passed. Every round runs the same simulated workload (the
seed fixes it), so the round-to-round spread is host noise and the reported
value of each metric is the median over the rounds.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced rounds and reports the per-layer metrics; the traced rounds time the
benchmark's own calls into each layer and write their phase spans as JSONL.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The build tree and the result files (with an environment stamp) go under
$CARGO_TARGET_DIR, or .bench_build when it is unset.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
WORKLOADS = ("iup-campus", "task-burst", "bsp-ckpt", "tenant-mix")
BUILD_TYPE = "Release"
MIN_ROUNDS = 3
# Stop starting rounds once one more would end past this (the run must end
# within 180 s).
ROUND_BUDGET_S = 150.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(SPEC_PATH) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC_PATH}: {e}")


def build(build_dir):
    """Configure (once) and build the driver; returns the executable path."""
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    ninja = shutil.which("ninja")
    generated = os.path.join(build_dir, "build.ninja" if ninja else "Makefile")
    steps = []
    if not os.path.exists(generated):
        steps.append([cmake, "-S", BENCH_DIR, "-B", build_dir,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"] +
                     (["-G", "Ninja"] if ninja else []))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append([cmake, "--build", build_dir, "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed (log: {log_path})")
    exe = os.path.join(build_dir, "igbench")
    if not os.access(exe, os.X_OK):
        fail(f"build produced no {exe}")
    return exe


def cmake_cache(build_dir):
    cache = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return cache


def environment(root, build_dir, args):
    """Where and how the figures were taken."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = cmake_cache(build_dir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = "unknown"
    if compiler:
        out = subprocess.run([compiler, "--version"], capture_output=True, text=True)
        if out.returncode == 0 and out.stdout:
            version = out.stdout.splitlines()[0]
    build_type = cache.get("CMAKE_BUILD_TYPE", BUILD_TYPE)
    flags = " ".join(f for f in (cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", ""))
                     if f)
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": version,
        "build_type": build_type,
        "cxx_flags": flags,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_round(exe, workload, seed, spans_path=None):
    cmd = [exe, "--workload", workload, "--seed", str(seed)]
    if spans_path:
        cmd += ["--trace", spans_path]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0 or not out.stdout.strip():
        fail(f"round failed ({' '.join(cmd)}): {out.stderr.strip()}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_digests(results_dir, exe, workload, seed, rounds):
    """Same program, same seed, same simulation: every round of this run, and
    every earlier run of this seed with the same driver binary, must give
    one digest. Returns the rounds whose digest differs from the reference."""
    path = os.path.join(results_dir, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    with open(exe, "rb") as f:
        binary = hashlib.sha256(f.read()).hexdigest()[:16]
    key = f"{workload}/{seed}/{binary}"
    reference = known.get(key, rounds[0]["digest"])
    if key not in known:
        known[key] = reference
        with open(path, "w") as f:
            json.dump(known, f, indent=1, sort_keys=True)
    return [r for r in rounds if r["digest"] != reference]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    # Turn SIGTERM into an exception, so a running round's process is killed
    # and reaped (subprocess.run does both on any exception) before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec = load_spec()
    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    results_dir = os.path.join(build_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{time.time_ns() % 10**9:09d}"
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}"

    # Rounds: untraced only, or untraced and traced in turn.
    plain, traced = [], []
    start = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        enough = elapsed >= args.seconds and len(plain) >= (1 if args.trace else MIN_ROUNDS)
        if args.trace:
            enough = enough and len(traced) >= 1
        if enough or (plain and elapsed + longest > ROUND_BUDGET_S):
            break
        t0 = time.monotonic()
        if args.trace and len(traced) < len(plain):
            spans = os.path.join(results_dir, f"{tag}-r{len(traced)}.spans.jsonl")
            traced.append(run_round(exe, args.workload, args.seed, spans))
        else:
            plain.append(run_round(exe, args.workload, args.seed))
        longest = max(longest, time.monotonic() - t0)

    rounds = plain + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    mismatched = check_digests(results_dir, exe, args.workload, args.seed, rounds)
    failed += sum(r["attempted"] - r["failed"] for r in mismatched)
    failed_checks = sorted({name for r in rounds for name, ok in r["checks"].items() if not ok})
    correct = not failed_checks

    def med(key, source):
        return statistics.median(r[key] for r in source)

    metrics = {}
    if args.trace == 0:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": med(m["name"], plain), "unit": m["unit"]}
    else:
        extra = {"trace.wall_s": med("wall_s", traced),
                 "trace.overhead_s": med("wall_s", traced) - med("wall_s", plain)}
        for m in spec["per_layer"]:
            name = m["name"]
            if name in extra:
                value = extra[name]
            else:
                if any(name not in r["layers"] for r in traced):
                    fail(f"traced round did not report {name}")
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": m["unit"]}

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"environment": environment(root, build_dir, args),
              "result": result, "failed_checks": failed_checks,
              "digest_mismatches": len(mismatched),
              "rounds": [dict(r, traced=False) for r in plain] +
                        [dict(r, traced=True) for r in traced]}
    with open(os.path.join(results_dir, f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1)

    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced + {len(traced)} "
          f"traced rounds, {attempted} tasks attempted, {failed} failed"
          + (f", checks failed: {', '.join(failed_checks)}" if failed_checks else ""))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

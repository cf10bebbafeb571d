#!/usr/bin/env python3
"""Build and run the nautilus benchmark (see perfbench/README.md).

One run, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
The last line of stdout is the JSON result.

Self-test (every workload at a tiny size; checks every metric is printed
with its unit and that no query fails):
    python3 perfbench/run.py --self-test

Spread report (N runs on seeds FIRST..FIRST+N-1; median, quartiles and
(q3 - q1) / median per metric):
    python3 perfbench/run.py --spread N --workload NAME [--seconds S] [--trace 0|1] [--seed FIRST]

The runner is built from the checkout's own sources into .bench_build/.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
SCRATCH_DIR = ROOT / ".bench_build" / "runs"
RUNNER = BUILD_DIR / "perfbench_runner"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; serialized by a lock file."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                raise RuntimeError("build failed: " + " ".join(cmd))


def run_once(workload, seed, seconds, trace):
    """One run of the runner; returns (exit code, stdout text)."""
    cmd = [str(RUNNER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", str(SCRATCH_DIR)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, out


def result_of(out):
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def self_test():
    spec = benchmark_spec()
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_once(w["name"], 7, 0.5, trace)
            res = result_of(out) if code == 0 else None
            where = f"{w['name']} --trace {trace}"
            if res is None:
                problems.append(f"{where}: exit {code}, no result")
                continue
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{where}: {m['name']} missing or not in {m['unit']}")
            if not any(line.split()[:1] == ["failed_frac"] for line in out.splitlines()):
                problems.append(f"{where}: failed_frac not printed")
            if res["failed"] != 0 or not res["correct"]:
                problems.append(f"{where}: failed_frac is {res['failed']}/{res['attempted']}")
            print(f"{where}: {len(res['metrics'])} metrics, "
                  f"{res['failed']} of {res['attempted']} queries failed")
    for p in problems:
        print("FAIL " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def spread(n, workload, seconds, trace, first_seed):
    values = {}
    units = {}
    failed = 0
    for i in range(n):
        code, out = run_once(workload, first_seed + i, seconds, trace)
        res = result_of(out) if code == 0 else None
        if res is None:
            log(f"seed {first_seed + i}: exit {code}, no result")
            return 1
        failed += res["failed"]
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"{workload} --trace {trace}: {n} runs, seeds {first_seed}..{first_seed + n - 1}, "
          f"{failed} failed queries")
    print(f"  {'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/median':>10}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        rel = (q3 - q1) / med if med else 0.0
        print(f"  {name:40} {med:14.6g} {q1:14.6g} {q3:14.6g} {rel:10.4f} {units[name]}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--spread", type=int, metavar="N")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    try:
        build()
    except (OSError, RuntimeError) as e:
        log(str(e))
        return 1
    if args.self_test:
        return self_test()
    if args.spread:
        return spread(args.spread, args.workload, args.seconds, args.trace, args.seed)
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code if result_of(out) is not None else (code or 1)


if __name__ == "__main__":
    sys.exit(main())

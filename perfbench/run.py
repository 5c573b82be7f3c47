#!/usr/bin/env python3
"""Builds and runs the end-to-end pipeline benchmark (see README.md).

    python3 perfbench/run.py --workload rmat-luby --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --aa 10 --rounds 2

The first two forms build perfbench/ into .bench_build/perfbench (a
Release build of the library sources plus perfbench.cpp) and run the
binary with the given arguments; its last stdout line is the result
JSON. VALOCAL_* variables are removed from the binary's environment.

--aa N is the A/A steadiness mode: it runs every workload N times with
N different seeds, alternating the workloads, and prints for each
end-to-end metric the median, the quartiles and (q3 - q1) / median,
against the bounds in BENCHMARK.json. With --rounds 2 it does this
twice and also prints how far the second median moved from the first.
It exits non-zero if a spread (other than setup_s) or a move exceeds
its bound.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"


def build():
    """Configures once, then builds incrementally; exits 1 on failure."""
    steps = []
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      *generator, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(1)


def run_binary(args, capture):
    env = {k: v for k, v in os.environ.items() if not k.startswith("VALOCAL_")}
    cmd = [str(BINARY), *args, "--data-dir", str(BUILD / "data")]
    if not capture:
        return subprocess.run(cmd, env=env, cwd=ROOT).returncode
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def steadiness(opts):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = opts.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in spec["workloads"]])
    values = {}  # (round, workload, metric) -> [values]
    ok = True
    for r in range(opts.rounds):
        for i in range(opts.aa):
            seed = opts.first_seed + r * opts.aa + i
            for w in workloads:
                rc, result = run_binary(
                    ["--workload", w, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"], capture=True)
                if rc != 0 or result is None or not result["correct"]:
                    print(f"round {r + 1} seed {seed} {w}: FAILED (rc={rc})")
                    ok = False
                    continue
                line = []
                for name, m in result["metrics"].items():
                    values.setdefault((r, w, name), []).append(m["value"])
                    line.append(f"{name}={m['value']:.6g}")
                print(f"round {r + 1} seed {seed} {w}: " + " ".join(line),
                      flush=True)
    print(f"\n{'workload':16} {'metric':20} {'round':>5} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6} {'move':>7}")
    for w in workloads:
        for name, bound in bounds.items():
            first_median = None
            for r in range(opts.rounds):
                v = values.get((r, w, name), [])
                if len(v) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med
                move = "" if first_median is None else \
                    f"{(med - first_median) / first_median:+.3f}"
                if first_median is None:
                    first_median = med
                elif abs(med - first_median) / first_median > bound:
                    ok = False
                if name != "setup_s" and spread > bound:
                    ok = False
                print(f"{w:16} {name:20} {r + 1:>5} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:7.3f} {bound:6.2f} {move:>7}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--aa", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0)
    opts, _ = parser.parse_known_args()
    build()
    if opts.aa > 0:
        return steadiness(opts)
    args = sys.argv[1:]
    return run_binary(args, capture=False)


if __name__ == "__main__":
    sys.exit(main())

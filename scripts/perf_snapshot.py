#!/usr/bin/env python3
"""Maintain BENCH_engine.json, the engine's recorded perf trajectory.

Subcommands:
  append LABEL MICRO_JSON SCALING_JSON [CROSSPAPER_JSON]
      Append one snapshot built from a google-benchmark JSON dump of
      bench_micro and the VALOCAL_BENCH_JSON dump of
      bench_engine_scaling. The optional fourth argument is the
      VALOCAL_BENCH_JSON dump of bench_crosspaper (rows keyed
      section/family/problem/algorithm/n/va/ea/wc/valid); when given,
      the snapshot records it as its "crosspaper" section so the
      2018-vs-2022-vs-worst-case measures travel with the perf
      history. Snapshots are append-only history.
  check MICRO_JSON [THRESHOLD]
      Compare a fresh bench_micro dump's BM_Engine* round-throughput
      (items_per_second = stepped vertex-rounds per second) against the
      LATEST snapshot; exit 1 if any fixture drops below
      THRESHOLD * baseline (default 0.7, i.e. a 30% regression budget).

  end-to-end NAME=DIR...
      Run the end-to-end pipeline benchmark,
      `python3 perfbench/run.py --workload W --seconds S --trace 0` with
      S = BENCHMARK.json's run_seconds, RUNS (10) times for each of
      BENCHMARK.json's workloads in each checkout DIR. The checkouts
      alternate within each repetition and swap order every other
      repetition, so that drift on a shared host hits them alike.
      Appends one record per checkout under the "end_to_end" key: per
      workload the median, q1 and q3 of the five end-to-end metrics,
      the number of runs and of failed ones, with the host and preset
      that perfbench echoes. A failed run prints the tail of its
      stderr. Typical use, a parent/change pair:
        perf_snapshot.py end-to-end parent=../parent change=.

Used by scripts/bench_baseline.sh (append) and the perf-smoke job in
scripts/run_all.sh (check). See docs/BENCHMARKS.md.
"""
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_FILE = "BENCH_engine.json"
# Alternating parent/change pairs per end-to-end recording.
RUNS = 10


def trim_micro(raw):
    """Keep only the engine fixtures and the fields worth diffing."""
    out = []
    for b in raw.get("benchmarks", []):
        if not b.get("name", "").startswith("BM_Engine"):
            continue
        entry = {
            "name": b["name"],
            "real_time_ns": b.get("real_time"),
            "cpu_time_ns": b.get("cpu_time"),
            "items_per_second": b.get("items_per_second"),
            "stepped": b.get("stepped"),
        }
        # Wake-scheduled fixtures report the vertex-rounds the engine
        # elided; keep it so snapshots document hinted vs unhinted.
        if b.get("skipped") is not None:
            entry["skipped"] = b.get("skipped")
        out.append(entry)
    return out


def load_doc():
    try:
        with open(BENCH_FILE) as f:
            return json.load(f)
    except FileNotFoundError:
        return {"host": {}, "snapshots": []}


def cmd_append(label, micro_path, scaling_path, crosspaper_path=None):
    with open(micro_path) as f:
        raw = json.load(f)
    with open(scaling_path) as f:
        scaling = json.load(f)
    crosspaper = None
    if crosspaper_path:
        with open(crosspaper_path) as f:
            crosspaper = json.load(f)
    doc = load_doc()
    ctx = raw.get("context", {})
    doc["host"] = {
        "hardware_threads": scaling.get("hardware_threads"),
        "num_cpus": ctx.get("num_cpus"),
        "mhz_per_cpu": ctx.get("mhz_per_cpu"),
        # Stamped by bench_engine_scaling: snapshots are only
        # comparable within one compiler + optimization-flag set.
        "compiler": scaling.get("compiler"),
    }
    snapshot = {
        "label": label,
        "date": datetime.date.today().isoformat(),
        "bench_micro": trim_micro(raw),
        "engine_scaling": scaling.get("rows", []),
    }
    if crosspaper is not None:
        snapshot["crosspaper"] = crosspaper.get("rows", [])
    doc.setdefault("snapshots", []).append(snapshot)
    with open(BENCH_FILE, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"[{BENCH_FILE}: appended snapshot '{label}' "
          f"({len(doc['snapshots'])} total)]")


def cmd_check(micro_path, threshold):
    doc = load_doc()
    if not doc.get("snapshots"):
        print(f"{BENCH_FILE} has no snapshots; nothing to compare")
        return
    snap = doc["snapshots"][-1]
    base = {b["name"]: b.get("items_per_second")
            for b in snap.get("bench_micro", [])}
    with open(micro_path) as f:
        fresh = trim_micro(json.load(f))
    if not fresh:
        print("PERF-SMOKE FAILED: no BM_Engine* fixtures in fresh run")
        sys.exit(1)
    failures = []
    print(f"perf-smoke vs snapshot '{snap['label']}' ({snap['date']}), "
          f"threshold {threshold:.2f}x:")
    for b in fresh:
        ref, cur = base.get(b["name"]), b.get("items_per_second")
        if not ref or not cur:
            print(f"  {b['name']}: no baseline entry, skipped")
            continue
        ratio = cur / ref
        verdict = "ok" if ratio >= threshold else "REGRESSION"
        print(f"  {b['name']}: {cur / 1e6:.2f}M vertex-rounds/s vs "
              f"baseline {ref / 1e6:.2f}M ({ratio:.2f}x) {verdict}")
        if ratio < threshold:
            failures.append(b["name"])
    if failures:
        print("PERF-SMOKE FAILED: round-throughput regressed >"
              f"{(1 - threshold) * 100:.0f}% on: {', '.join(failures)}")
        print("If the regression is intended, refresh the baseline with "
              "scripts/bench_baseline.sh and commit BENCH_engine.json.")
        sys.exit(1)
    print("perf-smoke: engine round-throughput within budget")


def perfbench_run(checkout, workload, seconds):
    """One perfbench invocation; returns (result JSON or None, host, preset)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = proc.stdout.strip().splitlines()
    def echoed(prefix):  # the text after the colon of a "# prefix" line
        return next((l.split(": ", 1)[-1] for l in lines
                     if l.startswith(prefix)), None)
    host, preset = echoed("# host"), echoed("# engine")
    result = None
    if proc.returncode == 0 and lines and lines[-1].startswith("{"):
        try:
            result = json.loads(lines[-1])
        except ValueError:  # a truncated line is a failed run
            pass
    if result is None or not result.get("correct"):
        result = None
        tail = proc.stderr.strip().splitlines()[-10:]
        print(f"  {checkout} {workload}: exit {proc.returncode}",
              *(f"    {l}" for l in tail), sep="\n", flush=True)
    return result, host, preset


def cmd_end_to_end(argv):
    checkouts = [c.split("=", 1) for c in argv]
    if not checkouts or any(len(c) != 2 for c in checkouts):
        print("usage: perf_snapshot.py end-to-end NAME=DIR...")
        sys.exit(2)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = [m["name"] for m in spec["end_to_end"]]
    workloads = [w["name"] for w in spec["workloads"]]

    values = {}  # (name, workload, metric) -> [values]
    failed = {}  # (name, workload) -> failed runs
    hosts, presets = {}, {}
    for i in range(RUNS):
        for w in workloads:
            order = checkouts if i % 2 == 0 else checkouts[::-1]
            for name, checkout in order:
                result, host, preset = perfbench_run(checkout, w, seconds)
                # Keep the first echo a run actually printed.
                if host:
                    hosts.setdefault(name, host)
                if preset:
                    presets.setdefault(name, preset)
                if result is None:
                    failed[(name, w)] = failed.get((name, w), 0) + 1
                    print(f"run {i + 1} {w} {name}: FAILED", flush=True)
                    continue
                for metric in metrics:
                    values.setdefault((name, w, metric), []).append(
                        result["metrics"][metric]["value"])
                print(f"run {i + 1} {w} {name}: solve_s="
                      f"{result['metrics']['solve_s']['value']:.4g}",
                      flush=True)

    doc = load_doc()
    for name, _ in checkouts:
        record = {
            "label": name,
            "date": datetime.date.today().isoformat(),
            "host": hosts.get(name),
            "preset": presets.get(name),
            "seconds": seconds,
            "workloads": {},
        }
        for w in workloads:
            entry = {"runs": RUNS, "failed": failed.get((name, w), 0)}
            for metric in metrics:
                v = values.get((name, w, metric), [])
                if len(v) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(v, n=4)
                entry[metric] = {"median": med, "q1": q1, "q3": q3}
            record["workloads"][w] = entry
        doc.setdefault("end_to_end", []).append(record)
    with open(BENCH_FILE, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")

    print(f"\n{'workload':16} {'metric':20} "
          + " ".join(f"{name:>24}" for name, _ in checkouts))
    for w in workloads:
        for metric in metrics:
            cells = []
            for name, _ in checkouts:
                v = values.get((name, w, metric), [])
                cells.append(f"{statistics.median(v):>24.6g}" if v
                             else f"{'-':>24}")
            print(f"{w:16} {metric:20} " + " ".join(cells))
    print(f"[{BENCH_FILE}: appended {len(checkouts)} end_to_end record(s)]")


def main():
    if len(sys.argv) >= 2 and sys.argv[1] == "end-to-end":
        cmd_end_to_end(sys.argv[2:])
    elif len(sys.argv) >= 5 and sys.argv[1] == "append":
        crosspaper = sys.argv[5] if len(sys.argv) > 5 else None
        cmd_append(sys.argv[2], sys.argv[3], sys.argv[4], crosspaper)
    elif len(sys.argv) >= 3 and sys.argv[1] == "check":
        threshold = float(sys.argv[3]) if len(sys.argv) > 3 else 0.7
        cmd_check(sys.argv[2], threshold)
    else:
        print(__doc__)
        sys.exit(2)


if __name__ == "__main__":
    main()

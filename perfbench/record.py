"""Run every workload over several seeds, print the spread of each metric, optionally save it.

Usage::

    python3 perfbench/record.py [--runs 10] [--first-seed 1] [--workloads a,b]
                                [--traced] [--out perfbench/baseline.json]

Each run is one ``run.py`` invocation with ``run_seconds`` from
BENCHMARK.json and its own seed (``first-seed``, ``first-seed + 1``, ...).
For every workload it prints each end-to-end metric's median, quartiles and
spread (quartile distance over the median, against a third of the metric's
bound), the same for the ``wall_s`` of each task group, and
``ops_failed_frac`` over all runs.  ``--traced`` adds one traced
run per workload: its per-layer metrics and the tracing overhead, the traced
``wall_s`` minus the untraced median.  For spans alone both are at reference
speed.  For spans with ``tracemalloc`` both are measured times, because no
reference pass runs under ``tracemalloc``.  ``--out`` writes all of it, with
the machine it ran on, as JSON.  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} printed no result:\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1]), proc.stdout


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def machine() -> dict:
    import numpy

    def proc_field(path: str, key: str) -> str | None:
        try:
            text = Path(path).read_text()
        except OSError:
            return None
        m = re.search(rf"^{key}\s*:\s*(.+)$", text, re.M)
        return m.group(1).strip() if m else None

    return {"nproc": os.cpu_count(), "cpu": proc_field("/proc/cpuinfo", "model name"),
            "ram": proc_field("/proc/meminfo", "MemTotal"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {"machine": machine(), "run_seconds": BENCHMARK["run_seconds"], "seeds": seeds,
              "workloads": {}}
    failed_any = False
    for workload in args.workloads.split(","):
        outputs = [bench(workload, seed, 0) for seed in seeds]
        runs = [result for result, _ in outputs]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        failed_any |= failed > 0
        entry = {"ops_failed_frac": failed / attempted, "end_to_end": {}}
        print(f"{workload}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}")
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            s = summary([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = s
            verdict = "steady" if s["spread"] < metric["bound"] / 3 else "NOT steady"
            print(f"  {name:<16} {s['median']:.4f} {metric['unit']:<4} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.3f} "
                  f"(bound {metric['bound']}: {verdict})")
        groups: dict[str, list[float]] = {}
        for _, text in outputs:
            for group, value in re.findall(r"wall_s of (\S+)\s+(\S+) s", text):
                groups.setdefault(group, []).append(float(value))
        entry["group_wall_s"] = {group: summary(values) for group, values in groups.items()}
        for group, s in entry["group_wall_s"].items():
            print(f"  {'wall_s of ' + group:<16} {s['median']:.4f} s    "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.3f}")
        print(f"  {'ops_failed_frac':<16} {entry['ops_failed_frac']:.4g} ratio "
              f"({failed} of {attempted} tasks failed)")
        if args.traced:
            traced, text = bench(workload, seeds[0], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            measured = statistics.median(
                float(re.search(r"measured wall_s\s+(\S+) s", out).group(1)) for _, out in outputs)
            entry["measured_wall_s"] = measured
            # spans-only repetitions run reference passes; tracemalloc ones do not
            for key, pattern, untraced in (
                    ("spans", r"wall_s \(spans\)", entry["end_to_end"]["wall_s"]["median"]),
                    ("tracemalloc", r"measured wall_s \(spans\+tracemalloc\)", measured)):
                wall = float(re.search(rf"^  {pattern}\s+(\S+) s", text, re.M).group(1))
                entry[f"traced_wall_s_{key}"] = wall
                entry[f"trace_overhead_s_{key}"] = wall - untraced
                print(f"  traced wall_s with {key}: {wall:.4f} s, "
                      f"overhead {wall - untraced:.4f} s")
        record["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 1 if failed_any else 0


if __name__ == "__main__":
    sys.exit(main())

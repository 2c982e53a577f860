"""Benchmark of the assocspectra package: cold-process workloads with answer checks.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
It starts one fresh interpreter per repetition (``worker.py``), one after
another, as long as the next one is expected to end within S seconds (the
first always runs).  It reports the median over the repetitions.  Times are
reported at reference speed: each repetition's times are multiplied by
``REF_S`` over the mean time of the reference passes the worker ran between
its tasks, so a shared machine that runs everything slower for a while does
not read as a slower program.  With
``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
reports the per-layer metrics: repetitions alternate between spans alone
(times and counts) and spans with ``tracemalloc`` (memory), and it runs at
least one of each.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print the same metrics for a reader,
together with ``ops_failed_frac`` and every failed check.  The exit code is
0 when every answer checked out, 1 when one did not, 2 when the checkout
holds no package source.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from spans import LAYER_METRICS, MEMORY_METRICS, now

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("fine", "closure-cli")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB"))
# One reference pass (worker.reference_pass) at reference speed: close to the
# fastest passes on the machine of baseline.json, where most took 0.025-0.04 s.
REF_S = 0.025
RUN_LIMIT_S = 170  # a run never starts a repetition it expects to end after this


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def worker_mode(trace: int, index: int) -> int:
    """0: no spans; 1: spans; 2: spans and tracemalloc (every other traced repetition)."""
    return 0 if not trace else 1 + index % 2


def repetition(args: argparse.Namespace, index: int, time_left: float) -> tuple[dict | None, str]:
    """Run one worker; its result, or None and why it gave none."""
    work = WORK / f"{args.workload}-{args.seed}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(worker_mode(args.trace, index))]
    try:
        t0 = now()
        proc = subprocess.run([*cmd, repr(t0), str(work)], cwd=ROOT, capture_output=True,
                              text=True, timeout=time_left)
    except subprocess.TimeoutExpired:
        return None, f"repetition {index} did not finish in {time_left:.0f} s"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, (f"repetition {index}: worker exited with {proc.returncode}: "
                      f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1]), ""


def at_reference_speed(rep: dict) -> dict:
    """The repetition's times, scaled to the speed at which a reference pass takes REF_S."""
    scale = REF_S / statistics.fmean(rep["ref_s"])
    return dict(rep, setup_s=rep["setup_s"] * scale, wall_s=rep["wall_s"] * scale,
                group_wall_s={g: t * scale for g, t in rep["group_wall_s"].items()})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "assocspectra" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    start = now()
    reps: list[dict] = []
    problems: list[str] = []
    attempted = failed = 0
    longest = 0.0
    while True:
        began = now()
        rep, why = repetition(args, len(reps), RUN_LIMIT_S - (began - start))
        if rep is None:  # a crashed worker counts as one failed task and ends the run
            attempted += 1
            failed += 1
            problems.append(why)
            break
        reps.append(rep)
        attempted += rep["attempted"]
        failed += rep["failed"]
        problems += rep["problems"]
        longest = max(longest, now() - began)
        if args.trace and len(reps) < 2:
            continue
        if now() - start + longest > min(args.seconds, RUN_LIMIT_S):
            break

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)}")
    for problem in problems:
        print(f"  FAILED {problem}")
    if len(reps) < (2 if args.trace else 1):  # a traced run needs one repetition of each kind
        return 1
    print("  measured wall_s per repetition:  " + " ".join(f"{r['wall_s']:.3f}" for r in reps))
    timed = [r for r in reps if r["ref_s"]]  # tracemalloc repetitions run no reference pass
    print("  reference passes per repetition: "
          + " ".join(f"{len(r['ref_s'])}x{statistics.fmean(r['ref_s']) * 1000:.2f}ms" for r in timed))
    scaled = [at_reference_speed(r) for r in timed]
    print("  wall_s per repetition:           " + " ".join(f"{r['wall_s']:.3f}" for r in scaled))
    for group in reps[0]["group_wall_s"]:
        value = statistics.median(r["group_wall_s"][group] for r in scaled)
        print(f"  {'wall_s of ' + group:<28} {value:.4f} s")
    if args.trace:
        by_mode = {mode: [r for i, r in enumerate(reps) if worker_mode(1, i) == mode]
                   for mode in (1, 2)}
        metrics = {name: (statistics.median(r["layers"][name] for r in
                                            by_mode[2 if name in MEMORY_METRICS else 1]), unit)
                   for name, unit in LAYER_METRICS}
        print(f"  {'wall_s (spans)':<28} {statistics.median(r['wall_s'] for r in scaled):.4f} s")
        for mode, label in ((1, "wall_s (spans)"), (2, "wall_s (spans+tracemalloc)")):
            value = statistics.median(r["wall_s"] for r in by_mode[mode])
            print(f"  {'measured ' + label:<28} {value:.4f} s")
    else:
        print(f"  {'measured wall_s':<28} {statistics.median(r['wall_s'] for r in reps):.4f} s")
        metrics = {name: (statistics.median(r[name] for r in scaled), unit)
                   for name, unit in END_TO_END}
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:.6g} {unit}")
    print(f"  {'ops_failed_frac':<28} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} tasks failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

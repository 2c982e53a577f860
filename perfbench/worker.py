"""One cold repetition of a workload, in a fresh interpreter.

Usage: ``python3 worker.py WORKLOAD SEED TRACE T0 WORKDIR``.  TRACE is 0 (no
spans), 1 (spans) or 2 (spans and ``tracemalloc``); T0 is the monotonic clock
reading taken just before this interpreter was started.
``run.py`` starts it once per repetition, so every repetition pays the
package's cold caches, as a CLI user does on every command.

Between tasks the worker times a fixed reference pass that does not use the
package (``reference_pass``): before the first task, before every task that
starts ``REF_EVERY_S`` or more after the last pass, and after the last task.
``run.py`` divides the repetition's times by how fast these passes ran.  No
pass runs under ``tracemalloc``, which would slow it down.

The last line of stdout is a JSON object: ``setup_s``, ``wall_s`` (and
``group_wall_s``, its split over the task groups), ``ref_s`` (the times of
the reference passes), ``peak_rss_mib``, ``attempted``, ``failed``,
``problems`` and, when traced, ``layers`` (the per-layer metrics).
"""

import gc
import json
import resource
import sys
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import Tracer, layer_metrics, now  # noqa: E402
from tasks import WORKLOADS  # noqa: E402  (imports the package: part of set-up)

REF_EVERY_S = 0.2


def reference_pass(n: int = 10) -> float:
    """Seconds one pass of a fixed pure-Python kernel takes: binary trees as nested tuples.

    It builds every binary tree with up to ``n`` inner nodes, a depth table keyed
    by tree, and a count of level ``n`` by the depths of the two subtrees: the
    tuple, hashing and dict work that the package's own levels do.  The cycle
    collector is off during the pass, so the size of the worker's heap does not
    change what the pass costs.
    """
    gc.disable()
    try:
        start = now()
        levels = [[0]]
        for m in range(1, n + 1):
            levels.append([(a, b) for i in range(m) for a in levels[i] for b in levels[m - 1 - i]])
        depth = {0: 0}
        for level in levels[1:]:
            for t in level:
                depth[t] = 1 + max(depth[t[0]], depth[t[1]])
        counts: dict = {}
        for a, b in levels[n]:
            key = (depth[a], depth[b])
            counts[key] = counts.get(key, 0) + 1
        elapsed = now() - start
    finally:
        gc.enable()
    if sum(counts.values()) != comb(2 * n, n) // (n + 1):  # the Catalan number
        raise AssertionError("the reference pass computed a wrong answer")
    return elapsed


def repetition(workload: str, seed: int, trace: int, t0: float, work: Path) -> dict:
    tr = Tracer(trace > 0, memory=trace == 2)
    tasks = []
    results = []
    setup_s = 0.0
    group_wall_s = {}
    ref_s = []
    last_ref = None
    for index, (group, build) in enumerate(WORKLOADS[workload]):
        # each group is set up right before it runs: set-up may call the package,
        # and must not warm the caches that an earlier group's tasks measure
        start = t0 if index == 0 else now()
        group_tasks = build(seed, tr, work)
        setup_s += now() - start
        if index == 0:
            tr.start_memory()
        group_wall_s[group] = 0.0
        for task in group_tasks:
            if trace < 2 and (last_ref is None or now() - last_ref >= REF_EVERY_S):
                ref_s.append(reference_pass())
                last_ref = now()
            start = now()
            try:
                with tr.task(len(tasks)):
                    results.append((True, task.run()))
            except Exception as exc:  # a crash is a failed task; the others still run
                results.append((False, f"{type(exc).__name__}: {exc}"))
            group_wall_s[group] += now() - start
            tasks.append((group, task))
    if trace < 2:
        ref_s.append(reference_pass())
    # the largest process of the repetition: this one, or a CLI command it started
    peak_rss_mib = max(resource.getrusage(who).ru_maxrss
                       for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024

    problems = []
    for (group, task), (ran, result) in zip(tasks, results):
        if ran:
            try:
                result = task.check(result)
            except Exception as exc:  # a check that cannot read the result fails the task
                result = f"{type(exc).__name__} in check: {exc}"
        if result is not None:
            problems.append(f"{group}: {task.name}: {result}")
    out = {"setup_s": setup_s, "wall_s": sum(group_wall_s.values()),
           "group_wall_s": group_wall_s, "ref_s": ref_s, "peak_rss_mib": peak_rss_mib,
           "attempted": len(tasks), "failed": len(problems), "problems": problems}
    if trace:
        out["layers"] = layer_metrics(tr.spans)
    return out


if __name__ == "__main__":
    name, seed, trace, t0, work = sys.argv[1:6]
    print(json.dumps(repetition(name, int(seed), int(trace), float(t0), Path(work))))

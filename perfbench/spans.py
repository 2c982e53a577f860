"""Spans around the benchmark's calls into each layer, and the per-layer metrics.

A span records its name, start, end, parent span and task id, and counts set
by the caller.  With ``memory`` on, ``tracemalloc`` runs and each span also
records the memory it left allocated and its peak; that slows allocation-heavy
code several times over, so span times are taken from repetitions without it.
Spans stay in memory; :func:`layer_metrics` folds them into the per-layer
metrics at the end of a repetition.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from dataclasses import dataclass, field

from refs import MIB


def now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Span:
    name: str
    task: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    mem_start: int = 0
    kept: int = 0       # bytes still allocated at the end, minus those at the start
    peak: int = 0       # highest allocation during the span, minus that at the start
    peak_seen: int = 0  # running high-water mark, carried across reset_peak()


class Tracer:
    """Records spans; with ``enabled`` false every span is a no-op."""

    def __init__(self, enabled: bool, memory: bool = False):
        self.enabled = enabled
        self.memory = enabled and memory
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._task = -1
        self._idle = _NullSpan()

    def start_memory(self) -> None:
        if self.memory:
            tracemalloc.start()

    def task(self, task: int):
        """Span covering one task; the layer spans opened inside it carry its id."""
        self._task = task
        return self.span("task")

    @contextlib.contextmanager
    def _record(self, name: str, counts: dict):
        # without tracemalloc running these read 0 and cost next to nothing
        cur, peak = tracemalloc.get_traced_memory()
        if self._stack:
            parent = self.spans[self._stack[-1]]
            parent.peak_seen = max(parent.peak_seen, peak)
        tracemalloc.reset_peak()
        sp = Span(name, self._task, self._stack[-1] if self._stack else None, now(),
                  counts=dict(counts), mem_start=cur, peak_seen=cur)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = now()
            cur, peak = tracemalloc.get_traced_memory()
            sp.peak_seen = max(sp.peak_seen, peak)
            sp.kept = cur - sp.mem_start
            sp.peak = sp.peak_seen - sp.mem_start
            self._stack.pop()
            if self._stack:
                parent = self.spans[self._stack[-1]]
                parent.peak_seen = max(parent.peak_seen, sp.peak_seen)

    def span(self, name: str, **counts):
        """Context manager yielding the span, so counts known only after the call can be added."""
        if not self.enabled:
            return self._idle
        return self._record(name, counts)

    def add(self, name: str, start: float, end: float, **counts) -> None:
        """Record a span measured elsewhere, such as inside a child process."""
        if self.enabled:
            self.spans.append(Span(name, self._task, self._stack[-1] if self._stack else None,
                                   start, end, counts=dict(counts)))


class _NullSpan:
    """Reusable do-nothing stand-in for a span when tracing is off."""

    def __init__(self):
        self.counts: dict = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.counts.clear()
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    out = []
    for sp, kids in zip(spans, children):
        covered = 0.0
        reach = sp.start
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, sp.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((sp.end - sp.start) - covered)
    return out


def self_kept(spans: list[Span]) -> list[int]:
    """Bytes each span left allocated, not counting what its child spans left."""
    out = [sp.kept for sp in spans]
    for sp in spans:
        if sp.parent is not None:
            out[sp.parent] -= sp.kept
    return out


# (metric, unit) in the order the traced run prints them
LAYER_METRICS = (
    ("terms.enumerate_s", "s"),
    ("terms.bracketings", "count"),
    ("terms.kept_mib", "MiB"),
    ("insertion.to_tuple_s", "s"),
    ("insertion.from_tuple_s", "s"),
    ("insertion.tuples", "count"),
    ("spectra.delta_s", "s"),
    ("spectra.delta_calls", "count"),
    ("spectra.delta_images", "count"),
    ("spectra.images_per_s", "1/s"),
    ("spectra.refines_s", "s"),
    ("spectra.named_s", "s"),
    ("spectra.census_s", "s"),
    ("spectra.violations", "count"),
    ("spectra.kept_mib", "MiB"),
    ("groupoids.fine_level_s", "s"),
    ("groupoids.fine_level_calls", "count"),
    ("groupoids.cells", "count"),
    ("groupoids.cells_per_s", "1/s"),
    ("groupoids.distinct_ratio", "ratio"),
    ("groupoids.peak_mib", "MiB"),
    ("groupoids.quotient_s", "s"),
    ("groupoids.ring_check_s", "s"),
    ("cli.enum_s", "s"),
    ("cli.spectrum_s", "s"),
    ("cli.verify_s", "s"),
    ("cli.stdout_mib", "MiB"),
)

# metrics read from repetitions with tracemalloc on; all others from those without
MEMORY_METRICS = ("terms.kept_mib", "spectra.kept_mib", "groupoids.peak_mib")

# span name -> metric holding the summed self time of those spans
_TIME_OF = {
    "terms.enumerate": "terms.enumerate_s",
    "insertion.to_tuple": "insertion.to_tuple_s",
    "insertion.from_tuple": "insertion.from_tuple_s",
    "spectra.delta": "spectra.delta_s",
    "spectra.refines": "spectra.refines_s",
    "spectra.named": "spectra.named_s",
    "spectra.census": "spectra.census_s",
    "groupoids.fine_level": "groupoids.fine_level_s",
    "groupoids.quotient": "groupoids.quotient_s",
    "groupoids.ring_check": "groupoids.ring_check_s",
    "cli.enum": "cli.enum_s",
    "cli.spectrum": "cli.spectrum_s",
    "cli.verify": "cli.verify_s",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Fold the spans of one repetition into the per-layer metrics.

    A layer that the workload never calls reads 0 on every metric.
    """
    m = {name: 0 for name, _ in LAYER_METRICS}
    selfs = self_times(spans)
    kept = self_kept(spans)
    classes = bracketings = 0
    for sp, t, k in zip(spans, selfs, kept):
        if sp.name in _TIME_OF:
            m[_TIME_OF[sp.name]] += t
        c = sp.counts
        if sp.name == "terms.enumerate":
            m["terms.bracketings"] += c["bracketings"]
            m["terms.kept_mib"] += k / MIB
        elif sp.name.startswith("spectra."):
            m["spectra.kept_mib"] += k / MIB
            if sp.name == "spectra.delta":
                m["spectra.delta_calls"] += 1
                m["spectra.delta_images"] += c["images"]
            elif sp.name == "spectra.refines":
                m["spectra.violations"] += c["violations"]
        elif sp.name == "insertion.to_tuple":
            m["insertion.tuples"] += c["tuples"]
        elif sp.name == "groupoids.fine_level":
            m["groupoids.fine_level_calls"] += 1
            m["groupoids.cells"] += c["cells"]
            m["groupoids.peak_mib"] = max(m["groupoids.peak_mib"], sp.peak / MIB)
            classes += c["classes"]
            bracketings += c["bracketings"]
        elif sp.name.startswith("cli."):
            m["cli.stdout_mib"] += c["stdout_bytes"] / MIB
    if m["spectra.delta_s"] > 0:
        m["spectra.images_per_s"] = m["spectra.delta_images"] / m["spectra.delta_s"]
    if m["groupoids.fine_level_s"] > 0:
        m["groupoids.cells_per_s"] = m["groupoids.cells"] / m["groupoids.fine_level_s"]
    if bracketings:
        m["groupoids.distinct_ratio"] = classes / bracketings
    return m

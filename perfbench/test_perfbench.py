"""Tests of the benchmark's own code: span arithmetic, computed counts, references, failures.

Run with ``python3 -m pytest perfbench``.
"""

import json
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import assocspectra as a  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import tasks  # noqa: E402
import worker  # noqa: E402
from spans import LAYER_METRICS, Span, Tracer, layer_metrics, self_kept, self_times  # noqa: E402


def _span(name, start, end, parent=None, **counts):
    return Span(name, 0, parent, start, end, counts=counts)


def test_self_time_subtracts_nested_children():
    spans = [
        _span("task", 0.0, 10.0),
        _span("a", 2.0, 4.0, parent=0),
        _span("b", 5.0, 8.0, parent=0),
        _span("c", 6.0, 7.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0])


def test_self_time_counts_overlap_and_overhang_once():
    spans = [
        _span("task", 0.0, 10.0),
        _span("a", 1.0, 5.0, parent=0),
        _span("b", 4.0, 6.0, parent=0),  # overlaps a by 1
        _span("c", 9.0, 12.0, parent=0),  # ends after its parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_kept_subtracts_children():
    spans = [_span("task", 0, 3), _span("a", 1, 2, parent=0)]
    spans[0].kept, spans[1].kept = 100, 30
    assert self_kept(spans) == [70, 30]


def test_recorded_self_times_add_up_to_the_outer_span():
    tr = Tracer(True)
    with tr.task(0):
        with tr.span("terms.enumerate", bracketings=1):
            sum(range(10000))
        with tr.span("spectra.named"):
            with tr.span("terms.enumerate", bracketings=2):
                sum(range(10000))
    outer = tr.spans[0]
    assert [sp.parent for sp in tr.spans] == [None, 0, 0, 2]
    assert sum(self_times(tr.spans)) == pytest.approx(outer.end - outer.start)
    assert layer_metrics(tr.spans)["terms.bracketings"] == 3


def test_memory_spans_record_kept_and_peak():
    tr = Tracer(True, memory=True)
    tr.start_memory()
    try:
        with tr.task(0):
            with tr.span("terms.enumerate", bracketings=0):
                kept = [bytearray(1000) for _ in range(100)]
            with tr.span("groupoids.fine_level", cells=1, bracketings=1, classes=1):
                temp = bytearray(1_000_000)
                del temp
    finally:
        tracemalloc.stop()
    task, enum, fine = tr.spans
    assert len(kept) == 100 and enum.kept >= 100_000
    assert fine.peak >= 1_000_000 > fine.kept
    assert task.peak >= fine.peak  # a child's reset of the peak does not hide it from the parent
    assert layer_metrics(tr.spans)["groupoids.peak_mib"] >= 1_000_000 / refs.MIB


def test_disabled_tracer_records_nothing():
    tr = Tracer(False)
    with tr.task(0), tr.span("spectra.delta", images=3) as sp:
        sp.counts["x"] = 1
    tr.add("cli.enum", 0.0, 1.0, stdout_bytes=1)
    assert tr.spans == []


def test_layer_metrics_ratios():
    spans = [
        _span("spectra.delta", 0.0, 2.0, images=10),
        _span("groupoids.fine_level", 2.0, 6.0, cells=400, bracketings=5, classes=1),
        _span("groupoids.fine_level", 6.0, 8.0, cells=200, bracketings=5, classes=4),
    ]
    m = layer_metrics(spans)
    assert set(m) == {name for name, _ in LAYER_METRICS}
    assert m["spectra.images_per_s"] == pytest.approx(5.0)
    assert m["groupoids.cells"] == 600
    assert m["groupoids.cells_per_s"] == pytest.approx(100.0)
    assert m["groupoids.distinct_ratio"] == pytest.approx(0.5)
    assert m["groupoids.fine_level_calls"] == 2


@pytest.mark.parametrize("n, p, want", [(0, 2, 3), (1, 2, 4), (2, 2, 10), (1, 3, 6), (2, 3, 24)])
def test_delta_images_hand_counts(n, p, want):
    # each bracketing has p wrapping images and one growth image per variable
    assert refs.delta_images(n, p) == want


@pytest.mark.parametrize("size, p, n, want", [(3, 2, 2, 54), (2, 3, 1, 8), (5, 2, 0, 5)])
def test_fine_cells_hand_counts(size, p, n, want):
    assert refs.fine_cells(size, p, n) == want


@pytest.mark.parametrize("name, params, n", [("polyk", {"k": 3}, 3), ("egg4", {}, 4)])
def test_fine_cells_is_what_the_cap_counts(name, params, n):
    g = a.gallery(name, **params)
    cells = refs.fine_cells(g.size, g.arity, n)
    a.fine_level(g, n, max_cells=cells)
    with pytest.raises(a.CapExceededError):
        a.fine_level(g, n, max_cells=cells - 1)


def test_references_agree_with_the_package_on_small_levels():
    for n in range(7):
        assert refs.polyk_classes(n, 3) == a.fine_level(a.gallery("polyk", k=3), n).num_classes
        assert refs.dldr_classes(n) == a.dldr_sigma(n).num_classes
        assert refs.tail_classes(n, 2, 3) == a.tail_tuple_sigma(n, 2, 3).num_classes
        assert refs.tau_classes(n) == a.tau(n).class_of
        assert refs.level_tuples(n, 2) == [a.to_tuple(t) for t in a.enumerate_bracketings(n, 2)]
    assert [refs.census_count(p) for p in (2, 3, 4)] == [a.coatom_census(p) for p in (2, 3, 4)]
    g = tasks.random_groupoid(7, 2, 3)
    for n in range(4):
        assert refs.brute_fine_level(g.table, 3, 2, n) == a.fine_level(g, n).class_of


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_planted_prefix_is_violated_one_level_below_its_top(seed):
    sigma = tasks.planted_prefix(seed, 3, 4)
    report = a.verify_closed(sigma)
    assert (report.closed, report.level) == (False, 3)
    assert tasks._check_planted(3, sigma[4])(
        (report.closed, report.level, report.witness)) is None


def test_names_match_the_benchmark_file():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) == list(tasks.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(LAYER_METRICS)


def test_reference_pass_checks_its_answer_and_returns_a_time():
    assert 0 < worker.reference_pass(6) < 5


def test_times_scale_to_reference_speed():
    rep = {"setup_s": 0.2, "wall_s": 10.0, "group_wall_s": {"a": 4.0, "b": 6.0},
           "ref_s": [0.04, 0.06], "peak_rss_mib": 7.0}
    scale = run.REF_S / 0.05  # the mean pass
    got = run.at_reference_speed(rep)
    assert got["setup_s"] == pytest.approx(0.2 * scale)
    assert got["wall_s"] == pytest.approx(10.0 * scale)
    assert got["group_wall_s"] == pytest.approx({"a": 4.0 * scale, "b": 6.0 * scale})
    assert got["peak_rss_mib"] == 7.0
    assert rep["wall_s"] == 10.0  # the measured repetition is left as it was


def _checkout(tmp_path: Path, with_source: bool = True) -> Path:
    dest = tmp_path / "checkout"
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_source:
        shutil.copytree(ROOT / "src" / "assocspectra", dest / "src" / "assocspectra",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _run(dest: Path, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=dest, capture_output=True, text=True, timeout=170)


def test_a_planted_wrong_answer_fails_the_run(tmp_path):
    dest = _checkout(tmp_path)
    spectra = dest / "src" / "assocspectra" / "spectra.py"
    text = spectra.read_text()
    assert text.count("    return count\n") == 1
    spectra.write_text(text.replace("    return count\n", "    return count + 1\n"))
    proc = _run(dest, "closure-cli")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    per_repetition = 15 + 8  # closure tasks, then CLI commands
    assert result["failed"] == 5 * (result["attempted"] // per_repetition)  # every census task
    assert re.search(r"ops_failed_frac +0\.217391 ratio", proc.stdout)


def test_no_package_source_means_no_result(tmp_path):
    dest = _checkout(tmp_path, with_source=False)
    proc = _run(dest, "fine")
    assert proc.returncode == 2
    assert proc.stdout == ""

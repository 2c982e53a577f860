"""The task groups, the two workloads made of them, and the answer checks.

Building a task group is part of set-up: it makes every input from the seed
(random tables, planted violations, the CLI's files) and returns tasks.  A
task's ``run`` is timed; its ``check`` runs after every task of the
repetition has finished, so checks neither count towards ``wall_s`` nor warm
the package's caches for a later task.

The four groups stress different layers.  They run as two workloads, so that
each run is long enough to average over a shared machine's slow spells: ``fine``
(``fine-shared`` then ``fine-distinct``) exercises tabulation and bypasses
``delta``; ``closure-cli`` (``closure`` then ``cli``) exercises ``delta``, the
tuple levels and the CLI and bypasses tabulation, except in the two
``spectrum`` commands.

With tracing on, the calls go through the helpers below, which open one span
per public call and split a call that hides another layer into public calls
doing the same work (``fine_level`` after ``enumerate_bracketings``,
``verify_closed`` as ``delta`` plus ``Partition.refines`` per level).

Every fine task runs its groupoid up to the last level that the default
cell cap accepts, so the cost of today's reach is what gets measured.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from assocspectra import (
    Groupoid,
    Partition,
    SpectrumPrefix,
    build_prefix,
    coatom_census,
    delta,
    dldr_sigma,
    dump_groupoid,
    enumerate_bracketings,
    fine_level,
    format_spectrum_prefix,
    from_tuple,
    gallery,
    left_factor_sigma,
    quotient_from_spectrum,
    render_bracketing,
    ring_closed_form_check,
    sigma_a,
    tail_tuple_sigma,
    tau,
    to_tuple,
    verify_closed,
)

import refs
from spans import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CLI_TIMEOUT_S = 120


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # what is wrong with the result, or None


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


# ---------------------------------------------------------------------------
# calls into the package, one span per public call

def enumerate_level(tr: Tracer, n: int, p: int):
    with tr.span("terms.enumerate") as sp:
        trees = enumerate_bracketings(n, p)
        sp.counts["bracketings"] = len(trees)
    return trees


def fine(tr: Tracer, g: Groupoid, n: int) -> Partition:
    if tr.enabled:
        enumerate_level(tr, n, g.arity)
    with tr.span("groupoids.fine_level", cells=refs.fine_cells(g.size, g.arity, n),
                 bracketings=refs.catalan(n, g.arity)) as sp:
        pi = fine_level(g, n)
        sp.counts["classes"] = pi.num_classes
    return pi


def verify(tr: Tracer, sigma: SpectrumPrefix):
    """``(closed, level, witness)`` as :func:`verify_closed` reports them."""
    if not tr.enabled:
        report = verify_closed(sigma)
        return report.closed, report.level, report.witness
    p = sigma.arity
    for n in range(sigma.horizon):
        with tr.span("spectra.delta", images=refs.delta_images(n, p)):
            pushed = delta(sigma[n])
        with tr.span("spectra.refines") as sp:
            ok = pushed.refines(sigma[n + 1])
            sp.counts["violations"] = int(not ok)
        if not ok:
            r, s = refs.separating_pair(pushed.class_of, sigma[n + 1].class_of)
            level = refs.level_tuples(n + 1, p)
            return False, n, (level[r], level[s])
    return True, None, None


def named(tr: Tracer, level_fn: Callable[[int], Partition], max_n: int,
          tree_based: bool) -> SpectrumPrefix:
    """Build a named binary prefix; a tree-based builder gets its level enumerated first."""
    def build(n: int) -> Partition:
        if tree_based and tr.enabled:
            enumerate_level(tr, n, 2)
        return level_fn(n)

    with tr.span("spectra.named"):
        return build_prefix(build, max_n)


# ---------------------------------------------------------------------------
# checks

def _expect(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def _check_level(n: int, p: int, *, classes: Callable[[int], int] | None = None,
                 labels: Callable[[int], tuple] | None = None):
    """Check a level partition by its class count, its exact labels, or only its shape."""
    def check(pi: Partition) -> str | None:
        if len(pi.class_of) != refs.catalan(n, p):
            return f"level {n} labels {len(pi.class_of)} bracketings"
        if labels is not None:
            return _expect(f"level {n} classes", pi.class_of, labels(n))
        if classes is not None:
            return _expect(f"level {n} class count", pi.num_classes, classes(n))
        return _expect(f"level {n} class ids", pi.class_of, refs.first_appearance(pi.class_of))
    return check


def _brute_or_shape(g: Groupoid) -> Callable[[int], Callable]:
    """Brute-force labels on the lowest levels; above them only the shape."""
    def check_for(n: int):
        if n <= BRUTE_MAX_N[g.arity]:
            return _check_level(n, g.arity,
                                labels=lambda n: refs.brute_fine_level(g.table, g.size, g.arity, n))
        return _check_level(n, g.arity)
    return check_for


def _check_closed(counts: Callable[[int], int] | None = None,
                  labels: dict[int, Callable[[int], tuple]] | None = None):
    """A closed prefix with the given class counts, or the given labels at some levels."""
    def check(result) -> str | None:
        (closed, level, _), parts = result
        if not closed:
            return f"reported a violation at level {level}"
        if counts is not None:
            return _expect("class counts", [len(set(c)) for c in parts],
                           [counts(n) for n in range(len(parts))])
        for n, want in labels.items():
            if parts[n] != want(n):
                return f"level {n} classes differ from the reference"
        return None
    return check


def _check_planted(level: int, top: Partition):
    """The violation sits at ``level``, with a witness pair that ``top`` separates."""
    def check(result) -> str | None:
        closed, got_level, witness = result
        if closed or got_level != level:
            return f"violation reported at {got_level}, planted at {level}"
        rank = {u: r for r, u in enumerate(refs.level_tuples(level + 1, top.arity))}
        r, s = (rank.get(tuple(u)) for u in witness)
        if r is None or s is None or r == s:
            return f"witness {witness} is not a pair of level-{level + 1} bracketings"
        if top.class_of[r] == top.class_of[s]:
            return f"witness {witness} is not separated at level {level + 1}"
        return None
    return check


# ---------------------------------------------------------------------------
# fine-shared: few classes per level, so most bracketings share a term function

EGG4_CLASSES = (1, 1, 2, 4, 7, 12, 17, 23)  # recorded at the seed commit; brute force agrees to 4
BRUTE_MAX_N = {2: 4, 3: 2}  # highest level checked by brute force, per arity
QUOTIENTS = ((2, 3, 7), (2, 4, 5), (2, 5, 4), (3, 3, 3))  # (arity, cut, last fine level)


def _fine_tasks(tr: Tracer, label: str, g: Groupoid, max_n: int,
                check_for: Callable[[int], Callable]) -> list[Task]:
    return [Task(f"fine {label} n={n}", lambda n=n: fine(tr, g, n), check_for(n))
            for n in range(max_n + 1)]


def _quotient_task(tr: Tracer, p: int, cut: int, max_n: int) -> Task:
    """Equality below the cut, full from it: the quotient's fine levels must give it back.

    The prefix reaches at least the cut; the fine levels of the quotient run
    to ``max_n``, the last level under the cell cap.
    """
    want = [tuple(range(refs.catalan(n, p))) if n < cut else (0,) * refs.catalan(n, p)
            for n in range(max(cut, max_n) + 1)]
    sigma = SpectrumPrefix([Partition(n, p, labels) for n, labels in enumerate(want)])

    def run():
        with tr.span("groupoids.quotient"):
            q = quotient_from_spectrum(sigma, cut)
        return [fine(tr, q, n).class_of for n in range(max_n + 1)]

    return Task(f"quotient p={p} cut={cut} to {max_n}", run,
                lambda got: None if got == want[:max_n + 1]
                else "the quotient's fine levels differ from the prefix")


def fine_shared(seed: int, tr: Tracer, work: Path) -> list[Task]:
    tasks = []
    tasks += _fine_tasks(tr, "const_assoc:3", gallery("const_assoc", m=3), 8,
                         lambda n: _check_level(n, 2, classes=lambda n: 1))
    for k, max_n in ((1, 8), (3, 7)):
        tasks += _fine_tasks(
            tr, f"polyk:{k}", gallery("polyk", k=k), max_n,
            lambda n, k=k: _check_level(n, 2, classes=lambda n: refs.polyk_classes(n, k)))
    egg4 = gallery("egg4")
    tasks += _fine_tasks(tr, "egg4", egg4, 7,
                         lambda n: _brute_or_shape(egg4)(n) if n <= BRUTE_MAX_N[2]
                         else _check_level(n, 2, classes=lambda n: EGG4_CLASSES[n]))
    tasks += [_quotient_task(tr, *q) for q in QUOTIENTS]
    return tasks


# ---------------------------------------------------------------------------
# fine-distinct: nearly every bracketing in a class of its own

RANDOM_GROUPOIDS = ((2, 3, 8), (3, 2, 6), (3, 3, 5))  # (arity, size, last level under the cap)


def random_groupoid(seed: int, p: int, size: int) -> Groupoid:
    rng = _rng(seed, f"groupoid p={p} size={size}")
    return Groupoid(p, size, [rng.randrange(size) for _ in range(size ** p)])


def fine_distinct(seed: int, tr: Tracer, work: Path) -> list[Task]:
    tasks = []
    tasks += _fine_tasks(tr, "sheffer", gallery("sheffer"), 10,
                         lambda n: _check_level(n, 2, classes=lambda n: refs.catalan(n, 2)))
    tasks += _fine_tasks(tr, "egg7", gallery("egg7"), 6,
                         lambda n: _check_level(n, 2, labels=refs.tau_classes))
    for p, size, max_n in RANDOM_GROUPOIDS:
        g = random_groupoid(seed, p, size)
        tasks += _fine_tasks(tr, f"random p={p} size={size}", g, max_n, _brute_or_shape(g))

    def ring():
        if tr.enabled:
            enumerate_level(tr, 9, 2)
        with tr.span("groupoids.ring_check"):
            return ring_closed_form_check(16, 9, trials=50, seed=seed)

    tasks.append(Task("ring_closed_form_check(16, 9)", ring,
                      lambda rep: None if rep.ok and rep.bracketings == refs.catalan(9, 2)
                      else f"ring check: {rep.bracketings} bracketings, "
                           f"{len(rep.mismatches)} mismatches"))
    return tasks


# ---------------------------------------------------------------------------
# closure: delta, verify_closed, named spectra and tuple levels; no tabulation

SIGMA_A_BITS = "0000010010"
PLANTED = ((2, 10), (3, 6), (4, 5))  # (arity, horizon); planted one level below the horizon
ROUND_TRIPS = ((10, 2), (6, 3))  # (level, arity)


def planted_prefix(seed: int, p: int, horizon: int) -> SpectrumPrefix:
    """Full levels, then a random two-class top level.

    ``delta`` of a full level is full, so the prefix is closed up to the
    level below the top and violated there, whatever the colouring.
    """
    rng = _rng(seed, f"planted p={p} horizon={horizon}")
    size = refs.catalan(horizon, p)
    labels = [rng.randrange(2) for _ in range(size)]
    zero, one = rng.sample(range(size), 2)
    labels[zero], labels[one] = 0, 1
    return SpectrumPrefix([Partition.full(n, p) for n in range(horizon)]
                          + [Partition(horizon, p, labels)])


def _named_task(tr: Tracer, label: str, build: Callable[[], SpectrumPrefix],
                check: Callable) -> Task:
    def run():
        sigma = build()
        return verify(tr, sigma), [pi.class_of for pi in sigma.partitions]
    return Task(f"closed {label}", run, check)


def _round_trip_task(tr: Tracer, n: int, p: int) -> Task:
    def run():
        trees = enumerate_level(tr, n, p)
        with tr.span("insertion.to_tuple", tuples=len(trees)):
            tuples = [to_tuple(t) for t in trees]
        with tr.span("insertion.from_tuple"):
            back = [from_tuple(u, p) for u in tuples]
        return trees, tuples, back

    def check(result) -> str | None:
        trees, tuples, back = result
        if tuples != refs.level_tuples(n, p):
            return "to_tuple does not list the level's insertion tuples in order"
        return None if back == trees else "from_tuple(to_tuple(t)) != t"

    return Task(f"round trip p={p} n={n}", run, check)


def closure(seed: int, tr: Tracer, work: Path) -> list[Task]:
    tasks = [
        _named_task(tr, "left_factor:2 to 11",
                    lambda: named(tr, lambda n: left_factor_sigma(n, 2), 11, True),
                    _check_closed(counts=lambda n: refs.polyk_classes(n, 2))),
        _named_task(tr, "dldr to 11", lambda: named(tr, dldr_sigma, 11, False),
                    _check_closed(counts=refs.dldr_classes)),
        _named_task(tr, "tau to 10", lambda: named(tr, tau, 10, True),
                    _check_closed(labels={n: refs.tau_classes for n in range(11)})),
        _named_task(tr, "tail:2 p=3 to 8",
                    lambda: named(tr, lambda n: tail_tuple_sigma(n, 2, 3), 8, False),
                    _check_closed(counts=lambda n: refs.tail_classes(n, 2, 3))),
    ]

    def build_sigma_a() -> SpectrumPrefix:
        with tr.span("spectra.named"):
            return sigma_a(SIGMA_A_BITS)

    tasks.append(_named_task(
        tr, f"sigma_a:{SIGMA_A_BITS}", build_sigma_a,
        _check_closed(labels={n: refs.tau_classes
                              for n, b in enumerate(SIGMA_A_BITS) if b == "1"})))
    for p, horizon in PLANTED:
        sigma = planted_prefix(seed, p, horizon)
        tasks.append(Task(f"planted p={p} at {horizon - 1}",
                          lambda sigma=sigma: verify(tr, sigma),
                          _check_planted(horizon - 1, sigma[horizon])))
    for p in range(2, 7):
        def census(p=p):
            with tr.span("spectra.census"):
                return coatom_census(p)
        tasks.append(Task(f"coatom_census({p})", census,
                          lambda got, p=p: _expect("census", got, refs.census_count(p))))
    tasks += [_round_trip_task(tr, n, p) for n, p in ROUND_TRIPS]
    return tasks


# ---------------------------------------------------------------------------
# cli: each command is its own interpreter, as a user runs it

CLI_COMMANDS = (  # (layer span, arguments); exit codes and stdout digests are in golden.json
    ("cli.enum", ("enum", "--p", "2", "--n", "11", "--format", "tuple")),
    ("cli.enum", ("enum", "--p", "2", "--n", "11", "--format", "infix")),
    ("cli.enum", ("enum", "--p", "3", "--n", "7", "--format", "tuple")),
    ("cli.spectrum", ("spectrum", "polyk3.json", "--max-n", "7", "--fine")),
    ("cli.spectrum", ("spectrum", "egg7.json", "--max-n", "8")),
    ("cli.verify", ("verify", "--file", "left_factor2.txt")),
    ("cli.verify", ("verify", "--builtin", "tail:2", "--p", "3", "--max-n", "8")),
)
PLANTED_CLI = (2, 9)  # (arity, horizon) of the seeded violating prefix file
GOLDEN = HERE / "golden.json"


def cli_key(args) -> str:
    return " ".join(args)


def _cli_task(tr: Tracer, work: Path, env: dict, index: int, span: str, args,
              check: Callable) -> Task:
    out_path = work / f"cmd{index}.out"
    span_path = work / f"cmd{index}.span"

    def run():
        if tr.enabled:
            argv = [sys.executable, str(HERE / "cli_span.py"), str(span_path), *args]
        else:
            argv = [sys.executable, "-m", "assocspectra", *args]
        with open(out_path, "wb") as out:
            proc = subprocess.run(argv, cwd=work, env=env, stdout=out, stderr=subprocess.PIPE,
                                  timeout=CLI_TIMEOUT_S)
        if tr.enabled:
            got = json.loads(span_path.read_text())
            tr.add(span, got["start"], got["end"], stdout_bytes=out_path.stat().st_size)
        return proc.returncode, out_path, proc.stderr.decode(errors="replace")

    return Task(f"assocspectra {cli_key(args)}", run, check)


def _check_output(code: int, digest: str | None = None, text: str | None = None):
    def check(result) -> str | None:
        got_code, out_path, err = result
        if got_code != code:
            return f"exit code {got_code}, want {code}; stderr: {err.strip()[-200:]}"
        out = out_path.read_bytes()
        if digest is not None and hashlib.sha256(out).hexdigest() != digest:
            return "stdout differs from the recorded output"
        if text is not None and out.decode() != text:
            return f"stdout {out.decode()[:200]!r}, want {text!r}"
        return None
    return check


def _violation_text(sigma: SpectrumPrefix) -> str:
    """What ``verify`` prints for a violated prefix, from the package's own answer."""
    report = verify_closed(sigma)
    s, t = (render_bracketing(from_tuple(u, sigma.arity)) for u in report.witness)
    return f"VIOLATION at n={report.level}: {s} ~ {t} required\n"


def cli(seed: int, tr: Tracer, work: Path) -> list[Task]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name, g in (("polyk3.json", gallery("polyk", k=3)), ("egg7.json", gallery("egg7"))):
        (work / name).write_text(json.dumps(dump_groupoid(g)) + "\n")
    (work / "left_factor2.txt").write_text(
        format_spectrum_prefix(build_prefix(lambda n: left_factor_sigma(n, 2), 10)) + "\n")
    planted = planted_prefix(seed, *PLANTED_CLI)
    (work / "planted.txt").write_text(format_spectrum_prefix(planted) + "\n")

    golden = json.loads(GOLDEN.read_text())
    tasks = []
    for i, (span, args) in enumerate(CLI_COMMANDS):
        want = golden[cli_key(args)]
        tasks.append(_cli_task(tr, work, env, i, span, args,
                               _check_output(want["exit"], digest=want["sha256"])))
    args = ("verify", "--file", "planted.txt")

    def check_planted(result) -> str | None:
        # the package's own answer is computed only now, after every command has run
        return _check_output(1, text=_violation_text(planted))(result)

    tasks.append(_cli_task(tr, work, env, len(CLI_COMMANDS), "cli.verify", args, check_planted))
    return tasks


# workload -> its task groups, in the order they run
WORKLOADS = {
    "fine": (("fine-shared", fine_shared), ("fine-distinct", fine_distinct)),
    "closure-cli": (("closure", closure), ("cli", cli)),
}

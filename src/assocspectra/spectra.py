"""Partitions of bracketing levels, the implication operator, and named spectra.

A :class:`Partition` groups the bracketings of one level; a
:class:`SpectrumPrefix` is a finite run of such partitions, one per level
starting at 0.  The implication operator :func:`delta` pushes a partition one
level up along the occurrence-raising operators; a prefix in which each
pushed partition stays inside the next one is exactly a finite window of the
fine spectrum of some groupoid, which :func:`verify_closed` decides.

:func:`delta` works on word arrays: it reads the cached prefix words of a
level into a numpy "is x" array, ranks every operator image in the level
above by summing entries of a ballot-number table (so that level is never
built), and unions classes by min-label propagation over the pairs of
images that each class's first member anchors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ParseError, _show
from .insertion import catalan, count_m, format_tuple, parse_tuple, to_tuple
from .terms import (
    Bracketing,
    _level,
    _level_size,
    _word_of,
    egg_pairs,
    enumerate_bracketings,
    leaf,
    left_lengths,
    left_right_depth,
    node,
)


class Partition:
    """An equivalence relation on the bracketings of one level.

    ``class_of[r]`` is the class id of the bracketing with canonical rank
    ``r``; ids run 0..num_classes-1 in order of first appearance, so two
    partitions describe the same relation exactly when they compare equal.
    """

    __slots__ = ("level", "arity", "class_of", "num_classes")

    def __init__(self, level: int, arity: int, labels: Iterable):
        labels = list(labels)
        # every level n >= 1 holds at least 2**(n-1) bracketings; a label count
        # below that is refused before the exact count is computed
        expected = catalan(level, arity) if len(labels).bit_length() >= level else None
        if len(labels) != expected:
            shown = f"at least 2**{level - 1}" if expected is None else _show(expected)
            raise ValueError(f"level {level} has {shown} bracketings, got {len(labels)} labels")
        ids: dict = {}
        class_of = []
        for lab in labels:
            cid = ids.get(lab)
            if cid is None:
                cid = ids[lab] = len(ids)
            class_of.append(cid)
        self.level = level
        self.arity = arity
        self.class_of = tuple(class_of)
        self.num_classes = len(ids)

    @classmethod
    def equality(cls, level: int, arity: int, *, max_count: int | None = None) -> "Partition":
        """Every bracketing in its own class."""
        return cls(level, arity, range(_level_size(level, arity, max_count)))

    @classmethod
    def full(cls, level: int, arity: int, *, max_count: int | None = None) -> "Partition":
        """One class holding the whole level."""
        return cls(level, arity, [0] * _level_size(level, arity, max_count))

    @classmethod
    def from_key(cls, level: int, arity: int, key: Callable, *,
                 max_count: int | None = None) -> "Partition":
        """Group the level by a key function on insertion tuples."""
        trees = enumerate_bracketings(level, arity, max_count=max_count)
        return cls(level, arity, [key(to_tuple(t)) for t in trees])

    @classmethod
    def _from_ids(cls, level: int, arity: int, ids: np.ndarray) -> "Partition":
        """Wrap class ids that already count up from 0 in order of first appearance."""
        pi = cls.__new__(cls)
        pi.level, pi.arity = level, arity
        pi.class_of = tuple(ids.tolist())
        pi.num_classes = int(ids.max()) + 1
        return pi

    @property
    def size(self) -> int:
        return len(self.class_of)

    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Member ranks per class id."""
        out: list[list[int]] = [[] for _ in range(self.num_classes)]
        for r, c in enumerate(self.class_of):
            out[c].append(r)
        return tuple(tuple(ranks) for ranks in out)

    def _check_compatible(self, other: "Partition") -> None:
        if self.level != other.level or self.arity != other.arity:
            raise ValueError(
                f"partition on level {self.level} (p={self.arity}) is incompatible "
                f"with level {other.level} (p={other.arity})")

    def refines(self, other: "Partition") -> bool:
        """True when every class of this partition lies inside one class of ``other``."""
        self._check_compatible(other)
        return _refinement_witness(self, other) is None

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return (self.level, self.arity, self.class_of) == \
               (other.level, other.arity, other.class_of)

    def __repr__(self):
        return f"Partition(level={self.level}, p={self.arity}, classes={self.num_classes})"


def _refinement_witness(finer: Partition, coarser: Partition) -> tuple[int, int] | None:
    """First pair of ranks merged by ``finer`` but separated by ``coarser``."""
    seen: dict[int, tuple[int, int]] = {}
    for r, (cf, cc) in enumerate(zip(finer.class_of, coarser.class_of)):
        first = seen.get(cf)
        if first is None:
            seen[cf] = (r, cc)
        elif first[1] != cc:
            return first[0], r
    return None


class SpectrumPrefix:
    """Partitions of the levels 0..N, a candidate finite window of a fine spectrum."""

    __slots__ = ("arity", "partitions")

    def __init__(self, partitions: Sequence[Partition]):
        partitions = tuple(partitions)
        if not partitions:
            raise ValueError("a spectrum prefix needs at least level 0")
        arity = partitions[0].arity
        for i, pi in enumerate(partitions):
            if not isinstance(pi, Partition):
                raise TypeError(f"expected a Partition at level {i}, got {type(pi).__name__}")
            if pi.arity != arity:
                raise ValueError(f"mixed arities in prefix: {arity} and {pi.arity}")
            if pi.level != i:
                raise ValueError(f"expected level {i}, got a partition of level {pi.level}")
        self.arity = arity
        self.partitions = partitions

    @property
    def horizon(self) -> int:
        return len(self.partitions) - 1

    def __len__(self):
        return len(self.partitions)

    def __getitem__(self, level: int) -> Partition:
        return self.partitions[level]

    def __eq__(self, other):
        if not isinstance(other, SpectrumPrefix):
            return NotImplemented
        return self.partitions == other.partitions

    def __repr__(self):
        counts = ",".join(str(pi.num_classes) for pi in self.partitions)
        return f"SpectrumPrefix(p={self.arity}, classes=[{counts}])"


def build_prefix(level_fn: Callable[[int], Partition], max_n: int) -> SpectrumPrefix:
    """Assemble the levels 0..max_n from a per-level partition builder."""
    if max_n < 0:
        raise ValueError(f"horizon must be nonnegative, got {max_n}")
    return SpectrumPrefix([level_fn(n) for n in range(max_n + 1)])


# ---------------------------------------------------------------------------
# occurrence-raising operators

def gamma(t: Bracketing, i: int, p: int | None = None) -> Bracketing:
    """Wrap ``t`` as the i-th child of a fresh operation symbol, leaves elsewhere."""
    if p is None:
        p = t.arity
    elif p != t.arity:
        raise ValueError(f"arity mismatch: bracketing has arity {t.arity}, requested {p}")
    if not 1 <= i <= p:
        raise ValueError(f"child position {i} out of range 1..{p}")
    kids = [leaf(p)] * p
    kids[i - 1] = t
    return node(*kids)


def beta(t: Bracketing, i: int) -> Bracketing:
    """Replace the i-th variable of ``t`` (left to right) by a fresh operation on leaves."""
    if not 1 <= i <= t.length:
        raise ValueError(f"variable position {i} out of range 1..{t.length}")
    path: list[tuple[Bracketing, int]] = []  # each node above the variable, and the child taken
    s = t
    while not s.is_leaf:
        for idx, c in enumerate(s.children):
            if i <= c.length:
                break
            i -= c.length
        else:
            raise AssertionError("variable position fell off the children")
        path.append((s, idx))
        s = c
    out = node(*(leaf(t.arity),) * t.arity)
    for s, idx in reversed(path):
        out = node(*s.children[:idx], out, *s.children[idx + 1:])
    return out


# array cells that one of delta's word-array chunks or edge slices holds
_CHUNK_CELLS = 1 << 16


@lru_cache(maxsize=None)
def _completions(n: int, p: int) -> np.ndarray:
    """Ballot table for ranking the operator images of level ``n``.

    Entry ``[r, d]`` counts the words of length ``r`` that complete a forest
    still needing ``d`` trees: ``|M((r - d)/p, d, p)| = d/r * C(r, (r - d)/p)``
    (:func:`count_m`) when ``p`` divides ``r - d`` (Knuth, TAOCP 7.2.1.6),
    else 0.  Rows reach the level-(n+1) length and columns leave room for the
    shifts of :func:`_images`.  Entries are clipped at ``C_{n+1}``: a state
    that a word of level n or n+1 reaches has no more completions than that,
    so the clip only touches cells that no rank reads.  The dtype is int32
    when the level-(n+1) ranks fit in it, int64 otherwise.
    """
    size = catalan(n + 1, p)
    table = np.zeros((p * n + p + 1, (p - 1) * n + 2 * p + 1),
                     np.int32 if size < 2**31 else np.int64)
    table[0, 0] = 1
    rows, cols = table.shape
    for r in range(1, rows):
        for d in range(r % p or p, min(r, cols - 1) + 1, p):
            table[r, d] = min(count_m((r - d) // p, d, p), size)
    return table


def _word_index(words: Sequence[str], p: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The "is x" array of equal-length prefix words, and each cell's ballot-table index.

    A variable at position ``i`` with ``d`` trees pending before it
    indexes the flat table at ``[L - 1 - i, d + p - 1]``: the number of
    words that share the prefix before ``i`` and put an operation symbol
    there, so the word's rank is the sum over its variables.  An operation
    symbol indexes ``[0, p + 1]``, which stays 0 under every shift below.
    """
    length = len(words[0])
    isx = np.frombuffer("".join(words).encode("ascii"), np.uint8).reshape(-1, length) == ord("x")
    step = np.where(isx, -1, p - 1)
    pending = np.cumsum(step, axis=1) - step + 1
    index = np.where(isx, (length - 1 - np.arange(length)) * cols + pending + p - 1, p + 1)
    return isx, index


def _images(words: Sequence[str], first: int, n: int, p: int) -> np.ndarray:
    """Level-(n+1) ranks of the operator images of consecutive level-n words.

    ``words`` are the words of ranks ``first, first + 1, ...``; the columns
    are ``gamma_1..gamma_p``, then ``beta_1..beta_{(p-1)n+1}``.
    """
    table = _completions(n, p)
    cols = table.shape[1]
    flat = table.ravel()
    isx, index = _word_index(words, p, cols)
    ranks = np.arange(first, first + len(words), dtype=table.dtype)
    out = np.empty((len(words), (p - 1) * n + 1 + p), table.dtype)
    # gamma_{i+1} writes "w x^i" before the word and "x^(p-1-i)" after it:
    # the head's variables count head[i], the trailing ones nothing, and the
    # word's own variables read the table s = p-1-i rows down and right
    length = p * n + 1
    head = [0]
    for m in range(1, p):
        head.append(head[-1] + int(table[length + p - 1 - m, 2 * p - m]))
    out[:, p - 1] = head[p - 1] + ranks
    # beta_j inserts "w x^(p-1)" before the j-th variable: its rank sums the
    # level-(n+1) terms before it, the inserted variables (whose terms are
    # the gamma shifts s = 1..p-1 at that variable), and the word's own
    # terms from it on, which keep both the remaining length and the need
    own = np.take(flat, index)
    lifted = np.take(flat[p * cols:], index) - own
    before = np.cumsum(lifted, axis=1, dtype=table.dtype) - lifted + ranks[:, None]
    for s in range(1, p):
        shifted = np.take(flat[s * cols + s:], index)
        out[:, p - 1 - s] = head[p - 1 - s] + shifted.sum(axis=1, dtype=table.dtype)
        before += shifted
    out[:, p:] = before[isx].reshape(len(words), -1)
    return out


def _components(size: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Least member of each node's connected component, given the edges ``u[k] -- v[k]``.

    Min-label propagation: each edge hooks the label at either end under
    the one at the other end when that is smaller, a slice of edges at a
    time, and pointer jumping then flattens the labels; rounds repeat until
    one changes nothing.  A label never exceeds its node and never leaves
    its component, so each component ends labelled by its least member.
    """
    label = np.arange(size, dtype=u.dtype)
    while True:
        settled = True
        for lo in range(0, len(u), _CHUNK_CELLS):
            lu, lv = label[u[lo:lo + _CHUNK_CELLS]], label[v[lo:lo + _CHUNK_CELLS]]
            if not np.array_equal(lu, lv):
                settled = False
                np.minimum.at(label, lu, lv)
                np.minimum.at(label, lv, lu)
        if settled:
            return label
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def delta(pi: Partition) -> Partition:
    """Push a level-n partition to level n+1 along all occurrence-raising operators.

    Two level-(n+1) bracketings end up together exactly when they are
    connected through operator images of related pairs.  ``gamma_i`` wraps
    a word as ``"w" + "x"*(i-1) + word + "x"*(p-i)``, and ``beta_j``
    replaces its j-th ``x`` by ``"w" + "x"*p``.  The level-n words are read
    into an "is x" array in row chunks, and each image is ranked in level
    n+1 by arithmetic on a ballot-number table (:func:`_completions`), so
    neither level n+1 nor any image word is built.  The first member of
    each class anchors it: every later member's images are paired with the
    anchor's, operator by operator, and the classes of level n+1 are the
    connected components of those pairs (:func:`_components`).  Every
    rank is asserted to lie in level n+1, and every level-(n+1)
    bracketing to be an image.
    """
    n, p = pi.level, pi.arity
    size = catalan(n + 1, p)
    trees = _level(n, p)
    images = np.empty((len(trees), (p - 1) * n + 1 + p), _completions(n, p).dtype)
    step = max(1, _CHUNK_CELLS // (p * n + 1))
    for lo in range(0, len(trees), step):
        images[lo:lo + step] = _images([_word_of(t) for t in trees[lo:lo + step]], lo, n, p)
    if images.min() < 0 or images.max() >= size:
        raise AssertionError(f"an operator image is ranked outside level {n + 1}")
    hit = np.zeros(size, bool)
    hit[images.ravel()] = True
    if not hit.all():
        raise AssertionError(f"some level-{n + 1} bracketing is not an operator image")
    class_of = np.array(pi.class_of, dtype=np.intp)
    anchor = np.unique(class_of, return_index=True)[1][class_of]
    member = np.flatnonzero(anchor != np.arange(len(class_of)))
    u, v = images[anchor[member]].ravel(), images[member].ravel()
    del images
    label = _components(size, u, v)
    del u, v
    ids = np.cumsum(label == np.arange(size, dtype=label.dtype)) - 1
    return Partition._from_ids(n + 1, p, ids[label])


@dataclass(frozen=True)
class ClosureReport:
    """Outcome of :func:`verify_closed`.

    On failure, ``level`` is the least n whose pushed partition escapes the
    next one, and ``witness`` holds the insertion tuples of one offending
    pair at level ``level + 1``.
    """

    closed: bool
    level: int | None = None
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None


def verify_closed(sigma: SpectrumPrefix) -> ClosureReport:
    """Check that pushing each level up stays within the next partition."""
    for n in range(sigma.horizon):
        pushed = delta(sigma.partitions[n])
        witness = _refinement_witness(pushed, sigma.partitions[n + 1])
        if witness is not None:
            trees = _level(n + 1, sigma.arity)
            return ClosureReport(False, n, tuple(to_tuple(trees[r]) for r in witness))
    return ClosureReport(True)


def partition_meet(a: Partition, b: Partition) -> Partition:
    """Coarsest partition refining both: classwise intersection."""
    a._check_compatible(b)
    return Partition(a.level, a.arity, list(zip(a.class_of, b.class_of)))


def covers(lower: SpectrumPrefix, upper: SpectrumPrefix) -> bool:
    """Whether ``upper`` covers ``lower`` among closed prefixes ordered by inclusion.

    Both prefixes must be closed, share arity and horizon, and ``lower``
    must refine ``upper`` at every level; violations raise ``ValueError``.
    Covering holds exactly when the two differ at a single level and there
    ``upper`` merges exactly two classes of ``lower``.
    """
    if lower.arity != upper.arity:
        raise ValueError(f"arity mismatch: {lower.arity} vs {upper.arity}")
    if lower.horizon != upper.horizon:
        raise ValueError(f"horizon mismatch: {lower.horizon} vs {upper.horizon}")
    for name, prefix in (("lower", lower), ("upper", upper)):
        report = verify_closed(prefix)
        if not report.closed:
            raise ValueError(f"{name} prefix is not closed (violation at level {report.level})")
    diffs = []
    for i in range(lower.horizon + 1):
        a, b = lower.partitions[i], upper.partitions[i]
        if not a.refines(b):
            raise ValueError(f"lower prefix does not refine the upper one at level {i}")
        if a != b:
            diffs.append(i)
    if len(diffs) != 1:
        return False
    i = diffs[0]
    return lower.partitions[i].num_classes == upper.partitions[i].num_classes + 1


# ---------------------------------------------------------------------------
# named spectra

def tau(n: int, *, min_eggs: int = 3, max_count: int | None = None) -> Partition:
    """One class for the binary bracketings with at least ``min_eggs`` egg pairs,
    singletons elsewhere; the equality partition when fewer than two qualify."""
    trees = enumerate_bracketings(n, 2, max_count=max_count)
    return Partition(
        n, 2, [-1 if egg_pairs(t) >= min_eggs else r for r, t in enumerate(trees)])


def _bit_sequence(bits) -> list[int]:
    """The bits of a :func:`sigma_a` string, refused unless they are 0/1 and start with five 0s."""
    seq = [int(b) for b in bits]
    if len(seq) < 5:
        raise ValueError(f"need at least five bits, got {len(seq)}")
    if any(b not in (0, 1) for b in seq):
        raise ValueError("bits must be 0 or 1")
    if any(seq[:5]):
        raise ValueError("the first five bits must be 0")
    return seq


def sigma_a(bits, *, max_count: int | None = None) -> SpectrumPrefix:
    """Binary prefix driven by a 0/1 string: push the previous level up on 0,
    restart at :func:`tau` on 1.  The first five bits must be 0, and every
    level is checked against ``max_count`` before it is built."""
    seq = _bit_sequence(bits)
    parts = [Partition.full(0, 2)]
    for i in range(1, len(seq)):
        _level_size(i, 2, max_count)  # delta does not check the level it pushes to
        parts.append(tau(i, max_count=max_count) if seq[i] else delta(parts[-1]))
    return SpectrumPrefix(parts)


def left_factor_sigma(n: int, k: int, *, max_count: int | None = None) -> Partition:
    """Group a binary level by the lengths of the first ``k`` iterated left factors."""
    if k < 1:
        raise ValueError(f"need at least one left factor, got k={k}")
    trees = enumerate_bracketings(n, 2, max_count=max_count)
    k = min(k, n + 1)  # later entries are 1 on every tree of level n, past its leftmost leaf
    return Partition(n, 2, [left_lengths(t, k) for t in trees])


def tail_tuple_sigma(n: int, k: int, p: int, *, max_count: int | None = None) -> Partition:
    """Group a level by the last ``k`` insertion-tuple entries; equality below level ``k``."""
    if k < 1:
        raise ValueError(f"need at least one tail entry, got k={k}")
    return Partition.from_key(n, p, lambda u: u[max(n - k, 0):], max_count=max_count)


def dldr_sigma(n: int, *, max_count: int | None = None) -> Partition:
    """Group a binary level by the depths of the leftmost and rightmost variables."""
    return Partition(n, 2, map(left_right_depth, enumerate_bracketings(n, 2, max_count=max_count)))


def coatom_census(p: int, *, max_count: int | None = None) -> int:
    """Count the closed prefixes that are full everywhere except a 2-class level 2.

    Probes every 2-class partition of level 2 (one bracketing per child
    position, so a p-element set) at horizon 4; closure beyond the horizon is
    forced because the full partition pushes to the full partition.
    """
    if not isinstance(p, int) or isinstance(p, bool) or not 2 <= p <= 6:
        raise ValueError(f"census supported for arities 2..6, got {p!r}")
    m = catalan(2, p)
    full = {i: Partition.full(i, p, max_count=max_count) for i in (0, 1, 3, 4)}
    count = 0
    for mask in range(1, 2 ** (m - 1)):
        labels = [0] + [(mask >> (e - 1)) & 1 for e in range(1, m)]
        candidate = SpectrumPrefix(
            [full[0], full[1], Partition(2, p, labels), full[3], full[4]])
        if verify_closed(candidate).closed:
            count += 1
    return count


# ---------------------------------------------------------------------------
# text serialization

_HEADER_RE = re.compile(r"level=(\d+) p=(\d+) classes=(\d+)$")
_CLASS_RE = re.compile(r"class (\d+):\s*(.*)$")


def format_partition(pi: Partition) -> str:
    """Render a partition block: a header line, then one line per class."""
    trees = _level(pi.level, pi.arity)
    lines = [f"level={pi.level} p={pi.arity} classes={pi.num_classes}"]
    for cid, ranks in enumerate(pi.classes()):
        lines.append(f"class {cid}: " + " ".join(format_tuple(to_tuple(trees[r])) for r in ranks))
    return "\n".join(lines)


def parse_partition(text: str, *, max_count: int | None = None) -> Partition:
    """Inverse of :func:`format_partition`; every bracketing must appear exactly once.

    The level named in the header is checked against ``max_count`` (the
    default cap when ``None``) before it is built.
    """
    lines = text.strip().splitlines()
    if not lines:
        raise ParseError("empty partition block")
    m = _HEADER_RE.match(lines[0].strip())
    if not m:
        raise ParseError(f"bad partition header: {lines[0]!r}")
    level, p, n_classes = (int(g) for g in m.groups())
    if p < 2:
        raise ParseError(f"arity in header must be at least 2, got {p}")
    trees = enumerate_bracketings(level, p, max_count=max_count)
    rank = {to_tuple(t): r for r, t in enumerate(trees)}
    if len(lines) - 1 != n_classes:
        raise ParseError(f"header announces {n_classes} classes, found {len(lines) - 1} lines")
    labels: dict[int, int] = {}
    for expected_id, line in enumerate(lines[1:]):
        m = _CLASS_RE.match(line.strip())
        if not m:
            raise ParseError(f"bad class line: {line!r}")
        cid = int(m.group(1))
        if cid != expected_id:
            raise ParseError(f"class ids must count up from 0, got {cid}")
        members = m.group(2).split()
        if not members:
            raise ParseError(f"class {cid} has no members")
        for piece in members:
            u = parse_tuple(piece)
            r = rank.get(u)
            if r is None:
                raise ParseError(f"{piece} is not a level-{level} insertion tuple")
            if r in labels:
                raise ParseError(f"{piece} is classified twice")
            labels[r] = cid
    if len(labels) != len(rank):
        raise ParseError(
            f"{len(rank) - len(labels)} bracketings left unclassified at level {level}")
    return Partition(level, p, [labels[r] for r in range(len(rank))])


def format_spectrum_prefix(sigma: SpectrumPrefix) -> str:
    """Render a prefix as blank-line separated partition blocks."""
    return "\n\n".join(format_partition(pi) for pi in sigma.partitions)


def parse_spectrum_prefix(text: str, *, max_count: int | None = None) -> SpectrumPrefix:
    """Inverse of :func:`format_spectrum_prefix`; each level is capped before it is built."""
    blocks = [b for b in re.split(r"\n\s*\n", text.strip()) if b.strip()]
    if not blocks:
        raise ParseError("no partition blocks found")
    return SpectrumPrefix([parse_partition(b, max_count=max_count) for b in blocks])

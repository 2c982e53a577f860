"""Partitions of bracketing levels, the implication operator, and named spectra.

A :class:`Partition` groups the bracketings of one level; a
:class:`SpectrumPrefix` is a finite run of such partitions, one per level
starting at 0.  The implication operator :func:`delta` pushes a partition one
level up along the occurrence-raising operators; a prefix in which each
pushed partition stays inside the next one is exactly a finite window of the
fine spectrum of some groupoid, which :func:`verify_closed` decides.

:func:`delta`, :func:`verify_closed` and the named spectra work on the word
array of a level (``terms._level``) in row chunks.  Every operator image is
ranked in the level above by summing entries of the ballot table (so that
level is never built), and each image is paired with the image, under the
same operator, of its class's first member.  :func:`delta` unions classes by
min-label propagation over those pairs; :func:`verify_closed` only compares
each pair with the next partition, and runs the propagation just at a
failing level, to name a witness.  A named spectrum is a statistic of the
rows, grouped by :func:`_group_rows`.

Partition blocks are written and read as row chunks as well:
:func:`format_partition` writes the level's tuple lines class by class
in one buffer, and :func:`parse_partition` reads each class line's members
as one array of entries and checks them all at once, going piece by piece
only to name a fault or to read a piece of another form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ParseError, _show, check_nonnegative
from .insertion import (
    _check_member,
    _tuple_columns,
    _tuple_lines,
    _tuple_words,
    format_tuple,
    parse_tuple,
)
from .terms import (
    _CHUNK_CELLS,
    _W,
    _X,
    Bracketing,
    _completions,
    _intern,
    _level,
    _level_size,
    _rank,
    _row_chunks,
    _word_index,
    catalan,
)

__all__ = [
    "ClosureReport", "Partition", "SpectrumPrefix", "beta", "build_prefix", "coatom_census",
    "covers", "delta", "dldr_sigma", "format_partition", "format_spectrum_prefix", "gamma",
    "left_factor_sigma", "parse_partition", "parse_spectrum_prefix", "partition_meet", "sigma_a",
    "tail_tuple_sigma", "tau", "verify_closed",
]


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


def _class_ids(pi: Partition, dtype=np.intp) -> np.ndarray:
    """``pi.class_of`` as an array."""
    return np.fromiter(pi.class_of, dtype, pi.size)


def _group_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``keys`` in order of first appearance, and each row's index there."""
    code = np.zeros(len(keys), np.int64)  # the columns folded, renumbered before an overflow
    for column in keys.T.astype(np.int64, order="C"):
        column -= column.min(initial=0)  # so a column must span less than 2**63
        if (int(code.max(initial=0)) + 1) * (int(column.max(initial=0)) + 1) >= 2**63:
            code = np.unique(code, return_inverse=True)[1]
            column = np.unique(column, return_inverse=True)[1]
        code = code * (int(column.max(initial=0)) + 1) + column
    first, inverse = np.unique(code, return_index=True, return_inverse=True)[1:]
    order = np.argsort(first)
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    return keys[first[order]], position[inverse.reshape(-1)]


def _level_rows(n: int, p: int, stat: Callable, max_count: int | None) -> np.ndarray:
    """``stat(first rank, rows)`` over the row chunks of level ``n``, stacked; capped first."""
    _level_size(n, p, max_count)
    return np.concatenate([stat(lo, rows) for lo, rows in _row_chunks(_level(n, p))])


def _refinement_witness(finer: Partition, coarser: Partition) -> tuple[int, int] | None:
    """First pair of ranks merged by ``finer`` but separated by ``coarser``.

    The pair is the first rank whose ``coarser`` class differs from that of
    the first rank of its ``finer`` class, and that first rank.
    """
    fine, coarse = _class_ids(finer), _class_ids(coarser)
    first, inverse = np.unique(fine, return_index=True, return_inverse=True)[1:]
    anchor = first[inverse.reshape(-1)]
    split = np.flatnonzero(coarse != coarse[anchor])
    return (int(anchor[split[0]]), int(split[0])) if len(split) else None


class SpectrumPrefix:
    """Partitions of the levels 0..N, a candidate finite window of a fine spectrum."""

    __slots__ = ("arity", "partitions")

    def __init__(self, partitions: Sequence[Partition]):
        partitions = tuple(partitions)
        if not partitions:
            raise ValueError("a spectrum prefix needs at least level 0")
        for i, pi in enumerate(partitions):  # level 0 is checked first, so its arity exists
            if not isinstance(pi, Partition):
                raise TypeError(f"expected a Partition at level {i}, got {type(pi).__name__}")
            if pi.arity != partitions[0].arity:
                raise ValueError(f"mixed arities in prefix: {partitions[0].arity} and {pi.arity}")
            if pi.level != i:
                raise ValueError(f"expected level {i}, got a partition of level {pi.level}")
        self.arity = partitions[0].arity
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
    check_nonnegative(max_n, "horizon")
    return SpectrumPrefix([level_fn(n) for n in range(max_n + 1)])


# ---------------------------------------------------------------------------
# occurrence-raising operators

def gamma(t: Bracketing, i: int, p: int | None = None) -> Bracketing:
    """Wrap ``t`` as the i-th child of a fresh operation: ``"w" + "x"*(i-1) + word + "x"*(p-i)``."""
    if p is None:
        p = t.arity
    elif p != t.arity:
        raise ValueError(f"arity mismatch: bracketing has arity {t.arity}, requested {p}")
    if not 1 <= i <= p:
        raise ValueError(f"child position {i} out of range 1..{p}")
    return _intern(p, "w" + "x" * (i - 1) + t._word + "x" * (p - i))


def beta(t: Bracketing, i: int) -> Bracketing:
    """Replace the i-th variable of ``t`` (its i-th ``x``) by a fresh operation: ``"w" + "x"*p``."""
    if not 1 <= i <= t.length:
        raise ValueError(f"variable position {i} out of range 1..{t.length}")
    word, at = t._word, -1
    for _ in range(i):
        at = word.index("x", at + 1)
    return _intern(t.arity, word[:at] + "w" + "x" * t.arity + word[at + 1:])


def _images(words: np.ndarray, n: int, p: int) -> np.ndarray:
    """Level-(n+1) ranks of the operator images of level-n words.

    ``words`` are word-array rows, in any order; the columns are
    ``gamma_1..gamma_p``, then ``beta_1..beta_{(p-1)n+1}``.  A word's own
    rank in level n is the sum of its table entries.
    """
    table = _completions(n, p)
    cols = table.shape[1]
    flat = table.ravel()
    isx, index = _word_index(words, n, cols)
    own = np.take(flat, index)
    ranks = own.sum(axis=1, dtype=table.dtype)
    out = np.empty((len(words), (p - 1) * n + 1 + p), table.dtype)
    # gamma_{i+1} writes "w x^i" before the word and "x^(p-1-i)" after it:
    # the head's variables count head[i], the trailing ones nothing, and the
    # word's own variables read the table s = p-1-i rows down
    length = p * n + 1
    head = np.zeros(p, table.dtype)
    np.cumsum(table[length + p - 2:length - 1:-1, n], out=head[1:])
    out[:, p - 1] = head[p - 1] + ranks
    # beta_j inserts "w x^(p-1)" before the j-th variable: its rank sums the
    # level-(n+1) terms before it, the inserted variables (whose terms are
    # the gamma shifts s = 1..p-1 at that variable), and the word's own
    # terms from it on, which keep both the remaining length and the need
    lifted = np.take(flat[p * cols + 1:], index) - own
    before = np.cumsum(lifted, axis=1, dtype=table.dtype) - lifted + ranks[:, None]
    # the shifts go in blocks of at most _CHUNK_CELLS cells, or one shift each
    step = max(1, _CHUNK_CELLS // index.size)
    for lo in range(1, p, step):
        s = np.arange(lo, min(lo + step, p))
        shifted = np.take(flat, index[:, :, None] + s * cols)
        out[:, p - 1 - s] = head[p - 1 - s] + shifted.sum(axis=1, dtype=table.dtype)
        before += shifted.sum(axis=2, dtype=table.dtype)
    out[:, p:] = np.compress(isx.ravel(), before).reshape(len(words), -1)  # faster than before[isx]
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


def _anchored_images(n: int, p: int, class_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The operator images of level ``n``, one row per rank, and each rank's anchor.

    The images are ranked by :func:`_images` in row chunks.  ``class_of``
    holds the class ids of a level-n partition, and a rank's anchor is the
    first member of its class.  Every image is asserted to lie in level
    n+1, and every level-(n+1) bracketing to be an image.
    """
    size = catalan(n + 1, p)
    words = _level(n, p)
    images = np.empty((len(words), (p - 1) * n + 1 + p), _completions(n, p).dtype)
    for lo, rows in _row_chunks(words):
        images[lo:lo + len(rows)] = _images(rows, n, p)
    if images.min() < 0 or images.max() >= size:
        raise AssertionError(f"an operator image is ranked outside level {n + 1}")
    hit = np.zeros(size, bool)
    hit[images.ravel()] = True
    if not hit.all():
        raise AssertionError(f"some level-{n + 1} bracketing is not an operator image")
    return images, np.unique(class_of, return_index=True)[1][class_of]


def _pushed_ids(size: int, images: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Class ids, in order of first appearance, of the connected components of the pairs
    that each rank's images form with its anchor's images, operator by operator."""
    label = _components(size, images[anchor].ravel(), images.ravel())
    return (np.cumsum(label == np.arange(size, dtype=label.dtype)) - 1)[label]


def delta(pi: Partition) -> Partition:
    """Push a level-n partition to level n+1 along all occurrence-raising operators.

    Two level-(n+1) bracketings end up together exactly when they are
    connected through operator images of related pairs.  ``gamma_i`` wraps
    a word as ``"w" + "x"*(i-1) + word + "x"*(p-i)``, and ``beta_j``
    replaces its j-th ``x`` by ``"w" + "x"*p``.  The level-n words are read
    from the level's word array in row chunks, and each image is ranked in level
    n+1 by arithmetic on the ballot table (``terms._completions``), so
    neither level n+1 nor any image word is built.  The first member of
    each class anchors it: every member's images are paired with the
    anchor's, operator by operator (:func:`_anchored_images`), and the
    classes of level n+1 are the connected components of those pairs,
    joined by min-label propagation (:func:`_components`).  Every rank is
    asserted to lie in level n+1, and every level-(n+1) bracketing to be
    an image.
    """
    n, p = pi.level, pi.arity
    images, anchor = _anchored_images(n, p, _class_ids(pi))
    ids = _pushed_ids(catalan(n + 1, p), images, anchor)
    del images, anchor
    return Partition._from_ids(n + 1, p, ids)


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


def _pairs_agree(images: np.ndarray, anchor: np.ndarray, class_of: np.ndarray) -> bool:
    """Whether each rank's images lie in the classes (``class_of``) of its anchor's images.

    The class ids are gathered at the images in row chunks, and each chunk
    is compared with its anchors' rows, which an earlier chunk or this one
    filled: a rank's anchor is never a later rank.
    """
    seen = np.empty(images.shape, class_of.dtype)
    step = max(1, _CHUNK_CELLS // images.shape[1])
    for lo in range(0, len(seen), step):
        np.take(class_of, images[lo:lo + step], out=seen[lo:lo + step])
        if not np.array_equal(seen[lo:lo + step], seen[anchor[lo:lo + step]]):
            return False
    return True


def verify_closed(sigma: SpectrumPrefix) -> ClosureReport:
    """Check that pushing each level up stays within the next partition.

    The classes of ``delta(sigma[n])`` are the connected components of the
    pairs of images that a member and its anchor share
    (:func:`_anchored_images`), so they refine ``sigma[n + 1]`` exactly
    when both images of every pair lie in one of its classes
    (:func:`_pairs_agree`).  The pushed partition is built, by min-label
    propagation, only at the first level where a pair is split, from the
    images in hand, to name the witness.
    """
    p = sigma.arity
    class_of = _class_ids(sigma.partitions[0])
    for n in range(sigma.horizon):
        upper = sigma.partitions[n + 1]
        images, anchor = _anchored_images(n, p, class_of)
        class_of = _class_ids(upper, np.int32 if upper.size < 2**31 else np.intp)
        if not _pairs_agree(images, anchor, class_of):
            pushed = Partition._from_ids(n + 1, p, _pushed_ids(upper.size, images, anchor))
            rows = _level(n + 1, p)[list(_refinement_witness(pushed, upper))]
            return ClosureReport(False, n, tuple(map(tuple, _tuple_columns(rows, n + 1).tolist())))
        del images, anchor  # not held while the next level is ranked
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
    def key(lo: int, w: np.ndarray) -> np.ndarray:
        eggs = ((w[:, :-2] == _W) & (w[:, 1:-1] == _X) & (w[:, 2:] == _X)).sum(axis=1)
        return np.where(eggs >= min_eggs, -1, np.arange(lo, lo + len(w)))[:, None]

    return Partition._from_ids(n, 2, _group_rows(_level_rows(n, 2, key, max_count))[1])


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


def _binary_need(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each cell of binary words is ``w``, and the trees still needed after it."""
    isw = w == _W
    return isw, 2 * np.cumsum(isw, axis=1) - np.arange(w.shape[1])


def left_factor_sigma(n: int, k: int, *, max_count: int | None = None) -> Partition:
    """Group a binary level by the lengths of the first ``k`` iterated left factors."""
    if k < 1:
        raise ValueError(f"need at least one left factor, got k={k}")
    k = min(k, n + 1)  # later entries are 1 on every tree of level n, past its leftmost leaf

    def key(lo: int, w: np.ndarray) -> np.ndarray:
        # the s-th left factor starts at position s while s <= dl and ends where
        # the need first falls to s; past the leftmost leaf its length is 1
        isw, need = _binary_need(w)
        dl = (~isw).argmax(axis=1)
        out = np.ones((len(w), k), np.intp)
        for s in range(1, min(k, n) + 1):
            end = (need[:, s:] == s).argmax(axis=1) + s
            out[:, s - 1] = np.where(s <= dl, (end - s + 2) // 2, 1)
        return out

    return Partition._from_ids(n, 2, _group_rows(_level_rows(n, 2, key, max_count))[1])


def tail_tuple_sigma(n: int, k: int, p: int, *, max_count: int | None = None) -> Partition:
    """Group a level by the last ``k`` insertion-tuple entries; equality below level ``k``."""
    if k < 1:
        raise ValueError(f"need at least one tail entry, got k={k}")
    keys = _level_rows(n, p, lambda lo, w: _tuple_columns(w, n)[:, max(n - k, 0):], max_count)
    return Partition._from_ids(n, p, _group_rows(keys)[1])


def _depths(lo: int, w: np.ndarray) -> np.ndarray:
    """``(dl, dr)`` of binary words: the leading ``w`` run, and the ``w`` needing one tree."""
    isw, need = _binary_need(w)
    return np.stack([(~isw).argmax(axis=1), (isw & (need == 2)).sum(axis=1)], axis=1)


def dldr_sigma(n: int, *, max_count: int | None = None) -> Partition:
    """Group a binary level by the depths of the leftmost and rightmost variables."""
    return Partition._from_ids(n, 2, _group_rows(_level_rows(n, 2, _depths, max_count))[1])


def coatom_census(p: int, *, max_count: int | None = None) -> int:
    """Count the closed prefixes that are full everywhere except a 2-class level 2.

    Probes every 2-class partition of level 2 (one bracketing per child
    position, so a p-element set) at horizon 4; closure beyond the horizon is
    forced because the full partition pushes to the full partition.  Each candidate is
    checked as :func:`verify_closed` would, on the images of levels 0-3, ranked once.
    """
    if not isinstance(p, int) or isinstance(p, bool) or not 2 <= p <= 6:
        raise ValueError(f"census supported for arities 2..6, got {p!r}")
    ids = [np.zeros(p if n == 2 else _level_size(n, p, max_count), np.intp) for n in range(5)]
    images = [_anchored_images(n, p, ids[n])[0] for n in range(4)]
    count = 0
    for mask in range(1, 2 ** (p - 1)):
        ids[2] = (mask << 1 >> np.arange(p)) & 1  # bracketing e >= 1 in class bit e-1 of mask
        count += all(_pairs_agree(images[n], np.unique(ids[n], return_index=True)[1][ids[n]],
                                  ids[n + 1]) for n in range(4))
    return count


# ---------------------------------------------------------------------------
# text serialization

_HEADER_RE = re.compile(r"level=(\d+) p=(\d+) classes=(\d+)$")
_CLASS_RE = re.compile(r"class (\d+):\s*(.*)$")


def format_partition(pi: Partition) -> str:
    """Render a partition block: a header line, then one line per class.

    The level's rows are taken class by class (ranks ascending within a
    class) in row chunks and written as tuple lines (``_tuple_lines``);
    the newline of every member but a class's last becomes a space.
    """
    words = _level(pi.level, pi.arity)
    class_of = np.array(pi.class_of, np.intp)
    order = np.argsort(class_of, kind="stable")
    text = np.concatenate([_tuple_lines(_tuple_columns(words[order[lo:lo + len(rows)]], pi.level))
                           for lo, rows in _row_chunks(words)])
    ends = np.flatnonzero(text == ord("\n"))
    text[ends[:-1][np.diff(class_of[order]) == 0]] = ord(" ")
    members = text.tobytes().decode("ascii").split("\n")
    return "\n".join([f"level={pi.level} p={pi.arity} classes={pi.num_classes}",
                      *(f"class {cid}: {line}" for cid, line in enumerate(members[:-1]))])


def parse_partition(text: str, *, max_count: int | None = None) -> Partition:
    """Inverse of :func:`format_partition`; every bracketing must appear exactly once.

    The level named in the header is checked against ``max_count`` (the
    default cap when ``None``) first; the level itself is never built, since
    each member's word is ranked with the ballot table.  Every member is
    checked with one regex (:func:`_member_re`); the members of the whole
    block are then read as integers in one pass (:func:`_entries`), and
    order and bounds are checked over all of them at once.  A line of
    another form is read piece by piece (:func:`_parse_member`, which
    accepts what ``int`` accepts, such as ``+1`` or ``1_0``) and written
    back in the plain form.  Of several faults, the first in reading order
    is reported, with the message :func:`_parse_member` gives that piece; a
    member classified twice before it is reported instead.
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
    count = _level_size(level, p, max_count)
    if len(lines) - 1 != n_classes:
        raise ParseError(f"header announces {n_classes} classes, found {len(lines) - 1} lines")
    pieces, plain, sizes, fault = [], [], [], None
    for expected_id, line in enumerate(lines[1:]):
        m = _CLASS_RE.match(line.strip())
        if not m:
            fault = ParseError(f"bad class line: {line!r}")
        elif int(m.group(1)) != expected_id:
            fault = ParseError(f"class ids must count up from 0, got {int(m.group(1))}")
        elif not m.group(2):
            fault = ParseError(f"class {expected_id} has no members")
        else:
            members, these = m.group(2), m.group(2).split()
            if not all(map(_member_re(level).fullmatch, these)):
                tuples = []
                for piece in these:
                    try:
                        tuples.append(_parse_member(piece, level, p))
                    except ParseError as exc:
                        fault = exc
                        break
                these = these[:len(tuples)]
                members = " ".join(map(format_tuple, tuples))
            pieces += these
            plain.append(members)
            sizes.append(len(these))
        if fault is not None:
            break  # raised after any duplicate or array fault that comes before it
    tuples = _entries(" ".join(plain)).reshape(len(pieces), level)
    bad = (tuples < 1) | (tuples > (p - 1) * np.arange(level) + 1)
    bad[:, 1:] |= tuples[:, 1:] < tuples[:, :-1]
    first_bad = int(bad.any(axis=1).argmax()) if bad.any() else len(tuples)
    ranks = _rank(_tuple_words(tuples[:first_bad], level, p), level, p)
    repeated = np.ones(len(ranks), bool)
    repeated[np.unique(ranks, return_index=True)[1]] = False
    if repeated.any():
        raise ParseError(f"{pieces[repeated.argmax()]} is classified twice")
    if first_bad < len(tuples):
        _parse_member(pieces[first_bad], level, p)  # raises the piece's own message
        raise AssertionError(f"the array check refused {pieces[first_bad]} alone")
    if fault is not None:
        raise fault
    if len(ranks) != count:
        raise ParseError(f"{count - len(ranks)} bracketings left unclassified at level {level}")
    labels = np.empty(count, np.intp)
    labels[ranks] = np.repeat(np.arange(len(sizes)), sizes)
    return Partition._from_ids(level, p, _group_rows(labels[:, None])[1])


def _parse_member(piece: str, level: int, p: int) -> tuple[int, ...]:
    """One member of a class line as a level-``level`` insertion tuple, or a ``ParseError``."""
    u = parse_tuple(piece)
    try:
        if len(u) != level:
            raise ValueError
        _check_member(u, p, 1)
    except ValueError:
        raise ParseError(f"{piece} is not a level-{level} insertion tuple") from None
    return u


@lru_cache(maxsize=None)
def _member_re(level: int) -> re.Pattern:
    """A level-``level`` tuple of at most 18 ASCII digits per entry.

    Matched against one piece at a time: a pattern that repeats a group
    over a whole line keeps backtracking state for every repetition.
    """
    entry = "[0-9]{1,18}"
    return re.compile(rf"\((?:{entry},){{{level - 1}}}{entry}\)" if level else r"\(\)")


def _entries(text: str) -> np.ndarray:
    """The decimal numbers of ``text`` in order; each has at most 18 ASCII digits.

    Read ``_CHUNK_CELLS`` characters at a time, each window cut where no
    number runs across it; a number's value is built digit by digit.
    """
    chars = np.frombuffer(text.encode(), np.uint8)
    out = [np.zeros(0, np.int64)]
    lo = 0
    while lo < len(chars):
        hi = lo + _CHUNK_CELLS
        while hi < len(chars) and ord("0") <= chars[hi - 1] <= ord("9"):
            hi += 1
        window = chars[lo:hi]
        digit = (window >= ord("0")) & (window <= ord("9"))
        starts, ends = np.flatnonzero(np.diff(digit, prepend=False, append=False)).reshape(-1, 2).T
        widths = ends - starts
        values = np.zeros(len(starts), np.int64)
        for place in range(int(widths.max(initial=0))):
            more = widths > place
            values[more] = values[more] * 10 + (window[starts[more] + place] - ord("0"))
        out.append(values)
        lo = hi
    return np.concatenate(out)


def format_spectrum_prefix(sigma: SpectrumPrefix) -> str:
    """Render a prefix as blank-line separated partition blocks."""
    return "\n\n".join(format_partition(pi) for pi in sigma.partitions)


def parse_spectrum_prefix(text: str, *, max_count: int | None = None) -> SpectrumPrefix:
    """Inverse of :func:`format_spectrum_prefix`; each level is capped before it is built."""
    blocks = [b for b in re.split(r"\n\s*\n", text.strip()) if b.strip()]
    if not blocks:
        raise ParseError("no partition blocks found")
    return SpectrumPrefix([parse_partition(b, max_count=max_count) for b in blocks])

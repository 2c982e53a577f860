"""Finite p-ary groupoids: operation tables, term functions, and spectra.

Term functions are tabulated densely with numpy, a node's table being its
children's tables outer-indexed into the operation table.  Fine levels are
classified by keys, the distinct tuples of child classes.  A fine spectrum is
closed, so the ``beta_j`` images of one lower class force their keys into one
class: those keys are joined first, and each union is classified by its least
key.  A key's moment, computed from its children's moments alone, is equal for
equal tables, so a union whose moment no other union of its level shares
starts a new class with no table built; tables are gathered only to confirm
merges.
"""

from __future__ import annotations

import itertools
import random
import threading
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import (CapExceededError, SchemaError, check_int, check_nonnegative, require_cap,
                     require_level_cap)
from .spectra import (Partition, SpectrumPrefix, _class_ids, _components, _depths, _group_rows,
                      _images, _level_rows, verify_closed)
from .terms import (
    _CHUNK_CELLS,
    Bracketing,
    _children,
    _fold,
    _level,
    _level_size,
    _row_chunks,
    _starts,
    _texts,
    _unrank,
    catalan,
)

__all__ = [
    "DEFAULT_MAX_CELLS", "GALLERY_ENTRIES", "Groupoid", "RingCheckReport", "TermFunction",
    "TruncatedRing", "assoc_spectrum", "direct_product", "dump_groupoid", "eval_term",
    "fine_level", "fine_spectrum", "gallery", "is_associative", "load_groupoid",
    "quotient_from_spectrum", "ring_closed_form_check", "term_function",
]

DEFAULT_MAX_CELLS = 2 * 10**8
_MAX_ARITY = 63  # numpy takes at most 63 index arrays; tabulating level 1 needs p of them


class Groupoid:
    """A finite carrier with one p-ary operation stored as a flat table.

    The flat index of ``(a_1, ..., a_p)`` is ``a_1*size**(p-1) + ... + a_p``.
    The operation is kept once, as a read-only numpy array; a writable array
    is copied, a read-only one of the carrier's dtype is kept as given.
    Names are cosmetic and do not take part in equality.
    """

    __slots__ = ("arity", "size", "names", "_array")

    def __init__(self, arity: int, size: int, table, names=None):
        check_int(arity, "arity", 2)
        if arity > _MAX_ARITY:
            raise ValueError(f"arity {arity} is above {_MAX_ARITY}, the most that can be tabulated")
        check_int(size, "carrier size", 1)
        checked = isinstance(table, np.ndarray) and table.ndim == 1 and table.dtype.kind in "iu"
        table = table if checked else tuple(table)  # np.asarray([True, 1]) is an int64 array
        # size**arity > len(table) once 2**arity does; never form a giant power
        if (size > 1 and arity > len(table).bit_length()) or len(table) != size ** arity:
            raise ValueError(f"table has {len(table)} entries, expected {size}^{arity}")
        for e in (table.min(), table.max()) if checked else table:
            if not isinstance(e, (int, np.integer)) or isinstance(e, bool):
                raise ValueError(f"table entries must be integers, got {e!r}")
            if not 0 <= e < size:
                raise ValueError(f"table entry {e} outside the carrier 0..{size - 1}")
        if names is not None:
            names = tuple(str(nm) for nm in names)
            if len(names) != size:
                raise ValueError(f"{len(names)} names for {size} elements")
        self.arity = arity
        self.size = size
        self.names = names
        array = np.asarray(table, np.min_scalar_type(size - 1))
        if array is table and table.flags.writeable:  # never share an array the caller can write
            array = array.copy()
        self._array = array.reshape((size,) * arity)
        self._array.setflags(write=False)

    @property
    def table(self) -> tuple[int, ...]:
        """The flat operation table as a tuple of ints, built from the array on each call."""
        return tuple(self._array.ravel().tolist())

    def apply(self, *args: int) -> int:
        """Operation value at ``args``."""
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        return self._array.item(_flat_index(args, self.size))

    def name_of(self, element: int) -> str:
        return self.names[element] if self.names else str(element)

    def __eq__(self, other):
        if not isinstance(other, Groupoid):
            return NotImplemented
        return self is other or np.array_equal(self._array, other._array)  # shape (size,)*arity

    def __repr__(self):
        return f"Groupoid(p={self.arity}, size={self.size})"


def _flat_index(args, size: int) -> int:
    """Table index of ``args``, the first argument the most significant base-``size`` digit."""
    idx = 0
    for a in args:
        if not 0 <= a < size:
            raise ValueError(f"element {a!r} outside the carrier 0..{size - 1}")
        idx = idx * size + a
    return idx


_DOC_KEYS = {"p", "size", "table", "names"}


def load_groupoid(doc) -> Groupoid:
    """Validate a parsed groupoid document ``{"p", "size", "table", "names"?}``."""
    if not isinstance(doc, Mapping):
        raise SchemaError("groupoid document must be a JSON object")
    unknown = set(doc) - _DOC_KEYS
    if unknown:
        raise SchemaError(f"unknown keys in groupoid document: {sorted(unknown)}")
    for key in ("p", "size", "table"):
        if key not in doc:
            raise SchemaError(f"groupoid document misses required key {key!r}")
    p, size, table, names = doc["p"], doc["size"], doc["table"], doc.get("names")
    check_int(p, "'p'", 2, SchemaError)
    check_int(size, "'size'", 1, SchemaError)
    if not isinstance(table, (list, tuple)):  # the constructor checks the entries
        raise SchemaError("'table' must be an array of integers")
    if names is not None and (not isinstance(names, (list, tuple))
                              or not all(isinstance(nm, str) for nm in names)):
        raise SchemaError("'names' must list one string per element")
    try:
        return Groupoid(p, size, table, names)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def dump_groupoid(g: Groupoid) -> dict:
    """Document form of ``g``; inverse of :func:`load_groupoid`."""
    doc = {"p": g.arity, "size": g.size, "table": g._array.ravel().tolist()}
    if g.names:
        doc["names"] = list(g.names)
    return doc


def eval_term(g: Groupoid, t: Bracketing, args) -> int:
    """Evaluate ``t`` with its variables bound to ``args``, left to right."""
    if t.arity != g.arity:
        raise ValueError(f"bracketing arity {t.arity} does not match groupoid arity {g.arity}")
    args = tuple(args)
    if len(args) != t.length:
        raise ValueError(f"expected {t.length} arguments, got {len(args)}")

    bad = [a for a in args if not 0 <= a < g.size]
    if bad:
        raise ValueError(f"element {bad[0]!r} outside the carrier 0..{g.size - 1}")
    return _fold(t._word, t.arity, args.__getitem__, g.apply)


class TermFunction:
    """Dense value table of a bracketing interpreted in a groupoid.

    Flat indexing follows the groupoid convention: the first variable is the
    most significant base-``size`` digit.  Two term functions are equal
    exactly when their tables are identical.
    """

    __slots__ = ("level", "arity", "size", "values")

    def __init__(self, level: int, arity: int, size: int, values):
        values = np.asarray(values)
        values.setflags(write=False)
        self.level = level
        self.arity = arity
        self.size = size
        self.values = values

    def __call__(self, *args: int) -> int:
        if len(args) != (self.arity - 1) * self.level + 1:
            raise ValueError(f"expected {(self.arity - 1) * self.level + 1} arguments")
        return int(self.values[_flat_index(args, self.size)])

    def __eq__(self, other):
        if not isinstance(other, TermFunction):
            return NotImplemented
        return ((self.level, self.arity, self.size) == (other.level, other.arity, other.size)
                and np.array_equal(self.values, other.values))

    def __repr__(self):
        return f"TermFunction(level={self.level}, p={self.arity}, size={self.size})"


def term_function(g: Groupoid, t: Bracketing, *, max_cells: int | None = None) -> TermFunction:
    """Tabulate the function induced by ``t`` over all argument tuples."""
    if t.arity != g.arity:
        raise ValueError(f"bracketing arity {t.arity} does not match groupoid arity {g.arity}")
    require_cap(g.size ** t.length, max_cells, DEFAULT_MAX_CELLS, "term table needs {} cells")
    identity = np.arange(g.size, dtype=g._array.dtype)
    values = _fold(t._word, t.arity, lambda i: identity,
                   lambda *kids: g._array[np.ix_(*kids)].ravel())
    return TermFunction(t.occ, g.arity, g.size, values)


def _require_level(g: Groupoid, n: int, max_cells: int | None, max_count: int | None) -> None:
    """Refuse level ``n`` of ``g`` when its cells or its bracketings exceed their caps."""
    require_level_cap(n, lambda: g.size ** ((g.arity - 1) * n + 1) * catalan(n, g.arity),
                      max_cells, DEFAULT_MAX_CELLS, f"level {n} needs {{}} table cells", level=n)
    _level_size(n, g.arity, max_count)


def _admitted(g: Groupoid, n: int, max_cells: int | None, max_count: int | None,
              stop: int | None = None) -> tuple[int, CapExceededError | None]:
    """The highest level from ``n`` up to ``stop`` (no bound if ``None``) that the caps admit.

    Level ``n`` itself is taken as admitted; both needs grow with the level.
    Returns that level and the refusal of the level above it, or ``None``
    when ``stop`` is admitted.
    """
    while stop is None or n < stop:
        try:
            _require_level(g, n + 1, max_cells, max_count)
        except CapExceededError as exc:
            return n, exc
        n += 1
    return n, None


def fine_spectrum(g: Groupoid, max_n: int, *, max_cells: int | None = None,
                  max_count: int | None = None):
    """Yield the fine partitions of levels 0..max_n, classifying each level once.

    The highest level that the caps admit is found first (both needs grow
    with ``n``) and walked to; then the refusal of the level above it, a
    :class:`CapExceededError`, is raised.
    """
    top, refusal = _admitted(g, -1, max_cells, max_count, max_n)
    for n, (labels, _) in enumerate(_walk(g, top)):
        yield Partition._from_ids(n, g.arity, labels)
    if refusal:
        raise refusal


# fine_level's previous call: its groupoid, the walk's horizon, the walk (None once it
# has yielded its horizon) and the class ids of the levels it has yielded
_open_walk: tuple | None = None
_open_lock = threading.Lock()


def fine_level(g: Groupoid, n: int, *, max_cells: int | None = None,
               max_count: int | None = None) -> Partition:
    """Partition level ``n`` by equality of induced term functions.

    The first call on a groupoid walks to ``n`` and no further.  A call on the
    groupoid of the previous call answers a level that the walk has passed
    from its class ids, resumes the open walk when ``n`` is at most its
    horizon, and otherwise walks again, with the horizon set to the highest
    level that this call's caps admit, up to ``n``.  So a sweep over the
    levels of one groupoid walks once.  The walk is dropped once it yields
    its horizon, when another groupoid is walked, and when it raises.
    """
    global _open_walk
    _require_level(g, n, max_cells, max_count)
    with _open_lock:  # each thread resumes a walk of its own
        state, _open_walk = _open_walk, None
    same = state is not None and state[0] == g
    _, top, walk, labels = state if same else (g, n, _walk(g, n), [])
    del state
    if n >= len(labels) and (walk is None or n > top):  # walk again, looking ahead
        top = _admitted(g, n, max_cells, max_count)[0]
        walk, labels = _walk(g, top), []
    while len(labels) <= n:
        ids = next(walk)[0]  # kept until another groupoid is walked: int32 halves them
        labels.append(ids.astype(np.int32) if len(ids) < 2**31 else ids)
    if len(labels) > top:  # the walk has yielded its horizon: free what it holds now
        walk = None
    with _open_lock:
        _open_walk = g, top, walk, labels
    return Partition._from_ids(n, g.arity, labels[n])


_P = 2**31 - 1  # moments are taken mod this prime


def _walk(g: Groupoid, top: int):
    """Yield each bracketing's class id and each class's moments, level by level up to ``top``.

    The moment at offset ``k`` of a function ``T`` is ``M_k[z] = sum of prod_v
    r[k + v, x_v] over the x with T(x) = z``, mod P, for fixed weights
    ``r[v, a]`` in ``[1, P)`` (level 0's moments); a level-n class takes the
    offsets ``0..(p-1)*(top-n)`` from its first key.  A level's keys are one
    gather of the lower levels' class ids at its child index (``_children``).
    The keys that closure forces together are joined first
    (:func:`_forced_unions`), and each union is classified by its least key
    alone.  The unions' representatives are grouped by one folded column,
    ``sum_z (f[z] * M_0[z] mod P)``, over a weight row ``f`` that no moment
    multiplies by.  Equal tables have equal folds; representatives that share a
    fold are compared by tables (a collision costs a gather, never a wrong
    class), gathered from class tables built when first needed and kept.  A level
    yields ``(N,)`` class ids counted up by first appearance and ``(classes,
    offsets, size)`` moments.
    """
    if top < 0:
        return
    p, op = g.arity, g._array
    flat, fold = _weights(p, g.size, top)
    order = np.argsort(op, axis=None, kind="stable")  # the table's cells by value
    by_value = order, *np.unique(op.ravel()[order], return_index=True)
    yield np.zeros(1, np.intp), flat[None]  # flat: every kept class's moments, a row an offset
    row, length = np.zeros(1, np.intp), np.ones(1, np.intp)  # per class: its row 0, its width
    first_keys: list = [()]  # per class: the child classes of its first key
    tables = {(): np.arange(g.size, dtype=op.dtype)}  # per first key, once built

    def table(c: int) -> np.ndarray:
        if first_keys[c] not in tables:
            tables[first_keys[c]] = _gather(op, [table(k) for k in first_keys[c]])
        return tables[first_keys[c]]

    class_ids = np.zeros(1, np.intp)  # of each bracketing below, the levels end to end
    # the level below's key of each bracketing and class of each key
    below = np.zeros(1, np.intp), np.zeros(1, np.intp)
    for n in range(1, top + 1):
        keys, which = _group_rows(class_ids[_children(n, p)])
        label = _forced_unions(n, p, *below, which, len(keys))
        reps = np.flatnonzero(label == np.arange(len(keys)))  # each union's least key
        offsets = (p - 1) * (top - n) + 1
        moments = _moments(op, flat, row[keys[reps]], length[keys[reps]], offsets, by_value)
        group = _group_rows((moments[:, 0] * fold % _P).sum(axis=1, keepdims=True))[1]
        shared = np.flatnonzero(np.bincount(group)[group] > 1)
        shared = shared[np.argsort(group[shared], kind="stable")]  # by moment, then by key
        sub = np.zeros(len(reps), np.intp)  # which distinct table of its moment a union has
        for _, run in itertools.groupby(shared.tolist(), group.__getitem__):
            distinct = []
            for k in run:
                key = tuple(keys[reps[k]].tolist())
                values = _gather(op, [table(c) for c in key])
                sub[k] = next((i for i, rep in enumerate(distinct)
                               if np.array_equal(values, rep)), len(distinct))
                if sub[k] == len(distinct):
                    distinct.append(values)
                    if n < top:  # the first key of a class: keep its table
                        tables[key] = values
        # group counts up by first appearance, so it is the (fold, table) class when no
        # fold holds two tables; regrouping the pairs took 7% of the fine workload
        rep_class = _group_rows(np.stack([group, sub], axis=1))[1] if sub.any() else group
        key_class = rep_class[np.searchsorted(reps, label)]
        firsts = np.unique(rep_class, return_index=True)[1]
        yield key_class[which], moments[firsts]
        if n < top:
            below = which, key_class
            class_ids = np.concatenate([class_ids, len(row) + key_class[which]])
            first_keys += map(tuple, keys[reps[firsts]].tolist())
            row = np.concatenate([row, len(flat) + offsets * np.arange(len(firsts))])
            length = np.concatenate([length, np.full(len(firsts), (p - 1) * n + 1)])
            flat = np.concatenate([flat, moments[firsts].reshape(-1, g.size)])


def _weights(p: int, size: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """The moments' weights ``r[v, a]`` in ``[1, P)``, a row per offset v = 0..(p-1)*top, and the
    fold's, one more row of the same bytes (``random``: numpy.random would load 6 MiB)."""
    weights = random.Random(0).randbytes(8 * ((p - 1) * top + 2) * size)
    rows = (np.frombuffer(weights, np.uint64) % (_P - 1) + 1).astype(np.int64).reshape(-1, size)
    return rows[:-1], rows[-1]


def _forced_unions(n: int, p: int, below_which: np.ndarray, below_class: np.ndarray,
                   which: np.ndarray, size: int) -> np.ndarray:
    """The least key of each level-n key's union, joining the keys that closure forces together.

    A fine spectrum is closed: equal level-(n-1) functions have equal
    ``beta_j`` images.  The key of an image depends only on the key of its
    argument, so each level-(n-1) key of a class with several keys is
    represented by its first bracketing, whose ``beta_j`` images are ranked
    in level n (``spectra._images``).  Each image's key is joined to the
    image's key of its class's first key, operator by operator.  ``gamma_i``
    images of one class share one key and add nothing.
    """
    several = np.flatnonzero(np.bincount(below_class)[below_class] > 1)
    if not len(several):
        return np.arange(size)
    ranks = np.unique(below_which, return_index=True)[1][several]
    images = which[_images(_unrank(ranks, n - 1, p), n - 1, p)[:, p:]]
    # each class's first key, which comes first in `several`
    first, inverse = np.unique(below_class[several], return_index=True, return_inverse=True)[1:]
    anchor = first[inverse.reshape(-1)]
    return _components(size, images[anchor].ravel(), images.ravel())


def _moments(op: np.ndarray, flat: np.ndarray, rows: np.ndarray, lengths: np.ndarray,
             offsets: int, by_value: tuple) -> np.ndarray:
    """The moments of keys at the offsets ``0..offsets-1``, a ``(keys, offsets, size)`` array.

    ``rows`` and ``lengths`` give each child's offset-0 row in ``flat`` and its
    width; child i is read at the key's offset plus the widths before it.  The
    children multiply in one at a time, mod P, and the ``size**p`` products
    are summed by the operation's value: ``by_value`` holds the flat cells
    sorted by value, the values hit and where each starts.
    """
    order, hit, edges = by_value
    at = (rows + np.cumsum(lengths, axis=1) - lengths)[:, :, None] + np.arange(offsets)
    out = np.zeros((len(rows), offsets, op.shape[0]), np.int64)
    step = max(1, _CHUNK_CELLS // (offsets * op.size))
    for lo in range(0, len(rows), step):
        chunk = at[lo:lo + step]
        prod = flat[chunk[:, 0]]
        for i in range(1, op.ndim):
            prod = (prod[..., None] * flat[chunk[:, i]][..., None, :] % _P).reshape(
                *prod.shape[:2], -1)
        out[lo:lo + step, :, hit] = np.add.reduceat(prod[..., order], edges, axis=-1) % _P
    return out


def _gather(op: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
    """``op[np.ix_(*tables)].ravel()`` as one ``take`` per axis, the last axis first.

    Each table has at least ``size`` entries, so no intermediate is larger
    than the result, and the final first-axis step copies contiguous rows.
    """
    out = op
    for axis in range(len(tables) - 1, -1, -1):
        out = out.take(tables[axis], axis=axis)
    return out.ravel()


def assoc_spectrum(g: Groupoid, max_n: int, *, max_cells: int | None = None,
                   max_count: int | None = None, partial: bool = False) -> list[int]:
    """Class counts of :func:`fine_spectrum` for the levels 0..max_n.

    A cap hit raises with the completed counts attached, or returns them
    directly when ``partial`` is set.
    """
    counts: list[int] = []
    try:
        for pi in fine_spectrum(g, max_n, max_cells=max_cells, max_count=max_count):
            counts.append(pi.num_classes)
    except CapExceededError as exc:
        if partial:
            return counts
        exc.partial = counts
        raise
    return counts


def is_associative(g: Groupoid) -> bool:
    """Whether all level-2 bracketings induce one and the same term function.

    Subject to the default cell cap of :func:`fine_level`.
    """
    return fine_level(g, 2).num_classes == 1


def direct_product(g: Groupoid, h: Groupoid, *, max_cells: int | None = None) -> Groupoid:
    """Componentwise product; the pair ``(a, b)`` is encoded as ``a*|h| + b``."""
    if g.arity != h.arity:
        raise ValueError(f"arity mismatch: {g.arity} vs {h.arity}")
    p = g.arity
    size = g.size * h.size
    require_cap(size ** p, max_cells, DEFAULT_MAX_CELLS, "product table needs {} cells")
    first, second = np.divmod(np.arange(size), h.size)
    table = _gather(  # both parts in the carrier dtype, which holds a*|h| + b; kept as it is
        (g._array * np.intp(h.size)).astype(np.min_scalar_type(size - 1)), [first] * p)
    table += _gather(h._array, [second] * p)
    table.setflags(write=False)
    names = [f"({g.name_of(a)},{h.name_of(b)})" for a in range(g.size) for b in range(h.size)]
    return Groupoid(p, size, table, names if g.names or h.names else None)


def quotient_from_spectrum(sigma: SpectrumPrefix, cut: int) -> Groupoid:
    """Finite groupoid on the classes below ``cut`` plus one absorbing element.

    Requires a closed prefix that is fully merged at every level from
    ``cut`` to its horizon.  Carrier elements are the classes ordered by
    (level, class id), followed by the absorbing element ``*``; products
    whose occurrence number reaches the cut collapse to ``*``.
    """
    if cut < 2:
        raise ValueError(f"cut level must be at least 2, got {cut}")
    if sigma.horizon < cut:
        raise ValueError(f"prefix horizon {sigma.horizon} is below the cut {cut}")
    p = sigma.arity
    for m in range(cut, sigma.horizon + 1):
        if sigma.partitions[m].num_classes != 1:
            raise ValueError(f"level {m} must be fully merged from the cut on")
    size = sum(sigma.partitions[m].num_classes for m in range(cut)) + 1  # the classes, then *
    require_cap(size ** p, None, DEFAULT_MAX_CELLS, "quotient table needs {} cells")
    report = verify_closed(sigma)
    if not report.closed:
        raise ValueError(f"prefix is not closed (violation at level {report.level})")
    levels, names = [], []  # per level: each bracketing's element
    for m in range(cut):
        ids = _class_ids(sigma.partitions[m])
        levels.append(len(names) + ids)
        names += [f"[{w}]" for w in _texts(_level(m, p)[np.unique(ids, return_index=True)[1]])]
    element = np.concatenate(levels)  # the levels end to end, as the child index reads them
    # closure makes every bracketing of a key write one element; products reaching the cut stay *
    table = np.full(size ** p, size - 1, np.min_scalar_type(size - 1))
    for m in range(1, cut):
        for lo, kids in _row_chunks(_children(m, p)):
            table[np.ravel_multi_index(element[kids].T, (size,) * p)] = levels[m][lo:lo + len(kids)]
    table.setflags(write=False)  # the groupoid keeps it as it is
    return Groupoid(p, size, table, names + ["*"])


# ---------------------------------------------------------------------------
# the gallery

def _egg4() -> Groupoid:
    rows = (
        (0, 0, 0, 0),
        (0, 0, 0, 1),
        (0, 0, 1, 2),
        (0, 1, 2, 2),
    )
    return Groupoid(2, 4, [e for row in rows for e in row])


def _egg7() -> Groupoid:
    base = _egg4()
    # nonzero base elements are doubled: 2k-1 wears a hat, 2k a tilde;
    # numeric parts multiply in the base, a hat-hat pair yields a tilde,
    # every other pair a hat, and 0 stays absorbing
    def num(e: int) -> int:
        return (e + 1) // 2

    def wears_tilde(e: int) -> bool:
        return e > 0 and e % 2 == 0

    table = []
    for a in range(7):
        for b in range(7):
            m = base.apply(num(a), num(b))
            if m == 0:
                table.append(0)
            elif not wears_tilde(a) and not wears_tilde(b):
                table.append(2 * m)
            else:
                table.append(2 * m - 1)
    return Groupoid(2, 7, table, names=("0", "1^", "1~", "2^", "2~", "3^", "3~"))


def _polyk(k: int) -> Groupoid:
    check_int(k, "polyk degree k", 1)
    size = k + 2
    table = []
    for x in range(size):
        for y in range(size):
            if x == 0:
                table.append(0)
            elif y == 0:
                table.append(1)
            else:
                table.append(min(x + 1, k + 1))
    return Groupoid(2, size, table)


def _sheffer() -> Groupoid:
    # hat = 0, tilde = 1; hat*hat = tilde, every other pair gives hat
    return Groupoid(2, 2, (1, 0, 0, 0), names=("hat", "tilde"))


def _const_assoc(m: int) -> Groupoid:
    check_int(m, "const_assoc carrier size m", 1)
    return Groupoid(2, m, [min(x + y, m - 1) for x in range(m) for y in range(m)])


_LANES = 16  # Z6 coefficients per uint64 word, 4 bits each, the lowest degree in the lowest lane
_SHIFTS = np.arange(0, 64, 4, dtype=np.uint64)
_ONES, _TWOS, _FIVES, _EIGHTS = (np.uint64(0x1111111111111111 * k) for k in (1, 2, 5, 8))


def _pack(coeffs) -> np.ndarray:
    """Z6 coefficients along the last axis, lowest degree first, as ``ceil(len/16)`` words."""
    coeffs = np.asarray(coeffs)
    *shape, degrees = coeffs.shape
    words = -(-degrees // _LANES)
    lanes = np.zeros((*shape, words * _LANES), np.uint64)
    lanes[..., :degrees] = coeffs
    return np.bitwise_or.reduce(lanes.reshape(*shape, words, _LANES) << _SHIFTS, axis=-1)


def _unpack(words: np.ndarray, truncation: int) -> np.ndarray:
    """The ``int8`` coefficients below ``Y**truncation`` of packed words; inverse of :func:`_pack`."""
    lanes = (words[..., None] >> _SHIFTS) & np.uint64(15)
    return lanes.reshape(*words.shape[:-1], -1)[..., :truncation].astype(np.int8)


def _ring_op(x1: np.ndarray, x2: np.ndarray, truncation: int, out=None) -> np.ndarray:
    """``3Y*x1 + 2Y*x2`` on packed Z6 words (:func:`_pack`) along the last axis.

    Lane by lane, with no carry between lanes: ``3*x mod 6 = 3*(x & 1)``;
    ``2*x mod 6 = 2*x - 6*[x >= 3]``, the flag being bit 3 of ``x + 5``; and
    the sum ``s <= 7`` is reduced by ``s - 6*[s >= 6]``, the flag being bit 3
    of ``s + 2``.  Multiplying by Y shifts each word up one lane, the top
    lane carrying into the next word, and the last word is masked to the
    truncation.  The result is written to ``out`` (a new array when
    ``None``); the inputs are not written to.
    """
    out = np.bitwise_and(x1, _ONES, out=out)
    out *= np.uint64(3)
    out += x2
    out += x2  # at most 3 + 2*5 = 13 in a lane
    high = x2 + _FIVES
    high &= _EIGHTS
    high >>= np.uint64(3)
    high *= np.uint64(6)
    out -= high  # 3*x1 + 2*x2 mod 6 before the last reduction, at most 3 + 4 = 7
    np.add(out, _TWOS, out=high)
    high &= _EIGHTS
    high >>= np.uint64(3)
    high *= np.uint64(6)
    out -= high
    carry = out[..., :-1] >> np.uint64(60)
    out <<= np.uint64(4)
    out[..., 1:] |= carry
    if truncation % _LANES:
        out[..., -1] &= np.uint64((1 << 4 * (truncation % _LANES)) - 1)
    return out


class TruncatedRing:
    """The binary operation ``3Y*X1 + 2Y*X2`` on Z6 polynomials truncated below ``Y**truncation``.

    Evaluation-only: the carrier has ``6**truncation`` elements and is never
    tabulated.  Elements are coefficient tuples, lowest degree first.
    """

    arity = 2

    def __init__(self, truncation: int = 16):
        check_int(truncation, "truncation degree", 1)
        self.truncation = truncation

    def element(self, coeffs) -> tuple[int, ...]:
        """Normalize ``coeffs``: reduce mod 6, truncate, pad with zeros."""
        coeffs = tuple(int(c) % 6 for c in coeffs)[:self.truncation]
        return coeffs + (0,) * (self.truncation - len(coeffs))

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.truncation

    def monomial(self, degree: int, coeff: int = 1) -> tuple[int, ...]:
        if not 0 <= degree < self.truncation:
            raise ValueError(f"degree {degree} outside 0..{self.truncation - 1}")
        out = [0] * self.truncation
        out[degree] = coeff % 6
        return tuple(out)

    def apply(self, x1, x2) -> tuple[int, ...]:
        return self._folded("wxx", [self.element(x1), self.element(x2)])

    def eval_term(self, t: Bracketing, args) -> tuple[int, ...]:
        """Evaluate a binary bracketing over ring elements, left to right."""
        if t.arity != 2:
            raise ValueError("the truncated ring is binary")
        args = [self.element(a) for a in args]
        if len(args) != t.length:
            raise ValueError(f"expected {t.length} arguments, got {len(args)}")
        return self._folded(t._word, args)

    def _folded(self, word: str, elements: list) -> tuple[int, ...]:
        """The value of a binary prefix word over ``elements``, folded on Python ints.

        An element is one int with a byte per coefficient, lowest degree in
        the lowest byte; the operation is :func:`_ring_op`'s lane arithmetic
        on every byte at once, with no word boundary to carry over.  One
        element at a time, an int operation costs less than a numpy call.
        """
        t = self.truncation
        ones = int.from_bytes(b"\x01" * t, "little")
        twos, fives, eights, mask = 2 * ones, 5 * ones, 8 * ones, (1 << 8 * t) - 1

        def op(x1: int, x2: int) -> int:
            s = 3 * (x1 & ones) + 2 * x2 - 6 * (((x2 + fives) & eights) >> 3)
            s -= 6 * (((s + twos) & eights) >> 3)
            return (s << 8) & mask

        values = [int.from_bytes(bytes(e), "little") for e in elements]
        return tuple(_fold(word, 2, values.__getitem__, op).to_bytes(t, "little"))

    def __repr__(self):
        return f"TruncatedRing(truncation={self.truncation})"


# per entry: its builder, its one parameter (or None), its carrier size and its summary
_GALLERY = {
    "egg4": (_egg4, None, "4", "term-function maxima drop with each egg pair, floor 0"),
    "egg7": (_egg7, None, "7",
             "tagged blow-up whose fine spectrum merges exactly the 3-egg bracketings"),
    "polyk": (_polyk, "k", "k+2",
              "degree-k polynomial spectrum keyed by iterated left-factor lengths"),
    "truncated_ring": (TruncatedRing, "truncation", "evaluation-only",
                       "Z6 polynomials under 3Y*X1 + 2Y*X2 below Y^N"),
    "sheffer": (_sheffer, None, "2", "separates every bracketing"),
    "const_assoc": (_const_assoc, "m", "m", "associative control: x*y = min(x+y, m-1)"),
}

GALLERY_ENTRIES = tuple((name, size, summary) for name, (*_, size, summary) in _GALLERY.items())


def gallery(name: str, **params):
    """Build a gallery groupoid by name.

    ``truncated_ring`` returns the evaluation-only :class:`TruncatedRing`;
    every other entry returns a tabulated :class:`Groupoid`.
    """
    try:
        builder = _GALLERY[name][0]
    except KeyError:
        raise ValueError(
            f"unknown gallery entry {name!r}; known: {', '.join(sorted(_GALLERY))}") from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for {name!r}: {exc}") from None


# ---------------------------------------------------------------------------
# ring spot check

@dataclass(frozen=True)
class RingCheckReport:
    """Outcome of comparing ring evaluation of each bracketing against the depth closed form."""

    truncation: int
    level: int
    trials: int
    bracketings: int
    mismatches: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches


def ring_closed_form_check(truncation: int, level: int, trials: int = 50, *,
                           seed: int = 0, max_count: int | None = None,
                           max_cells: int | None = None) -> RingCheckReport:
    """Check every level bracketing against its depth closed form on random arguments.

    Term evaluation uses the ring operation only, on packed words (sixteen
    coefficients to a ``uint64``, :func:`_ring_op`); the closed form
    ``(3Y)^dl * X_first + (2Y)^dr * X_last`` is coefficient arithmetic on the
    tree depths, packed only to be compared, so the two routes are
    independent.  Needs ``level < truncation`` so distinct depths stay
    distinguishable below the truncation.  The arguments are drawn from
    ``random.Random(seed)``, uniform on Z6, so one seed gives one report.
    Before any argument is drawn or packed, the residues that the check keeps,
    the arguments and every lower bracketing at each of its leaf offsets, are
    counted against ``max_cells`` (``DEFAULT_MAX_CELLS`` when ``None``).
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    check_nonnegative(level, "level")
    if level >= truncation:
        raise ValueError(f"level {level} needs a truncation degree above it, got {truncation}")
    count = _level_size(level, 2, max_count)
    # level m < level keeps catalan(m) bracketings at level - m + 1 leaf offsets; m = 0 is args
    kept = sum(catalan(m, 2) * (level - m + 1) for m in range(max(level, 1)))
    require_cap(kept * trials * truncation, max_cells, DEFAULT_MAX_CELLS,
                f"ring check to level {level} needs {{}} cells")
    n_vars = level + 1
    # the closed form's products stay below 5*5 = 25, so int8 holds them
    args = np.array(random.Random(seed).choices(range(6), k=trials * n_vars * truncation),
                    np.int8).reshape(trials, n_vars, truncation)

    def shifted(block: np.ndarray, degree: int, coeff: int) -> np.ndarray:
        out = np.zeros_like(block)
        if degree < truncation:
            out[:, degree:] = (coeff * block[:, :truncation - degree]) % 6
        return out

    # the wanted value depends only on (dl, dr); the single variable is its argument
    depths, which = _group_rows(_level_rows(level, 2, _depths, max_count))
    want = _pack(np.stack([args[:, 0, :]] if level == 0 else [
        (shifted(args[:, 0, :], dl, pow(3, dl, 6))
         + shifted(args[:, n_vars - 1, :], dr, pow(2, dr, 6))) % 6 for dl, dr in depths.tolist()]))
    bad = []
    for ranks, got in _ring_level(_pack(args), level, truncation):
        bad += ranks[(got != want[which[ranks]]).any(axis=(1, 2))].tolist()
    mismatches = _texts(_level(level, 2)[sorted(bad)])
    return RingCheckReport(truncation, level, trials, count, tuple(mismatches))


def _ring_level(args: np.ndarray, level: int, truncation: int):
    """Yield the ring values of the binary bracketings of ``level``, block by block.

    ``args`` holds packed words (:func:`_pack`), of shape ``(trials, level +
    1, words)``.  Every bracketing of the lower levels is evaluated once, at
    all of its leaf offsets at the same time: level m keeps words of shape
    ``(count, trials, offsets, words)``.  A chunk of the child index is read
    in order of left child level, so the bracketings that share one are
    consecutive rows of the level's store, and each block of them is one
    :func:`_ring_op` over its children's slices, written straight into that
    store; a level keeps the row of each rank.  Blocks hold at most
    ``_CHUNK_CELLS`` coefficients.  Each top-level block yields its ranks and
    its words, of shape ``(len(ranks), trials, words)``, which are not stored.
    """
    if level == 0:
        yield np.zeros(1, np.intp), args[None, :, 0]
        return
    trials, words = args.shape[0], args.shape[2]
    below, row = [args[None]], [np.zeros(1, np.intp)]  # per level: its store, each rank's row
    for m in range(1, level + 1):
        offsets, starts = level - m + 1, _starts(m, 2)
        if m < level:
            below.append(np.empty((catalan(m, 2), trials, offsets, words), np.uint64))
            row.append(np.empty(catalan(m, 2), np.intp))
        step = max(1, _CHUNK_CELLS // (trials * offsets * _LANES * words))
        for lo, kids in _row_chunks(_children(m, 2)):  # a child's level and its rank there
            levels = np.searchsorted(starts, kids, "right") - 1
            ranks = kids - starts[levels]
            order = np.argsort(levels[:, 0], kind="stable")
            edges = np.searchsorted(levels[order, 0], range(m + 1)).tolist()  # per left level
            for left, right in enumerate(range(m - 1, -1, -1)):
                for at in range(edges[left], edges[left + 1], step):
                    rows = order[at:min(at + step, edges[left + 1])]
                    x1 = below[left][row[left][ranks[rows, 0]], :, :offsets]
                    x2 = below[right][row[right][ranks[rows, 1]], :, left + 1:left + 1 + offsets]
                    if m < level:
                        _ring_op(x1, x2, truncation, below[m][lo + at:lo + at + len(rows)])
                    else:
                        yield lo + rows, _ring_op(x1, x2, truncation)[:, :, 0]
            if m < level:
                row[m][lo + order] = np.arange(lo, lo + len(order))

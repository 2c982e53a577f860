"""Insertion tuples and exact counting of bracketings.

The insertion tuple of a bracketing records, for each operation symbol in
prefix order, one plus the number of variables occurring before it.  This is
a bijection between the level of occurrence number ``n`` and the weakly
increasing n-tuples with ``u_i <= (p - 1)*(i - 1) + 1``; it is computed from
and to prefix words, one at a time or as rows of a word array, and the
levels themselves are stored and ranked by :mod:`assocspectra.terms` alone.
A level's tuples are written as text a row chunk at a time
(:func:`_tuple_lines`: one ``uint8`` buffer of ``(u1,...,un)`` lines).
Relaxing the bound offset from 1 to ``k`` yields the family ``M(n, k, p)``,
listed here (:func:`enumerate_m`); its exact counts (:func:`count_m`,
:func:`catalan`) live in :mod:`assocspectra.terms`, whose ballot table holds
them, and are imported from there.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Iterator

import numpy as np

from .errors import ParseError, check_int, require_level_cap
from .terms import (_W, _X, DEFAULT_MAX_BRACKETINGS, Bracketing, _check_mkp_args, _intern,
                    count_m)

__all__ = ["beta_update", "enumerate_m", "format_tuple", "from_tuple", "parse_tuple", "to_tuple"]


def to_tuple(t: Bracketing) -> tuple[int, ...]:
    """Insertion tuple of ``t``; the empty tuple for the single variable.

    Read off the prefix word: entry ``i + 1`` exceeds entry ``i`` by the
    number of variables between the i-th and the next operation symbol.
    """
    runs = t._word.split("w")
    if len(runs) == 1:
        return ()
    return tuple(accumulate(map(len, runs[1:-1]), initial=1))


def _tuple_columns(words: np.ndarray, n: int) -> np.ndarray:
    """Insertion tuples of the rows of a level-n word array, one row each.

    Entry ``i`` is 1 plus the number of variables before the i-th operation
    symbol, which has ``i - 1`` operation symbols before it.
    """
    where = np.nonzero(words == _W)[1].reshape(len(words), n)
    return where - np.arange(n) + 1


def _tuple_lines(columns: np.ndarray) -> np.ndarray:
    """The lines ``(u1,...,un)\\n`` of the rows of an ``(N, n)`` array of positive ints.

    One ``uint8`` buffer, byte-identical to :func:`format_tuple` per row plus
    a newline: every entry takes its decimal digits and one separator (``,``
    or the closing ``)``), so a row's bytes start at the running sum of the
    widths before it, and level 0 gives ``()``.
    """
    rows, n = columns.shape
    digits = np.ones(columns.shape, np.int32)  # a chunk's buffer is far below 2**31 bytes
    top = int(columns.max(initial=0))
    for power in (10 ** e for e in range(1, len(str(top)))):
        digits += columns >= power
    # an entry starts after "(" and the entries before it in its row
    starts = np.cumsum(digits + 1, axis=1) - digits
    width = (starts[:, -1] + digits[:, -1] + 2) if n else np.full(rows, 3)
    first = np.cumsum(width) - width
    out = np.full(int(width.sum()), ord(","), np.uint8)
    out[first] = ord("(")
    out[first + width - 2] = ord(")")
    out[first + width - 1] = ord("\n")
    ends = (starts + digits - 1 + first[:, None]).ravel()  # each entry's last digit
    rest, digits = columns.ravel().copy(), digits.ravel()
    for place in range(len(str(top))):
        more = digits > place
        out[ends[more] - place] = rest[more] % 10 + ord("0")
        rest //= 10
    return out


def _tuple_words(tuples, n: int, p: int) -> np.ndarray:
    """Word array of level-n insertion tuples; inverse of :func:`_tuple_columns`."""
    words = np.full((len(tuples), p * n + 1), _X, np.uint8)
    where = np.array(tuples, np.intp).reshape(len(tuples), n)
    where += np.arange(n) - 1
    np.put_along_axis(words, where, _W, axis=1)
    return words


def _check_member(u: tuple[int, ...], p: int, k: int) -> None:
    for i, v in enumerate(u, start=1):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"tuple entries must be integers, got {v!r}")
        if i > 1 and v < u[i - 2]:
            raise ValueError(f"tuple is not weakly increasing at entry {i}: {u}")
        bound = (p - 1) * (i - 1) + k
        if not 1 <= v <= bound:
            raise ValueError(f"entry {i} of {u} is outside 1..{bound}")


def from_tuple(u, p: int) -> Bracketing:
    """Rebuild the bracketing with insertion tuple ``u``; inverse of :func:`to_tuple`.

    Entry ``u_i`` places the i-th operation symbol right before the
    ``u_i``-th variable of the prefix word, which determines the word and
    hence the tree.
    """
    u = tuple(u)
    check_int(p, "arity", 2)
    _check_member(u, p, 1)
    # the k-th operation symbol follows k - 1 symbols and u_k - 1 variables
    word = ["x"] * (p * len(u) + 1)
    for shift, v in enumerate(u, -1):
        word[v + shift] = "w"
    return _intern(p, "".join(word))


def beta_update(u, i: int, p: int) -> tuple[int, ...]:
    """Insertion tuple after growing a fresh operation symbol at the i-th variable.

    Computed by index arithmetic alone: entries up to the pivot (the last
    entry ``<= i``) are kept, ``i`` is inserted after them, and the remaining
    entries shift by ``p - 1`` new variables.
    """
    u = tuple(u)
    check_int(p, "arity", 2)
    _check_member(u, p, 1)
    n = len(u)
    if not 1 <= i <= (p - 1) * n + 1:
        raise ValueError(f"variable position {i} out of range 1..{(p - 1) * n + 1}")
    pivot = bisect_right(u, i)
    return u[:pivot] + (i,) + tuple(e + p - 1 for e in u[pivot:])


def _iter_m(n: int, k: int, p: int) -> Iterator[tuple[int, ...]]:
    entries: list[int] = []

    def rec(i: int, low: int) -> Iterator[tuple[int, ...]]:
        if i > n:
            yield tuple(entries)
            return
        for v in range(low, (p - 1) * (i - 1) + k + 1):
            entries.append(v)
            yield from rec(i + 1, v)
            entries.pop()

    yield from rec(1, 1)


def enumerate_m(n: int, k: int, p: int, *, max_count: int | None = None) -> list[tuple[int, ...]]:
    """All weakly increasing n-tuples with ``u_i <= (p-1)*(i-1) + k``, lexicographically."""
    _check_mkp_args(n, k, p)
    require_level_cap(n, lambda: count_m(n, k, p), max_count, DEFAULT_MAX_BRACKETINGS,
                      f"M({n},{k},{p}) holds {{}} tuples")
    return list(_iter_m(n, k, p))


def format_tuple(u) -> str:
    """Serialize an insertion tuple, e.g. ``(1,2,3)``; the empty tuple is ``()``."""
    return "(" + ",".join(str(e) for e in u) + ")"


def parse_tuple(text: str) -> tuple[int, ...]:
    """Inverse of :func:`format_tuple`."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ParseError(f"tuple must be parenthesized, got {text!r}")
    body = s[1:-1].strip()
    if not body:
        return ()
    try:
        return tuple(int(part) for part in body.split(","))
    except ValueError:
        raise ParseError(f"tuple entries must be integers, got {text!r}") from None

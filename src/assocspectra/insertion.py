"""Insertion tuples and exact counting of bracketings.

The insertion tuple of a bracketing records, for each operation symbol in
prefix order, one plus the number of variables occurring before it.  This is
a bijection between the level of occurrence number ``n`` and the weakly
increasing n-tuples with ``u_i <= (p - 1)*(i - 1) + 1``; it is computed from
and to prefix words, and the levels themselves are stored and ranked by
:mod:`assocspectra.terms` alone.  Relaxing the bound offset from 1 to ``k``
yields the counted family ``M(n, k, p)``; all counts are exact unbounded
integers.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from math import comb
from typing import Iterator

from .errors import ParseError, check_int, require_level_cap
from .terms import DEFAULT_MAX_BRACKETINGS, Bracketing, _parse_prefix, _word_of


def to_tuple(t: Bracketing) -> tuple[int, ...]:
    """Insertion tuple of ``t``; the empty tuple for the single variable.

    Read off the prefix word: entry ``i + 1`` exceeds entry ``i`` by the
    number of variables between the i-th and the next operation symbol.
    """
    runs = _word_of(t).split("w")
    if len(runs) == 1:
        return ()
    return tuple(accumulate(map(len, runs[1:-1]), initial=1))


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
    _check_member(u, p, 1)
    # the runs of variables between operation symbols, as to_tuple splits them
    bounds = (1, *u, (p - 1) * len(u) + 2)
    return _parse_prefix("w".join("x" * (b - a) for a, b in zip(bounds, bounds[1:])), p)


def beta_update(u, i: int, p: int) -> tuple[int, ...]:
    """Insertion tuple after growing a fresh operation symbol at the i-th variable.

    Computed by index arithmetic alone: entries up to the pivot (the last
    entry ``<= i``) are kept, ``i`` is inserted after them, and the remaining
    entries shift by ``p - 1`` new variables.
    """
    u = tuple(u)
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


def _check_mkp_args(n: int, k: int, p: int) -> None:
    if n < 0:
        raise ValueError(f"tuple length must be nonnegative, got {n}")
    if k < 1:
        raise ValueError(f"bound offset must be positive, got {k}")
    check_int(p, "arity", 2)


def enumerate_m(n: int, k: int, p: int, *, max_count: int | None = None) -> list[tuple[int, ...]]:
    """All weakly increasing n-tuples with ``u_i <= (p-1)*(i-1) + k``, lexicographically."""
    _check_mkp_args(n, k, p)
    require_level_cap(n, lambda: count_m(n, k, p), max_count, DEFAULT_MAX_BRACKETINGS,
                      f"M({n},{k},{p}) holds {{}} tuples")
    return list(_iter_m(n, k, p))


def count_m(n: int, k: int, p: int) -> int:
    """Exact size of ``M(n, k, p)``: ``k/((p-1)n+k) * C(pn+k-1, n)``.

    Evaluated as an integer binomial followed by an exact division; the
    division is asserted to leave no remainder.
    """
    _check_mkp_args(n, k, p)
    numerator = k * comb(p * n + k - 1, n)
    q, r = divmod(numerator, (p - 1) * n + k)
    assert r == 0, f"count of M({n},{k},{p}) did not divide exactly"
    return q


def catalan(n: int, p: int) -> int:
    """Number of bracketings with occurrence number ``n``: ``C(pn, n)/((p-1)n + 1)``."""
    return count_m(n, 1, p)


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

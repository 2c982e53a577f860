"""Reference answers that share no code with the package under test.

Everything here is written from the definitions in the paper: level sizes
from the generalized Catalan formula, closed forms for the named spectra,
levels as lexicographic insertion tuples, and brute-force term evaluation
on prefix words.
"""

from __future__ import annotations

import itertools
from math import comb

MIB = 1024 * 1024


def catalan(n: int, p: int) -> int:
    """Number of p-ary bracketings with n operation symbols."""
    q, r = divmod(comb(p * n, n), (p - 1) * n + 1)
    if r:
        raise ArithmeticError(f"catalan({n}, {p}) is not an integer")
    return q


def fine_cells(size: int, p: int, n: int) -> int:
    """Table cells a level needs, as the tabulation cap counts them."""
    return size ** ((p - 1) * n + 1) * catalan(n, p)


def delta_images(n: int, p: int) -> int:
    """Operator images ``delta`` computes from level n: p wraps, one growth per variable."""
    return catalan(n, p) * (p + (p - 1) * n + 1)


def polyk_classes(n: int, k: int) -> int:
    """Class count of level n of the degree-k polynomial spectrum."""
    if n == 0:
        return 1
    return sum(comb(n - 1, i) for i in range(k + 1))


def dldr_classes(n: int) -> int:
    """Distinct (left depth, right depth) pairs on binary level n."""
    return 1 if n < 2 else (n * n + n - 2) // 2


def tail_classes(n: int, k: int, p: int) -> int:
    """Distinct last-k insertion-tuple entries on level n (equality below k).

    Every weakly increasing tail within the entry bounds occurs, so the
    count is ``|M(k, b, p)|`` with ``b = (p-1)(n-k) + 1``.
    """
    if n < k:
        return catalan(n, p)
    b = (p - 1) * (n - k) + 1
    q, r = divmod(b * comb(p * k + b - 1, k), (p - 1) * k + b)
    if r:
        raise ArithmeticError("tail count is not an integer")
    return q


def census_count(p: int) -> int:
    """Closed prefixes full everywhere but a 2-class level 2."""
    return 2 ** (p - 1) - 1


def level_tuples(n: int, p: int) -> list[tuple[int, ...]]:
    """Insertion tuples of level n in lexicographic (canonical) order."""
    out: list[tuple[int, ...]] = []

    def grow(prefix: tuple[int, ...]) -> None:
        i = len(prefix)
        if i == n:
            out.append(prefix)
            return
        for v in range(prefix[-1] if prefix else 1, (p - 1) * i + 2):
            grow(prefix + (v,))

    grow(())
    return out


def word_of(u: tuple[int, ...], p: int) -> str:
    """Prefix word (``w`` operation, ``x`` variable) of an insertion tuple."""
    chars = []
    i = 0
    for xs in range((p - 1) * len(u) + 1):
        while i < len(u) and u[i] == xs + 1:
            chars.append("w")
            i += 1
        chars.append("x")
    return "".join(chars)


def first_appearance(labels) -> tuple[int, ...]:
    """Relabel classes 0, 1, ... in order of first appearance."""
    ids: dict = {}
    return tuple(ids.setdefault(lab, len(ids)) for lab in labels)


def tau_classes(n: int, min_eggs: int = 3) -> tuple[int, ...]:
    """Binary level n: one class for words with at least ``min_eggs`` ``wxx``, singletons else."""
    words = [word_of(u, 2) for u in level_tuples(n, 2)]
    merged = [w.count("wxx") >= min_eggs for w in words]
    if sum(merged) < 2:
        return tuple(range(len(words)))
    return first_appearance(-1 if m else r for r, m in enumerate(merged))


def _evaluate(word: str, table: tuple[int, ...], size: int, p: int, args) -> int:
    stack: list[list[int]] = [[]]
    pos = 0
    for ch in word:
        if ch == "w":
            stack.append([])
            continue
        value = args[pos]
        pos += 1
        while True:
            stack[-1].append(value)
            if len(stack) == 1 or len(stack[-1]) < p:
                break
            idx = 0
            for a in stack.pop():
                idx = idx * size + a
            value = table[idx]
    return stack[0][0]


def brute_fine_level(table, size: int, p: int, n: int) -> tuple[int, ...]:
    """Fine partition of level n by evaluating every word on every argument tuple."""
    table = tuple(table)
    arg_list = list(itertools.product(range(size), repeat=(p - 1) * n + 1))
    return first_appearance(
        tuple(_evaluate(word_of(u, p), table, size, p, args) for args in arg_list)
        for u in level_tuples(n, p))


def separating_pair(finer, coarser) -> tuple[int, int] | None:
    """First pair of ranks that ``finer`` merges and ``coarser`` separates."""
    seen: dict[int, tuple[int, int]] = {}
    for r, (cf, cc) in enumerate(zip(finer, coarser)):
        first = seen.setdefault(cf, (r, cc))
        if first[1] != cc:
            return first[0], r
    return None

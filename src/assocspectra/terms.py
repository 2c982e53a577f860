"""Bracketings: full p-ary trees over a single variable.

A bracketing is a term built from one p-ary operation symbol (written ``w``
in prefix notation) and one variable symbol (written ``x``).  Its occurrence
number counts operation symbols, its length counts variable symbols, and
``length == (p - 1) * occ + 1`` always holds.  A :class:`Bracketing` is its
arity and its prefix word, interned while it is alive; its children are cut
from the word when asked for, and ``_fold`` is the one word decoder.

Each level (all bracketings of one occurrence number) is enumerated in a
canonical order: lexicographic on prefix words with ``w`` before ``x``,
which is also lexicographic on insertion tuples.  Only ``_level`` stores a
level, as a read-only ``uint8`` array of prefix words, one row per rank;
the ballot table ``_completions`` ranks and unranks words.  The canonical
order of the lower trees (``_orders``) gives each level's children as flat
indices into the lower levels (``_children``), cached per level like ``_level``
(at p = 2 levels up to 13 hold about 8 MB), by which binary infix rows are
copied from the lower levels' rows (:func:`_infix_rows`).  Trees are built only on request.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, islice
from math import comb
from weakref import ref

import numpy as np

from .errors import ParseError, check_int, check_nonnegative, require_cap, require_level_cap

__all__ = [
    "DEFAULT_MAX_BRACKETINGS", "Bracketing", "LabeledBracketing", "catalan", "count_m",
    "egg_pairs", "enumerate_bracketings", "enumerate_leaves", "leaf", "left_associated",
    "left_lengths", "left_right_depth", "node", "parse_bracketing", "render_bracketing",
]

DEFAULT_MAX_BRACKETINGS = 10**6
_W, _X = ord("w"), ord("x")  # the symbols' bytes in a word array
# array cells that one row chunk of a word array holds
_CHUNK_CELLS = 1 << 16
# each level's child index by (level, arity), kept for the life of the process like _level's
_child_index: dict[tuple[int, int], np.ndarray] = {}


class Bracketing:
    """An immutable full p-ary tree, held as its arity and its prefix word.

    Instances are interned by ``(arity, word)`` (:func:`_intern`), so equal
    trees that are alive at the same time are normally the same object.
    """

    __slots__ = ("arity", "occ", "length", "is_leaf", "_word", "__weakref__")

    def __init__(self, arity: int, word: str):
        self.arity = arity
        self._word = word
        self.occ = word.count("w")
        self.length = len(word) - self.occ
        self.is_leaf = not self.occ

    @property
    def children(self) -> tuple["Bracketing", ...]:
        """The subtrees under the root, left to right, cut from the word on each access.

        An ``x`` ends a tree and a ``w`` opens ``p - 1`` more; after ``p - 1``
        children the rest of the word is the last one.
        """
        word, p = self._word, self.arity
        if word == "x":
            return ()
        cuts, need = [1], p  # the trees still to read after each symbol
        for end, ch in enumerate(islice(word, 1, None), 2):
            need += p - 1 if ch == "w" else -1
            if need == p - len(cuts):  # the child that began at cuts[-1] ends here
                cuts.append(end)
                if len(cuts) == p:
                    break
        cuts.append(len(word))
        return tuple(_intern(p, word[a:b]) for a, b in zip(cuts, cuts[1:]))

    def __eq__(self, other):
        if not isinstance(other, Bracketing):
            return NotImplemented
        return self is other or (self.arity == other.arity and self._word == other._word)

    def __hash__(self):
        return hash(self._word)

    def __repr__(self):
        return f"Bracketing(p={self.arity}, {self._word!r})"


class _TreeRef(ref):
    """A weak reference to an interned tree that knows its cache key."""

    __slots__ = ("key",)


def _forget(dead: _TreeRef) -> None:
    """A tree's death callback: drop its entry, unless a newer tree of its word holds the key."""
    if _node_cache.get(dead.key) is dead:
        del _node_cache[dead.key]


# weak references to the live trees by (arity, word); a tree leaves when nothing else holds it
_node_cache: dict[tuple[int, str], _TreeRef] = {}


def _intern(p: int, word: str) -> Bracketing:
    """The interned tree of arity ``p`` with prefix ``word``, unchecked: it must be a bracketing."""
    key = p, word
    alive = _node_cache.get(key)
    tree = alive and alive()
    if tree is None:
        tree = Bracketing(p, word)
        alive = _node_cache[key] = _TreeRef(tree, _forget)
        alive.key = key
    return tree


def leaf(p: int) -> Bracketing:
    """The single-variable bracketing of arity ``p``."""
    check_int(p, "arity", 2)
    return _intern(p, "x")


def node(*children: Bracketing) -> Bracketing:
    """Join ``p`` bracketings of arity ``p`` under one operation symbol.

    Each call joins its children's whole prefix words, so building a tree of
    depth d one ``node`` at a time costs time quadratic in d.
    :func:`parse_bracketing` and :func:`left_associated` build deep trees
    without that cost.
    """
    p = len(children)
    if p < 2:
        raise ValueError(f"a node needs at least two children, got {p}")
    for c in children:
        if not isinstance(c, Bracketing):
            raise TypeError(f"children must be bracketings, got {type(c).__name__}")
        if c.arity != p:
            raise ValueError(f"child of arity {c.arity} cannot sit under a {p}-ary node")
    return _intern(p, "w" + "".join(c._word for c in children))


def _fold(word: str, p: int, leaf, combine):
    """Evaluate a prefix word of arity ``p`` bottom-up: the one decoder of prefix words.

    ``leaf(i)`` gives the value of the i-th variable (from 0, left to right)
    and ``combine(v_1, ..., v_p)`` that of an operation symbol (any non-``x``)
    over its operands'.  The word is scanned right to left, so the stack top
    holds the leftmost pending value.  A word of no single bracketing raises.
    """
    stack = []
    i = word.count("x")
    for ch in reversed(word):
        if ch == "x":
            i -= 1
            stack.append(leaf(i))
        elif len(stack) < p:
            raise ParseError(f"an operation symbol has fewer than {p} operands: {word!r}")
        else:
            kids = stack[:-p - 1:-1]
            del stack[-p:]
            stack.append(combine(*kids))
    if len(stack) != 1:
        raise ParseError(f"expected one bracketing, found {len(stack)}: {word!r}")
    return stack[0]


def _check_mkp_args(n: int, k: int, p: int) -> None:
    check_nonnegative(n, "tuple length")
    if k < 1:
        raise ValueError(f"bound offset must be positive, got {k}")
    check_int(p, "arity", 2)


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


@lru_cache(maxsize=None)
def _completions(n: int, p: int) -> np.ndarray:
    """Ballot table for ranking the words of levels up to n+1 and unranking level n+1.

    Entry ``[r, m + 1]`` counts the words of length ``r`` with ``m``
    operation symbols that complete a forest still needing ``d = r - p*m``
    trees: ``|M(m, d, p)|`` (:func:`count_m`) when ``d >= 1`` (Knuth, TAOCP
    7.2.1.6), else 0.  Column 0 (``m = -1``) and the last two columns are 0.
    Rows reach the level-(n+1) length and columns leave room for the shifts
    of ``spectra._images``: a shift of ``s`` rows keeps the column, and the
    lift by one operation symbol moves ``p`` rows down and one column right.
    Entries are clipped at ``C_{n+1}``: a state that a word of level n or
    n+1 reaches has no more completions than that, so the clip only touches
    cells that no rank reads.  The dtype is int32 when the level-(n+1) ranks
    fit in it, int64 otherwise.
    """
    size = catalan(n + 1, p)
    rows = p * n + p + 1
    table = np.zeros((rows, n + 4), np.int32 if size < 2**31 else np.int64)
    table[1:, 1] = 1  # M(0, d, p) holds the empty tuple alone
    for m in range(1, n + 1):
        table[p * m + 1:, m + 1] = [min(count_m(m, r - p * m, p), size)
                                    for r in range(p * m + 1, rows)]
    return table


def _word_index(words: np.ndarray, n: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The "is x" array of level-n words, and each cell's flat ballot-table index.

    A variable at position ``i`` indexes ``[L - 1 - i, c]``, where ``c`` counts
    the operation symbols after it: the number of words that share the prefix
    before ``i`` and put an operation symbol there, so the word's rank is the
    sum over its variables.  An operation symbol indexes ``[0, cols - 2]``,
    which stays 0 under every shift and lift.
    """
    length = words.shape[1]
    isx = words == _X
    after = n - np.cumsum(~isx, axis=1)
    index = np.where(isx, (length - 1 - np.arange(length)) * cols + after, cols - 2)
    return isx, index


def _rank(words: np.ndarray, n: int, p: int) -> np.ndarray:
    """Canonical rank of each row of a level-n word array."""
    table = _completions(n - 1, p)
    flat, cols = table.ravel(), table.shape[1]
    ranks = np.zeros(len(words), np.int64)
    for lo, rows in _row_chunks(words):
        ranks[lo:lo + len(rows)] = np.take(flat, _word_index(rows, n, cols)[1]).sum(axis=1)
    return ranks


def _row_chunks(words: np.ndarray):
    """``(first row, rows)`` slices of a word array, ``_CHUNK_CELLS`` cells or one row each."""
    step = max(1, _CHUNK_CELLS // words.shape[1])
    for lo in range(0, len(words), step):
        yield lo, words[lo:lo + step]


def _unrank(ranks: np.ndarray, n: int, p: int) -> np.ndarray:
    """The level-n words of ``ranks``, one ``uint8`` row each; inverse of :func:`_rank`.

    All ranks are unranked at once, one step per operation symbol: with
    ``c`` symbols left to place, the variables before the next one read
    column ``c`` of the ballot table, so a rank skips the variables whose
    entries it covers (a ``searchsorted`` on that column's running sums)
    and subtracts those entries.
    """
    length = p * n + 1
    words = np.full((len(ranks), length), _X, np.uint8)
    table = _completions(n - 1, p)
    rank = np.array(ranks, np.int64)
    rest = np.full(len(ranks), length, np.int64)  # symbols still to place
    cells = words.reshape(-1)
    last = np.arange(len(ranks), dtype=np.int64) * length + length - 1
    for c in range(n, 0, -1):
        below = np.zeros(length + 1, np.int64)
        np.cumsum(table[:length, c], out=below[1:])
        # the next operation symbol leaves t symbols after it
        t = np.searchsorted(below, below[rest] - rank) - 1
        rank -= below[rest] - below[t + 1]
        cells[last - t] = _W
        rest = t
    return words


@lru_cache(maxsize=None)
def _level(n: int, p: int) -> np.ndarray:
    """The words of level ``n`` in canonical order, one read-only ``uint8`` row per rank."""
    words = _unrank(np.arange(catalan(n, p)), n, p)
    words.setflags(write=False)
    return words


def _starts(n: int, p: int) -> np.ndarray:
    """The flat index of the first bracketing of each level 0..n: the bracketings below it."""
    return np.array([0, *accumulate(catalan(m, p) for m in range(n))], np.int64)


def _children(n: int, p: int) -> np.ndarray:
    """The children of level ``n``'s bracketings, a read-only ``(catalan(n, p), p)`` array.

    Row r holds the children of rank r, left to right, as flat indices into
    levels 0..n-1 laid end to end in canonical order (:func:`_starts`); the
    dtype is int32 unless those levels hold 2**31 bracketings or more.  A miss
    builds every missing level up to n in one pass.  Level m lists its nodes by
    first child, over the trees up to level m-1 in canonical order (:func:`_orders`),
    then by the rest.  A rank picks each child by the running counts of the forests
    that the trees head (forests of d < p trees of total t number ``count_m(t, d,
    p)``, below the clip of the ballot table), ``_CHUNK_CELLS`` rows at a time.
    """
    if (n, p) in _child_index:
        return _child_index[n, p]
    base = _starts(n, p)
    # the trees up to each total t, a block per t: the total each leaves, its flat index
    left, flat, blocks = np.zeros(0, np.int16), np.zeros(0, np.int64), np.zeros(0, np.intp)
    for m, order in enumerate(islice(_orders(p), n), 1):  # order: the trees up to m - 1
        blocks = np.append(blocks, len(left))
        left = np.concatenate([left, m - 1 - order])
        # the block holds levels 0..m-1 whole, so a tree's place by level is its flat index
        flat = np.concatenate([flat, np.empty(len(order), np.int64)])
        flat[blocks[-1] + np.argsort(order, kind="stable")] = np.arange(len(order))
        if (m, p) in _child_index:
            continue
        index = np.zeros((catalan(m, p), p), np.int32 if base[m] < 2**31 else np.int64)
        runs = []  # per child position i: the forests after child i, counted up over the trees
        for lo in range(0, len(index), _CHUNK_CELLS):
            rank = np.arange(lo, min(lo + _CHUNK_CELLS, len(index)))  # among the rest's forests
            rest = np.full(len(rank), m - 1, np.int16)  # the total of each row's rest
            for i in range(p - 1):
                if not rest.any():  # the rest are variables, index 0, as the rows start
                    break
                if i == len(runs):  # entry [p*t + d, t + 1] is count_m(t, d, p), d = p-1-i
                    heads = _completions(m - 1, p)[p - 1 - i::p, 1:].diagonal()
                    runs.append(np.concatenate([[0], np.cumsum(heads[left], dtype=np.int64)]))
                rank += runs[i][blocks[rest]]
                child = np.searchsorted(runs[i], rank, "right") - 1
                rank -= runs[i][child]
                index[lo:lo + len(rank), i] = flat[child]
                rest = left[child]
            index[lo:lo + len(rank), -1] = base[rest] + rank
        index.setflags(write=False)
        _child_index[m, p] = index
    return _child_index[n, p]


def _orders(p: int):
    """Yield the levels of the trees of occurrence number <= t in canonical order, t = 0, 1, ...

    Prefix words are prefix-free, so node words compare child by child: the
    trees up to t are the nodes over the forests of p trees of total <= t-1,
    then the variable.  A forest of j trees of total <= b is a first tree up
    to b, then a forest of j-1 trees of total <= b minus that tree's level.
    """
    # levels fit int16: level 2**15 holds at least 2**32766 bracketings
    heads, forests = np.zeros(1, np.int16), []
    while True:
        b = len(forests)
        yield heads  # the trees up to b
        forests.append([heads])  # forests[b][j - 1]: the totals of the forests of j < p trees
        for j in range(1, p):  # forests of j + 1 trees: a head, then j trees
            tails = [forests[b - m][j - 1] for m in range(b + 1)]  # by the head's level m
            sizes = np.array([len(f) for f in tails])
            runs = sizes[heads]
            index = np.repeat(np.cumsum(sizes)[heads] - np.cumsum(runs), runs)
            index += np.arange(len(index))
            totals = np.concatenate(tails)[index]
            del index  # a suspended generator would hold it until the next block
            totals += np.repeat(heads, runs)
            if j < p - 1:
                forests[b].append(totals)
        heads = np.zeros(len(totals) + 1, totals.dtype)  # the nodes over the forests, then x
        np.add(totals, 1, out=heads[:-1])
        del totals


def _infix_rows(n: int):
    """Infix texts of binary level ``n``: ``(first rank, rows)`` chunks of ``uint8`` rows.

    A row is ``"(" + infix(L) + infix(R) + ")"``, copied from the rows of the
    lower levels by the child index of :func:`_children`, split into level
    and rank by the level starts; no word array is read.  Every level is
    filled ``_CHUNK_CELLS`` text cells at a time, or one row, and only the
    top level's chunks are yielded.  Byte-identical to :func:`_infix` per word.
    """
    texts = [np.full((1, 1), _X, np.uint8)]  # the rows of each level below
    if not n:
        yield 0, texts[0]
    for m in range(1, n + 1):
        index, starts = _children(m, 2), _starts(m, 2)
        if m < n:
            texts.append(np.empty((len(index), 3 * m + 1), np.uint8))
        step = max(1, _CHUNK_CELLS // (3 * m + 1))  # the rows filled at once
        for lo in range(0, len(index), step):
            level = np.searchsorted(starts, index[lo:lo + step], "right") - 1
            rank = index[lo:lo + step] - starts[level]
            rows = texts[m][lo:lo + step] if m < n else np.empty((len(rank), 3 * m + 1), np.uint8)
            rows[:, 0], rows[:, -1] = ord("("), ord(")")
            for left in np.flatnonzero(np.bincount(level[:, 0])).tolist():  # those present
                of = level[:, 0] == left
                rows[of, 1:3 * left + 2] = texts[left][rank[of, 0]]
                rows[of, 3 * left + 2:-1] = texts[m - 1 - left][rank[of, 1]]
            if m == n:
                yield lo, rows


def _texts(words: np.ndarray) -> list[str]:
    """The rows of a word array as strings."""
    text, length = words.tobytes().decode("ascii"), words.shape[1]
    return [text[i:i + length] for i in range(0, len(text), length)]


def _level_size(n: int, p: int, max_count: int | None) -> int:
    """Number of bracketings with occurrence number ``n``, refused above the cap.

    A level is also refused when its trees' child references (``p`` per
    bracketing) exceed 64 times the cap, which never refuses a level of
    arity <= 64 and refuses a wide level before its words or its ballot
    table are allocated.
    """
    check_int(p, "arity", 2)
    count = require_level_cap(n, lambda: catalan(n, p), max_count, DEFAULT_MAX_BRACKETINGS,
                              f"level {n} holds {{}} bracketings", level=n)
    cap = DEFAULT_MAX_BRACKETINGS if max_count is None else max_count
    require_cap(count * p, 64 * cap, 0, f"level {n} holds {{}} child references", level=n)
    return count


def enumerate_bracketings(n: int, p: int, *, max_count: int | None = None) -> list[Bracketing]:
    """All bracketings with occurrence number ``n``, once each, in canonical order."""
    _level_size(n, p, max_count)
    return [_intern(p, word) for word in _texts(_level(n, p))]


def parse_bracketing(text: str, p: int, format: str = "prefix") -> Bracketing:
    """Parse ``text`` as a bracketing of arity ``p``.

    Prefix notation uses ``w`` for the operation symbol and ``x`` for the
    variable; infix notation (binary only) uses parentheses and ``x``.
    """
    check_int(p, "arity", 2)
    if format == "prefix":
        return _parse_prefix(text, p)
    if format == "infix":
        if p != 2:
            raise ValueError("infix notation is only defined for binary bracketings")
        return _parse_infix(text)
    raise ValueError(f"unknown format {format!r}; expected 'prefix' or 'infix'")


def _parse_prefix(text: str, p: int) -> Bracketing:
    rest = text.lstrip("wx")
    if rest:
        raise ParseError(f"unexpected character {rest[0]!r} at position {len(text) - len(rest)}")
    _fold(text, p, lambda i: None, lambda *kids: None)  # raises unless one bracketing
    return _intern(p, text)


def _parse_infix(text: str) -> Bracketing:
    # each '(' opens a node, so the text without its ')' is the prefix word;
    # only a text that is the parsed tree's own rendering is accepted
    try:
        t = _parse_prefix(text.replace("(", "w").replace(")", ""), 2)
    except ParseError:
        t = None
    if t is None or render_bracketing(t, "infix") != text:
        raise ParseError(f"not a binary infix bracketing: {text!r}")
    return t


def render_bracketing(t: Bracketing, format: str = "prefix") -> str:
    """Serialize ``t``; round-trips with :func:`parse_bracketing`."""
    if format == "prefix":
        return t._word
    if format == "infix":
        if t.arity != 2:
            raise ValueError("infix notation is only defined for binary bracketings")
        return _infix(t._word)
    raise ValueError(f"unknown format {format!r}; expected 'prefix' or 'infix'")


def _infix(word: str) -> str:
    """Infix text of a binary prefix word."""
    out = []
    missing = []  # children still missing under each open node
    for ch in word:
        if ch == "w":
            out.append("(")
            missing.append(2)
            continue
        out.append("x")
        while missing and missing[-1] == 1:  # this variable completes the node
            missing.pop()
            out.append(")")
        if missing:
            missing[-1] -= 1
    return "".join(out)


class LabeledBracketing:
    """A bracketing whose leaves carry the consecutive indices ``start, start+1, ...``."""

    __slots__ = ("bracketing", "start")

    def __init__(self, bracketing: Bracketing, start: int):
        self.bracketing = bracketing
        self.start = start

    def labels(self) -> tuple[int, ...]:
        """Leaf indices in left-to-right order."""
        return tuple(range(self.start, self.start + self.bracketing.length))

    def shape(self) -> Bracketing:
        """The underlying unlabeled bracketing."""
        return self.bracketing

    def render(self) -> str:
        labels = iter(self.labels())
        return "".join("w" if ch == "w" else f"x{next(labels)}"
                       for ch in self.bracketing._word)

    def __eq__(self, other):
        if not isinstance(other, LabeledBracketing):
            return NotImplemented
        return (self.bracketing, self.start) == (other.bracketing, other.start)

    def __hash__(self):
        return hash((self.bracketing, self.start))

    def __repr__(self):
        return f"LabeledBracketing(p={self.bracketing.arity}, {self.render()!r})"


def enumerate_leaves(t: Bracketing, j: int = 1) -> LabeledBracketing:
    """Label the leaves of ``t`` with ``j, j+1, ...`` in left-to-right order."""
    if j < 1:
        raise ValueError(f"leaf labels start at a positive index, got {j}")
    return LabeledBracketing(t, j)


def left_lengths(t: Bracketing, k: int) -> tuple[int, ...]:
    """Lengths of the first ``k`` iterated left factors of a binary bracketing.

    The left factor of a node is its first child; the left factor of the
    single variable is the variable itself, so entries stay 1 once they
    reach 1.
    """
    if t.arity != 2:
        raise ValueError("left factors are only defined for binary bracketings")
    if k < 1:
        raise ValueError(f"need at least one left factor, got k={k}")
    out = []
    s = t
    for _ in range(k):
        if not s.is_leaf:
            s = s.children[0]
        out.append(s.length)
    return tuple(out)


def egg_pairs(t: Bracketing) -> int:
    """Number of subterm occurrences of the two-variable bracketing ``(xx)``."""
    if t.arity != 2:
        raise ValueError("egg pairs are only defined for binary bracketings")
    return t._word.count("wxx")  # an operation symbol over two variables


def left_right_depth(t: Bracketing) -> tuple[int, int]:
    """Edge distances from the root to the leftmost and to the rightmost leaf."""
    if t.arity != 2:
        raise ValueError("left/right depths are only defined for binary bracketings")
    word = t._word
    dl = len(word) - len(word.lstrip("w"))  # the leading operation symbols
    # the right spine's operation symbols are those with one tree still to read
    need = accumulate((1 if ch == "w" else -1 for ch in word), initial=1)
    return dl, sum(ch == "w" and k == 1 for ch, k in zip(word, need))


def left_associated(n: int, p: int) -> Bracketing:
    """The bracketing whose prefix word is ``n`` operation symbols, then all variables."""
    check_int(p, "arity", 2)
    check_nonnegative(n, "occurrence number")
    return _intern(p, "w" * n + "x" * ((p - 1) * n + 1))

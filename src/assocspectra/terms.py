"""Bracketings: full p-ary trees over a single variable.

A bracketing is a term built from one p-ary operation symbol (written ``w``
in prefix notation) and one variable symbol (written ``x``).  Its occurrence
number counts operation symbols, its length counts variable symbols, and
``length == (p - 1) * occ + 1`` always holds.

Each level (all bracketings of one occurrence number) is enumerated in a
canonical order: lexicographic on prefix words with ``w`` before ``x``,
which is also lexicographic on insertion tuples.  Only ``_level`` stores a
level, as a read-only ``uint8`` array of prefix words, one row per rank;
the ballot table ``_completions`` ranks and unranks words.  The canonical
order of the lower trees (``_orders``) gives each level's child ranks
(``_children``) and the runs of its binary infix rows (:func:`_infix_rows`).
Trees are built only on request, and ``_fold`` is the one word decoder.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ParseError, check_int, check_nonnegative, require_cap, require_level_cap

DEFAULT_MAX_BRACKETINGS = 10**6
_W, _X = ord("w"), ord("x")  # the symbols' bytes in a word array
# array cells that one row chunk of a word array holds
_CHUNK_CELLS = 1 << 16


class Bracketing:
    """An immutable full p-ary tree; leaves are variables, inner nodes the operation.

    Instances are interned through :func:`leaf` and :func:`node`, so
    structurally equal trees are normally the same object and enumerated
    levels share their substructure.
    """

    __slots__ = ("arity", "children", "occ", "length", "_hash", "_word")

    def __init__(self, arity: int, children: tuple["Bracketing", ...]):
        self.arity = arity
        self.children = children
        self.occ = 1 + sum(c.occ for c in children) if children else 0
        self.length = (arity - 1) * self.occ + 1
        self._hash = hash((arity, children))
        self._word = "x" if not children else None  # prefix word, filled lazily

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Bracketing):
            return NotImplemented
        return (self._hash == other._hash
                and self.arity == other.arity
                and self.children == other.children)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Bracketing(p={self.arity}, {render_bracketing(self)!r})"


@lru_cache(maxsize=None)
def leaf(p: int) -> Bracketing:
    """The single-variable bracketing of arity ``p``."""
    check_int(p, "arity", 2)
    return Bracketing(p, ())


_node_cache: dict[tuple[Bracketing, ...], Bracketing] = {}


def node(*children: Bracketing) -> Bracketing:
    """Join ``p`` bracketings of arity ``p`` under one operation symbol."""
    p = len(children)
    if p < 2:
        raise ValueError(f"a node needs at least two children, got {p}")
    for c in children:
        if not isinstance(c, Bracketing):
            raise TypeError(f"children must be bracketings, got {type(c).__name__}")
        if c.arity != p:
            raise ValueError(f"child of arity {c.arity} cannot sit under a {p}-ary node")
    return _node_cache.get(children) or _join(children)


def _join(children: tuple[Bracketing, ...]) -> Bracketing:
    """The interned node over ``children``, unchecked: they must be ``p`` trees of arity ``p``."""
    # one lookup, which suits a caller that mostly builds new nodes
    return _node_cache.setdefault(children, Bracketing(len(children), children))


def _word_of(t: Bracketing) -> str:
    """Prefix word of ``t``, cached on ``t`` alone and built from the words its subtrees hold."""
    if t._word is None:
        parts, stack = [], [t]
        while stack:
            s = stack.pop()
            parts.append(s._word or "w")
            if s._word is None:
                stack.extend(reversed(s.children))
        t._word = "".join(parts)
    return t._word


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
    from .insertion import catalan, count_m  # insertion imports this module

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
    from .insertion import catalan  # insertion imports this module

    words = _unrank(np.arange(catalan(n, p)), n, p)
    words.setflags(write=False)
    return words


def _children(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Ranks and levels of the children of every level-n bracketing, two ``(N, p)`` arrays.

    Level n lists its nodes by first child, over the trees up to level n-1 in
    canonical order (:func:`_orders`), then by the rest.  A rank picks each
    child by the running counts of the forests that the trees head (forests
    of j trees of total t number ``count_m(t, j, p)``), and keeps what is left.
    """
    return next(_children_up_to(n, p, n))


def _children_up_to(top: int, p: int, first: int = 1):
    """Yield :func:`_children` of the levels ``first..top``, deriving the lower trees once.

    The blocks of :func:`_orders` do not depend on ``top``, and a level reads
    the running forest counts of a child position only up to its own blocks,
    so each position's counts are summed once, when a level first reaches it.
    """
    from .insertion import catalan, count_m  # insertion imports this module

    orders = _orders(top - 1, p)
    # the trees up to each total t, a block per t: the total each leaves, its rank in its level
    left = np.concatenate([t - order for t, order in enumerate(orders)])
    in_level = np.concatenate([_in_level(order) for order in orders])
    starts = np.cumsum([0] + [len(order) for order in orders[:-1]])
    runs = []  # per child position i: the forests after child i, counted up over the trees

    def level(n: int) -> tuple[np.ndarray, np.ndarray]:
        ranks = np.zeros((catalan(n, p), p), np.intp)
        levels = np.zeros_like(ranks)
        rank = np.arange(len(ranks))  # each row's rank among the forests of its rest
        rest = np.full(len(ranks), n - 1)  # the total of each row's rest
        for i in range(p - 1):
            if not rest.any():  # every rest is all variables
                break
            if i == len(runs):
                heads = np.array([count_m(t, p - 1 - i, p) for t in range(top)], np.int64)
                runs.append(np.zeros(len(left) + 1, np.int64))
                np.cumsum(heads[left], out=runs[i][1:])
            rank += runs[i][starts[rest]]
            child = np.searchsorted(runs[i], rank, "right") - 1
            rank -= runs[i][child]
            ranks[:, i] = in_level[child]
            child = left[child]  # the rest's total; in-place steps keep two row temporaries
            rest -= child
            levels[:, i] = rest
            rest = child
        ranks[:, -1] = rank
        levels[:, -1] = rest
        return ranks, levels

    for n in range(first, top + 1):
        yield level(n)  # its temporaries are gone while a caller works on the level


def _orders(top: int, p: int) -> list[np.ndarray]:
    """Levels of the trees of occurrence number <= t in canonical order, for t = 0..top.

    Prefix words are prefix-free, so node words compare child by child: the
    trees up to t are the nodes over the forests of p trees of total <= t-1,
    then the variable.  A forest of j trees of total <= b is a first tree up
    to b, then a forest of j-1 trees of total <= b minus that tree's level.
    """
    orders, forests = [np.zeros(1, np.intp)], []
    for b in range(top):
        heads = orders[b]
        forests.append([heads])  # forests[b][j - 1]: the totals of the forests of j trees
        for j in range(1, p):  # forests of j + 1 trees: a head, then j trees
            tails = [forests[b - m][j - 1] for m in range(b + 1)]  # by the head's level m
            sizes = np.array([len(f) for f in tails])
            runs = sizes[heads]
            index = np.repeat(np.cumsum(sizes)[heads] - np.cumsum(runs), runs)
            index += np.arange(len(index))
            forests[b].append(np.concatenate(tails)[index] + np.repeat(heads, runs))
        orders.append(np.append(forests[b][-1] + 1, 0))
    return orders


def _in_level(order: np.ndarray) -> np.ndarray:
    """The rank of each tree in its level, for levels of trees listed in canonical order."""
    rank = np.empty_like(order)
    for m, count in enumerate(np.bincount(order).tolist()):
        rank[order == m] = np.arange(count)
    return rank


def _infix_chunks(n: int, texts: list[np.ndarray]):
    """``(first rank, rows)`` chunks of the infix rows of binary level ``n >= 1``.

    ``texts[m]`` holds the rows of every level m below n.  A row is ``"(" +
    infix(L) + infix(R) + ")"``: one run per left child ``L``, in the order of
    :func:`_orders`, with ``R`` running through level ``n - 1 - |L|``.
    """
    left = _orders(n - 1, 2)[n - 1]
    rank = _in_level(left)
    runs = np.array([len(t) for t in texts])[n - 1 - left]
    starts = np.cumsum(runs) - runs
    width, size = 3 * n + 1, int(runs.sum())
    step = max(1, _CHUNK_CELLS // width)
    for lo in range(0, size, step):
        ranks = np.arange(lo, min(lo + step, size))
        run = np.searchsorted(starts, ranks, "right") - 1
        sizes, lefts, rights = left[run], rank[run], ranks - starts[run]
        rows = np.empty((len(ranks), width), np.uint8)
        rows[:, 0], rows[:, -1] = ord("("), ord(")")
        for m in np.unique(sizes).tolist():
            of = sizes == m
            rows[of, 1:3 * m + 2] = texts[m][lefts[of]]
            rows[of, 3 * m + 2:-1] = texts[n - 1 - m][rights[of]]
        yield lo, rows


def _infix_rows(n: int):
    """Infix texts of binary level ``n``: ``(first rank, rows)`` chunks of ``uint8`` rows.

    Built from the rows of the lower levels alone (:func:`_infix_chunks`);
    no word array is read.  Byte-identical to :func:`_infix` per word.
    """
    texts = [np.full((1, 1), _X, np.uint8)]
    for m in range(1, n):
        texts.append(np.concatenate([rows for _, rows in _infix_chunks(m, texts)]))
    return _infix_chunks(n, texts) if n else iter([(0, texts[0])])


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
    from .insertion import catalan  # insertion imports this module

    count = require_level_cap(n, lambda: catalan(n, p), max_count, DEFAULT_MAX_BRACKETINGS,
                              f"level {n} holds {{}} bracketings", level=n)
    cap = DEFAULT_MAX_BRACKETINGS if max_count is None else max_count
    require_cap(count * p, 64 * cap, 0, f"level {n} holds {{}} child references", level=n)
    return count


def enumerate_bracketings(n: int, p: int, *, max_count: int | None = None) -> list[Bracketing]:
    """All bracketings with occurrence number ``n``, once each, in canonical order."""
    _level_size(n, p, max_count)
    trees = [leaf(p)]  # levels 0..m, one after another
    start = np.zeros(n + 1, np.intp)
    for m in range(1, n + 1):
        ranks, levels = _children(m, p)
        start[m] = len(trees)
        kids = [list(map(trees.__getitem__, c)) for c in (start[levels] + ranks).T.tolist()]
        level = list(map(_join, zip(*kids)))
        for t, word in zip(level, _texts(_level(m, p))):
            t._word = word
        trees += level
    return trees[start[n]:]


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
    x = leaf(p)
    t = _fold(text, p, lambda i: x, lambda *kids: _node_cache.get(kids) or _join(kids))
    t._word = text
    return t


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
        return _word_of(t)
    if format == "infix":
        if t.arity != 2:
            raise ValueError("infix notation is only defined for binary bracketings")
        return _infix(_word_of(t))
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
                       for ch in _word_of(self.bracketing))

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
    return _word_of(t).count("wxx")  # an operation symbol over two variables


def left_right_depth(t: Bracketing) -> tuple[int, int]:
    """Edge distances from the root to the leftmost and to the rightmost leaf."""
    if t.arity != 2:
        raise ValueError("left/right depths are only defined for binary bracketings")
    word = _word_of(t)
    dl = len(word) - len(word.lstrip("w"))  # the leading operation symbols
    dr = 0
    s = t
    while not s.is_leaf:
        dr += 1
        s = s.children[-1]
    return dl, dr


def left_associated(n: int, p: int) -> Bracketing:
    """The bracketing whose prefix word is ``n`` operation symbols, then all variables."""
    check_int(p, "arity", 2)
    check_nonnegative(n, "occurrence number")
    return _parse_prefix("w" * n + "x" * ((p - 1) * n + 1), p)

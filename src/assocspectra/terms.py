"""Bracketings: full p-ary trees over a single variable.

A bracketing is a term built from one p-ary operation symbol (written ``w``
in prefix notation) and one variable symbol (written ``x``).  Its occurrence
number counts operation symbols, its length counts variable symbols, and
``length == (p - 1) * occ + 1`` always holds.

Each level (all bracketings of one occurrence number) is enumerated in a
canonical order: lexicographic on prefix words with ``w`` sorting before
``x``.  This coincides with lexicographic order on insertion tuples, since
the first differing prefix symbol puts the next operation symbol after
strictly fewer variables on the ``w`` side.  This module alone stores a
level: ``_level`` keeps its interned trees in canonical order, and each
tree's cached prefix word (``_word_of``) is its rank key.  ``_fold`` is the one
prefix-word decoder; only a tree asked for its word, or parsed, caches it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from .errors import ParseError, check_int, require_cap, require_level_cap

DEFAULT_MAX_BRACKETINGS = 10**6


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


def _compositions(total: int, parts: int):
    """Tuples of ``parts`` nonnegative ints summing to ``total``, in lexicographic order."""
    # stars and bars: parts - 1 bars among total + parts - 1 slots; bar
    # positions in lexicographic order give the parts in lexicographic order
    slots = total + parts - 1
    for bars in combinations(range(slots), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, slots)))


@lru_cache(maxsize=None)
def _level(n: int, p: int) -> tuple[Bracketing, ...]:
    # compose from lower levels, then sort by prefix word ('w' < 'x'), which
    # is the canonical order: at the first differing symbol the 'w' side puts
    # its next operation symbol after strictly fewer variables
    if n == 0:
        return (leaf(p),)
    lower = [_level(m, p) for m in range(n)]
    out = []
    for split in _compositions(n - 1, p):
        out.extend(map(_join, product(*map(lower.__getitem__, split))))
    out.sort(key=_word_of)
    return tuple(out)


def _level_size(n: int, p: int, max_count: int | None) -> int:
    """Number of bracketings with occurrence number ``n``, refused above the cap.

    A level is also refused when its child references (``p`` per bracketing)
    exceed 64 times the cap, which never refuses a level of arity <= 64.
    """
    check_int(p, "arity", 2)
    if n < 0:
        raise ValueError(f"occurrence number must be nonnegative, got {n}")
    from .insertion import catalan  # insertion imports this module

    count = require_level_cap(n, lambda: catalan(n, p), max_count, DEFAULT_MAX_BRACKETINGS,
                              f"level {n} holds {{}} bracketings", level=n)
    cap = DEFAULT_MAX_BRACKETINGS if max_count is None else max_count
    require_cap(count * p, 64 * cap, 0, f"level {n} holds {{}} child references", level=n)
    return count


def enumerate_bracketings(n: int, p: int, *, max_count: int | None = None) -> list[Bracketing]:
    """All bracketings with occurrence number ``n``, once each, in canonical order."""
    _level_size(n, p, max_count)
    return list(_level(n, p))


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
        out = []
        missing = []  # children still missing under each open node
        for ch in _word_of(t):
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
    raise ValueError(f"unknown format {format!r}; expected 'prefix' or 'infix'")


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
    dl = 0
    s = t
    while not s.is_leaf:
        dl += 1
        s = s.children[0]
    dr = 0
    s = t
    while not s.is_leaf:
        dr += 1
        s = s.children[-1]
    return dl, dr


def left_associated(n: int, p: int) -> Bracketing:
    """The bracketing whose prefix word is ``n`` operation symbols, then all variables."""
    check_int(p, "arity", 2)
    if n < 0:
        raise ValueError(f"occurrence number must be nonnegative, got {n}")
    return _parse_prefix("w" * n + "x" * ((p - 1) * n + 1), p)

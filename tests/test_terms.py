import itertools
import math
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import assocspectra as a
from assocspectra import CapExceededError, ParseError

# first four binary levels, in canonical order
TABLE1_PREFIX = {
    0: ["x"],
    1: ["wxx"],
    2: ["wwxxx", "wxwxx"],
    3: ["wwwxxxx", "wwxwxxx", "wwxxwxx", "wxwwxxx", "wxwxwxx"],
}
TABLE1_INFIX = {
    0: ["x"],
    1: ["(xx)"],
    2: ["((xx)x)", "(x(xx))"],
    3: ["(((xx)x)x)", "((x(xx))x)", "((xx)(xx))", "(x((xx)x))", "(x(x(xx)))"],
}


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def catalan_rec(n, p):
    """Independent level-count oracle: the composition recursion."""
    memo = {0: 1}

    def rec(m):
        if m not in memo:
            memo[m] = sum(
                math.prod(rec(i) for i in split) for split in compositions(m - 1, p))
        return memo[m]

    return rec(n)


@st.composite
def bracketings(draw, max_occ=7, arities=(2, 3, 4)):
    # grown by the tree-side operator beta through the checked node, so no
    # prefix-word decoder builds the trees it is used to test
    p = draw(st.sampled_from(arities))
    t = a.leaf(p)
    for _ in range(draw(st.integers(0, max_occ))):
        t = a.beta(t, draw(st.integers(1, t.length)))
    return t


class TestEnumerate:
    def test_binary_levels_match_table(self):
        for n, want in TABLE1_INFIX.items():
            got = [a.render_bracketing(t, "infix") for t in a.enumerate_bracketings(n, 2)]
            assert got == want

    def test_level_zero_is_the_variable(self):
        (t,) = a.enumerate_bracketings(0, 2)
        assert t.is_leaf and t.occ == 0 and t.length == 1

    def test_ternary_level_two(self):
        ts = a.enumerate_bracketings(2, 3)
        assert len(ts) == 3 == catalan_rec(2, 3)

    @pytest.mark.parametrize("p,max_n", [(2, 10), (3, 6)])
    def test_counts_match_recursion(self, p, max_n):
        for n in range(max_n + 1):
            assert len(a.enumerate_bracketings(n, p)) == catalan_rec(n, p)

    def test_no_duplicates_and_level_is_exact(self):
        for n in range(7):
            ts = a.enumerate_bracketings(n, 2)
            assert len(set(ts)) == len(ts)
            assert all(t.occ == n and t.arity == 2 for t in ts)

    def test_length_formula(self):
        for p in (2, 3):
            for n in range(6):
                for t in a.enumerate_bracketings(n, p):
                    assert t.length == (p - 1) * t.occ + 1

    def test_cap_exceeded(self):
        with pytest.raises(CapExceededError) as exc:
            a.enumerate_bracketings(12, 2, max_count=10)
        assert exc.value.required == 208012

    def test_bad_arity(self):
        with pytest.raises(ValueError):
            a.enumerate_bracketings(3, 1)
        with pytest.raises(ValueError):
            a.enumerate_bracketings(-1, 2)

    @pytest.mark.parametrize("cap", [-1, 1.5])
    def test_cap_must_be_a_nonnegative_int(self, cap):
        with pytest.raises(ValueError, match="cap"):
            a.enumerate_bracketings(3, 2, max_count=cap)

    @pytest.mark.parametrize("n", [20000, 200000])
    def test_huge_level_refused_from_its_lower_bound(self, n):
        start = time.perf_counter()
        with pytest.raises(CapExceededError) as exc:
            a.enumerate_bracketings(n, 2)
        assert time.perf_counter() - start < 0.5
        assert exc.value.required is None and exc.value.level == n
        assert f"at least 2**{n - 1} bracketings" in str(exc.value)

    def test_cap_message_never_prints_a_giant_count(self):
        with pytest.raises(CapExceededError) as exc:
            a.enumerate_bracketings(9000, 2, max_count=0)
        assert exc.value.required == a.catalan(9000, 2)
        assert "at least 2**" in str(exc.value) and len(str(exc.value)) < 100


    def test_child_references_capped(self):
        # a level of one or p trees can still hold p or p**2 child references
        for n, p in ((1, 10**9), (2, 10**5)):
            with pytest.raises(CapExceededError, match="child references") as exc:
                a.enumerate_bracketings(n, p)
            assert exc.value.required == a.catalan(n, p) * p and exc.value.level == n
        # 64 references per admitted tree: arity 64 passes wherever the count does
        assert len(a.enumerate_bracketings(2, 64, max_count=64)) == 64
        with pytest.raises(CapExceededError, match="child references"):
            a.enumerate_bracketings(2, 65, max_count=65)

    def test_wide_arity_builds_without_recursion(self):
        # one child position per recursion level would overflow the stack here
        (t,) = a.enumerate_bracketings(1, 2000)
        assert t.length == 2000 and all(c.is_leaf for c in t.children)


class TestParseRender:
    def test_prefix_examples(self):
        t = a.parse_bracketing("wwxxx", 2)
        assert a.render_bracketing(t, "infix") == "((xx)x)"
        assert a.parse_bracketing("x", 2).is_leaf
        assert a.render_bracketing(a.parse_bracketing("wxwxx", 2), "infix") == "(x(xx))"

    def test_render_examples(self):
        t = a.parse_bracketing("((xx)x)", 2, "infix")
        assert a.render_bracketing(t) == "wwxxx"
        assert a.render_bracketing(a.leaf(2), "infix") == "x"
        t = a.parse_bracketing("wxwxwxx", 2)
        assert a.render_bracketing(t, "infix") == "(x(x(xx)))"

    def test_roundtrip_exhaustive_binary(self):
        for n in range(9):
            for t in a.enumerate_bracketings(n, 2):
                assert a.parse_bracketing(a.render_bracketing(t), 2) is t
                assert a.parse_bracketing(a.render_bracketing(t, "infix"), 2, "infix") is t

    def test_roundtrip_ternary_prefix(self):
        for n in range(5):
            for t in a.enumerate_bracketings(n, 3):
                assert a.parse_bracketing(a.render_bracketing(t), 3) == t

    @given(bracketings())
    def test_roundtrip_property(self, t):
        assert a.parse_bracketing(a.render_bracketing(t), t.arity) is t
        if t.arity == 2:
            assert a.parse_bracketing(a.render_bracketing(t, "infix"), 2, "infix") is t
        assert a.from_tuple(a.to_tuple(t), t.arity) is t

    @pytest.mark.parametrize("bad", ["", "w", "wx", "wxxx", "xx", "wxy", "xw", "wwxxxx"])
    def test_prefix_errors(self, bad):
        with pytest.raises(ParseError):
            a.parse_bracketing(bad, 2)

    @pytest.mark.parametrize("bad", ["", "(x", "(xx", "(xxx)", "((xx)x", "x)", "(xx))", "xx", "()"])
    def test_infix_errors(self, bad):
        with pytest.raises(ParseError):
            a.parse_bracketing(bad, 2, "infix")

    def test_infix_accepts_exactly_the_renderings(self):
        # every string over '(', 'x', ')' up to length 10: 88,573 of them
        renderings = {a.render_bracketing(t, "infix"): t
                      for n in range(4) for t in a.enumerate_bracketings(n, 2)}
        accepted = {}
        for length in range(11):
            for chars in itertools.product("(x)", repeat=length):
                text = "".join(chars)
                try:
                    accepted[text] = a.parse_bracketing(text, 2, "infix")
                except ParseError:
                    pass
        assert len(accepted) == 9 and accepted == renderings

    @pytest.mark.parametrize("p,alphabet,max_len", [(2, "wxy", 9), (3, "wx", 10)])
    def test_prefix_accepts_exactly_the_renderings(self, p, alphabet, max_len):
        # every string up to max_len: 29,524 for p=2, 2,047 for p=3; a word of
        # level n has p*n + 1 symbols, and anything else must be a ParseError
        renderings = {a.render_bracketing(t): t
                      for n in range((max_len - 1) // p + 1) for t in a.enumerate_bracketings(n, p)}
        accepted = {}
        for length in range(max_len + 1):
            for chars in itertools.product(alphabet, repeat=length):
                text = "".join(chars)
                try:
                    accepted[text] = a.parse_bracketing(text, p)
                except ParseError:
                    pass
        assert len(accepted) == len(renderings) and accepted == renderings

    @pytest.mark.parametrize("bad", ["wxx", "(xwxx)", "(x y)"])
    def test_infix_rejects_other_symbols(self, bad):
        with pytest.raises(ParseError, match="not a binary infix bracketing"):
            a.parse_bracketing(bad, 2, "infix")

    def test_infix_roundtrip_deep(self):
        t = a.left_associated(30000, 2)
        text = a.render_bracketing(t, "infix")
        assert text == "(" * 30000 + "x" + "x)" * 30000
        assert a.parse_bracketing(text, 2, "infix") is t

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_deep_comb_costs_linear_memory(self, side):
        # built with node, so no word is cached on the comb or its subtrees yet;
        # one word per subtree would hold about 10**8 characters
        t = a.leaf(2)
        for _ in range(10000):
            t = a.node(t, a.leaf(2)) if side == "left" else a.node(a.leaf(2), t)
        tracemalloc.start()
        try:
            for fmt in ("prefix", "infix"):
                assert a.parse_bracketing(a.render_bracketing(t, fmt), 2, fmt) is t
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_infix_needs_binary(self):
        with pytest.raises(ValueError):
            a.parse_bracketing("(xx)", 3, "infix")
        with pytest.raises(ValueError):
            a.render_bracketing(a.leaf(3), "infix")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            a.render_bracketing(a.leaf(2), "postfix")


class TestNodeLeaf:
    def test_interning(self):
        assert a.node(a.leaf(2), a.leaf(2)) is a.node(a.leaf(2), a.leaf(2))

    def test_child_arity_checked(self):
        with pytest.raises(ValueError):
            a.node(a.leaf(3), a.leaf(3))  # two children but ternary pieces
        with pytest.raises(ValueError):
            a.node(a.leaf(2))

    def test_occ_recursion(self):
        t = a.node(a.node(a.leaf(2), a.leaf(2)), a.leaf(2))
        assert t.occ == 2 and t.children[0].occ == 1


class TestEnumerateLeaves:
    def test_from_one(self):
        lb = a.enumerate_leaves(a.parse_bracketing("wwxxx", 2))
        assert lb.labels() == (1, 2, 3)
        assert lb.render() == "wwx1x2x3"
        assert lb.shape() is a.parse_bracketing("wwxxx", 2)

    def test_leaf_start(self):
        lb = a.enumerate_leaves(a.leaf(2), 7)
        assert lb.labels() == (7,) and lb.render() == "x7"

    def test_shifted(self):
        lb = a.enumerate_leaves(a.parse_bracketing("wxwxx", 2), 2)
        assert lb.labels() == (2, 3, 4)
        assert lb.render() == "wx2wx3x4"

    def test_labels_are_consecutive(self):
        for n in range(5):
            for t in a.enumerate_bracketings(n, 3):
                assert a.enumerate_leaves(t, 4).labels() == tuple(range(4, 4 + t.length))

    def test_bad_start(self):
        with pytest.raises(ValueError):
            a.enumerate_leaves(a.leaf(2), 0)

    @pytest.mark.parametrize("p", [2, 3])
    def test_deep_left_associated(self, p):
        t = a.left_associated(3000, p)
        assert a.enumerate_leaves(t, 5).labels() == tuple(range(5, 5 + t.length))


class TestLeftLengths:
    def test_examples(self):
        t = a.parse_bracketing("(((xx)x)x)", 2, "infix")
        assert a.left_lengths(t, 2) == (3, 2)
        assert a.left_lengths(a.leaf(2), 3) == (1, 1, 1)

    def test_level_three_values(self):
        values = {a.left_lengths(t, 1) for t in a.enumerate_bracketings(3, 2)}
        assert values == {(3,), (2,), (1,)}
        counts = [a.left_lengths(t, 1)[0] for t in a.enumerate_bracketings(3, 2)]
        assert sorted(counts) == [1, 1, 2, 3, 3]

    def test_weakly_decreasing_strict_until_one(self):
        for n in range(7):
            for t in a.enumerate_bracketings(n, 2):
                ls = a.left_lengths(t, 4)
                assert all(x >= y for x, y in zip(ls, ls[1:]))
                for x, y in zip(ls, ls[1:]):
                    if x == y:
                        assert x == 1
                assert ls[0] <= t.length

    def test_binary_only(self):
        with pytest.raises(ValueError):
            a.left_lengths(a.leaf(3), 1)
        with pytest.raises(ValueError):
            a.left_lengths(a.leaf(2), 0)


class TestEggPairs:
    def test_examples(self):
        assert a.egg_pairs(a.parse_bracketing("((xx)(xx))", 2, "infix")) == 2
        assert a.egg_pairs(a.parse_bracketing("(((xx)(xx))(xx))", 2, "infix")) == 3
        assert a.egg_pairs(a.parse_bracketing("(x(x(xx)))", 2, "infix")) == 1

    def test_word_count_oracle(self):
        # egg_pairs counts "wxx" in the prefix word; this oracle walks the tree
        def walk(t):
            if t.is_leaf:
                return 0
            if all(c.is_leaf for c in t.children):
                return 1
            return sum(walk(c) for c in t.children)

        for n in range(8):
            for t in a.enumerate_bracketings(n, 2):
                assert a.egg_pairs(t) == walk(t)

    def test_three_eggs_need_occ_five(self):
        assert all(a.egg_pairs(t) < 3 for t in a.enumerate_bracketings(4, 2))
        assert any(a.egg_pairs(t) >= 3 for t in a.enumerate_bracketings(5, 2))

    def test_binary_only(self):
        with pytest.raises(ValueError):
            a.egg_pairs(a.leaf(3))


class TestLeftRightDepth:
    def test_examples(self):
        assert a.left_right_depth(a.parse_bracketing("(((xx)x)x)", 2, "infix")) == (3, 1)
        assert a.left_right_depth(a.leaf(2)) == (0, 0)
        assert a.left_right_depth(a.parse_bracketing("((xx)(xx))", 2, "infix")) == (2, 2)

    def test_paren_oracle(self):
        # leading '(' runs measure the leftmost path, trailing ')' runs the rightmost
        for n in range(7):
            for t in a.enumerate_bracketings(n, 2):
                s = a.render_bracketing(t, "infix")
                dl = len(s) - len(s.lstrip("("))
                dr = len(s) - len(s.rstrip(")"))
                assert a.left_right_depth(t) == (dl, dr)

    def test_left_spine_walk_oracle(self):
        # an independent route to dl: follow first children down to a leaf
        for n in range(9):
            for t in a.enumerate_bracketings(n, 2):
                dl, s = 0, t
                while not s.is_leaf:
                    dl, s = dl + 1, s.children[0]
                assert a.left_right_depth(t)[0] == dl

    def test_tuple_formulas(self):
        for n in range(7):
            for t in a.enumerate_bracketings(n, 2):
                u = a.to_tuple(t)
                dl = sum(1 for e in u if e == 1)
                dr = sum(1 for q, e in enumerate(u, start=1) if e == q)
                assert a.left_right_depth(t) == (dl, dr)

    def test_binary_only(self):
        with pytest.raises(ValueError):
            a.left_right_depth(a.leaf(3))


class TestLeftAssociated:
    def test_examples(self):
        assert a.render_bracketing(a.left_associated(3, 2), "infix") == "(((xx)x)x)"
        assert a.left_associated(0, 2) is a.leaf(2)
        assert a.render_bracketing(a.left_associated(2, 3)) == "wwxxxxx"

    def test_tuple_is_all_ones(self):
        for p in (2, 3):
            for n in range(6):
                assert a.to_tuple(a.left_associated(n, p)) == (1,) * n

    def test_word_shape(self):
        t = a.left_associated(4, 3)
        assert a.render_bracketing(t) == "w" * 4 + "x" * 9

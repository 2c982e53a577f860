import ast
import functools
import itertools
import math
import pathlib
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import assocspectra as a
from assocspectra import CapExceededError, ParseError, insertion, terms

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
    # grown by the operator beta, a word edit, so no prefix-word decoder
    # builds the trees it is used to test
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


@functools.lru_cache(maxsize=None)
def composed_level(n, p):
    """Slow level oracle: trees composed from the lower levels, then sorted by prefix word."""
    if n == 0:
        return [a.leaf(p)]
    lower = [composed_level(m, p) for m in range(n)]
    trees = [a.node(*kids) for split in compositions(n - 1, p)
             for kids in itertools.product(*map(lower.__getitem__, split))]
    return sorted(trees, key=a.render_bracketing)


def children_by_ballot(n, p):
    """Slow child-rank oracle: scan each level-n word with the ballot table.

    After position ``i`` a word still needs ``p * W[i] - i`` trees, ``W[i]``
    counting its operation symbols up to ``i``; child ``c`` ends where that
    need first falls to ``p - c``.  A child's rank is the sum of the table
    entries of its variables, row and column taken relative to the child's
    end: ``[end - i, W[end] - W[i]]``.
    """
    words = terms._level(n, p)
    table = terms._completions(n - 1, p)
    cols, flat = table.shape[1], table.ravel()
    length = words.shape[1]
    ranks = np.empty((len(words), p), np.intp)
    levels = np.empty((len(words), p), np.intp)
    pos = np.arange(length, dtype=np.int32)  # every table index fits: the table is allocated
    for lo, chunk in terms._row_chunks(words):
        # in-place steps keep a chunk's temporaries few (see the ring check's memory test)
        isx = chunk == terms._X
        ops = np.cumsum(~isx, axis=1, dtype=np.int32)
        low = ops * p
        low -= pos
        np.minimum.accumulate(low, axis=1, out=low)
        ends = np.nonzero(low[:, 1:] < low[:, :-1])[1].reshape(-1, p).astype(np.int32) + 1
        ops_end = np.take_along_axis(ops, ends, axis=1)
        child = np.subtract(p, low, out=low)[:, :-1]  # of each position from 1 on
        index = np.take_along_axis(ends * cols + ops_end, child, axis=1)
        ops += pos * cols
        index -= ops[:, 1:]
        index[~isx[:, 1:]] = cols - 2  # a zero cell
        # a row's child ranks sum to less than the level size, so the table dtype holds them
        sums = np.cumsum(flat[index], axis=1, dtype=table.dtype)
        hi = lo + len(chunk)
        ranks[lo:hi] = np.diff(np.take_along_axis(sums, ends - 1, axis=1), axis=1, prepend=0)
        levels[lo:hi] = np.diff(ops_end, axis=1, prepend=1)
    return ranks, levels


def joined_children(top, p):
    """The ranks and levels of the children of levels 1..top, split from each level's index."""
    for n in range(1, top + 1):
        index, starts = terms._children(n, p), terms._starts(n, p)
        assert index.shape == (a.catalan(n, p), p) and not index.flags.writeable
        levels = np.searchsorted(starts, index, "right") - 1
        yield index - starts[levels], levels


def assert_children_by_ballot(n, p):
    ranks, levels = children_by_ballot(n, p)
    got = terms._children(n, p)
    assert got.dtype == np.int32 and not got.flags.writeable
    assert np.array_equal(got, terms._starts(n, p)[levels] + ranks)


class TestWordArray:
    @pytest.mark.parametrize("p,top", [(2, 10), (3, 6), (4, 5), (5, 4)])
    def test_unranked_level_is_the_composed_level(self, p, top):
        for n in range(top + 1):
            words = terms._level(n, p)
            assert words.dtype == np.uint8 and not words.flags.writeable
            assert terms._texts(words) == [a.render_bracketing(t) for t in composed_level(n, p)]

    @pytest.mark.parametrize("p,top", [(2, 9), (3, 6), (4, 5), (5, 4)])
    def test_child_ranks_name_the_composed_children(self, p, top):
        for n, (ranks, levels) in enumerate(joined_children(top, p), 1):
            want = [[(c.occ, composed_level(c.occ, p).index(c)) for c in t.children]
                    for t in composed_level(n, p)]
            assert np.stack([levels, ranks], axis=2).tolist() == [
                [list(pair) for pair in kids] for kids in want]

    @given(st.data())
    def test_child_ranks_match_the_ballot_scan(self, data):
        p = data.draw(st.integers(2, 6))
        top = max(n for n in range(1, 12) if a.catalan(n, p) <= 20_000)
        assert_children_by_ballot(data.draw(st.integers(1, top)), p)

    @pytest.mark.parametrize("p,n", [(12, 3), (40, 3), (63, 3), (300, 2), (10**6, 1)])
    def test_wide_child_ranks_match_the_ballot_scan(self, p, n):
        assert_children_by_ballot(n, p)

    @pytest.mark.parametrize("p,top", [(2, 10), (3, 6), (4, 5), (5, 4)])
    def test_child_index_matches_the_ballot_scan_at_every_level(self, p, top):
        for n in range(1, top + 1):
            assert_children_by_ballot(n, p)

    def test_a_wide_level_places_each_child_position_once(self, monkeypatch):
        # placed 65 rows at a time, each slice ran the child positions again: 8,799 placements
        # here, and 2.2 s at p = 3000
        monkeypatch.setattr(terms, "_child_index", {})
        placed, searchsorted = [], np.searchsorted
        monkeypatch.setattr(np, "searchsorted",
                            lambda *args: placed.append(1) or searchsorted(*args))
        start = time.perf_counter()
        terms._children(2, 1000)
        assert time.perf_counter() - start < 0.5
        assert len(placed) == 999  # a searchsorted per child position but the last
        monkeypatch.setattr(np, "searchsorted", searchsorted)
        assert_children_by_ballot(2, 1000)

    def test_a_miss_builds_every_missing_lower_level_in_one_pass(self, monkeypatch):
        passes, built, orders = [], [], terms._orders

        class Recorded(dict):
            def __setitem__(self, key, value):
                built.append(key)
                super().__setitem__(key, value)

        monkeypatch.setattr(terms, "_child_index", Recorded({(2, 3): terms._children(2, 3)}))
        monkeypatch.setattr(terms, "_orders", lambda p: passes.append(p) or orders(p))
        index = terms._children(5, 3)
        assert passes == [3] and built == [(1, 3), (3, 3), (4, 3), (5, 3)]  # level 2 was cached
        for n in (1, 3, 4):
            terms._children(n, 3)
        assert passes == [3]
        assert terms._children(5, 3) is index and not index.flags.writeable

    def test_index_built_in_small_slices_is_the_same(self, monkeypatch):
        monkeypatch.setattr(terms, "_child_index", {})
        monkeypatch.setattr(terms, "_CHUNK_CELLS", 8)
        for p, top in ((2, 7), (3, 4)):
            for n in range(1, top + 1):
                assert_children_by_ballot(n, p)

    @pytest.mark.parametrize("p,top", [(2, 8), (3, 5), (4, 4), (5, 3)])
    def test_orders_sort_the_words_up_to_each_level(self, p, top):
        orders = list(itertools.islice(terms._orders(p), top + 1))
        assert len(orders) == top + 1
        for t, order in enumerate(orders):
            words = sorted(w for m in range(t + 1) for w in terms._texts(terms._level(m, p)))
            assert order.tolist() == [w.count("w") for w in words]

    @pytest.mark.parametrize("p,top", [(2, 9), (3, 6), (4, 4)])
    def test_enumerated_trees_are_the_interned_composed_trees(self, p, top):
        for n in range(top + 1):
            trees = a.enumerate_bracketings(n, p)
            assert all(t is s for t, s in zip(trees, composed_level(n, p), strict=True))

    @given(st.data())
    def test_unrank_then_rank_is_the_identity(self, data):
        p = data.draw(st.integers(2, 6))
        n = data.draw(st.integers(0, 40))
        size = a.catalan(n, p)
        assume(a.catalan(n + 1, p) < 2**62)  # the table's int64 entries hold the clip
        ranks = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=20))
        words = terms._unrank(np.array(ranks), n, p)
        assert terms._rank(words, n, p).tolist() == ranks
        # every row is a word of the level: n operation symbols, one tree
        for word in terms._texts(words):
            assert a.parse_bracketing(word, p).occ == n

    def test_enumeration_builds_only_its_level(self):
        # the level's trees come from its words alone: no lower tree is interned
        kept = dict(terms._node_cache)  # the trees alive now, interned again afterwards
        terms._node_cache.clear()
        try:
            trees = a.enumerate_bracketings(10, 2)
            assert len(terms._node_cache) == len(trees) == 16796
        finally:
            terms._node_cache.clear()
            terms._node_cache.update(kept)

    def test_a_dead_trees_callback_keeps_a_newer_tree_of_its_word(self):
        key = 11, "w" * 3 + "x" * 31  # a tree that no other test holds
        tree = terms._intern(*key)
        stale = terms._node_cache[key]
        del tree  # nothing else holds it, so its callback drops its entry
        assert key not in terms._node_cache and stale() is None
        tree = terms._intern(*key)
        terms._forget(stale)  # the dead tree's callback again, late, as a collected cycle runs it
        assert terms._node_cache[key]() is tree
        assert terms._intern(*key) is tree

    def test_level_arrays_are_cached_and_small(self):
        # level 12 as trees kept about 80 MiB; as words it is one byte a symbol
        words = terms._level(12, 2)
        assert terms._level(12, 2) is words
        assert words.nbytes == 208012 * 25


class TestInfixRows:
    def test_rows_are_the_infix_of_each_word(self):
        for n in range(12):
            got = np.concatenate([rows for _, rows in terms._infix_rows(n)])
            assert got.shape == (a.catalan(n, 2), 3 * n + 1)
            want = [terms._infix(w) for w in terms._texts(terms._level(n, 2))]
            assert terms._texts(got) == want

    def test_chunks_start_at_their_first_rank(self):
        starts = [lo for lo, _ in terms._infix_rows(11)]
        sizes = [len(rows) for _, rows in terms._infix_rows(11)]
        assert starts == list(itertools.accumulate(sizes[:-1], initial=0))
        assert max(sizes) * 34 <= terms._CHUNK_CELLS

    def test_top_level_text_is_filled_a_chunk_at_a_time(self):
        # filled a child-rank chunk (32,768 rows) at a time, level 11 peaked at 5.4 MiB
        list(terms._infix_rows(3))
        tracemalloc.start()
        try:
            for _ in terms._infix_rows(11):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 2**20

    def test_rows_do_not_depend_on_the_chunk_size(self, monkeypatch):
        want = [terms._infix(w) for w in terms._texts(terms._level(7, 2))]
        monkeypatch.setattr(terms, "_CHUNK_CELLS", 64)
        chunks = [rows for _, rows in terms._infix_rows(7)]
        assert terms._texts(np.concatenate(chunks)) == want
        assert max(rows.size for rows in chunks) <= 64

    def test_first_child_levels_follow_the_canonical_order(self):
        for (ranks, levels), order in zip(joined_children(8, 2), terms._orders(2)):
            runs = np.flatnonzero(ranks[:, 1] == 0)  # a run starts at its first right child
            assert np.array_equal(order, levels[runs, 0])


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
        # built with node, so every subtree's word is made; one word kept per
        # subtree, or one child tuple per level of a walk, would hold about
        # 10**8 characters
        tracemalloc.start()
        try:
            t = a.leaf(2)
            for _ in range(10000):
                t = a.node(t, a.leaf(2)) if side == "left" else a.node(a.leaf(2), t)
            for fmt in ("prefix", "infix"):
                assert a.parse_bracketing(a.render_bracketing(t, fmt), 2, fmt) is t
            dl, dr = a.left_right_depth(t)
            assert (dl, dr) == ((10000, 1) if side == "left" else (1, 10000))
            s = t  # a walk down the right spine cuts one child word a level, and keeps none
            for _ in range(dr):
                s = s.children[-1]
            assert s.is_leaf
            assert a.beta(t, 1).occ == a.beta(t, t.length).occ == 10001
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
        with pytest.raises(ValueError, match="unknown format"):
            a.parse_bracketing("x", 2, "postfix")


class TestNodeLeaf:
    def test_interning(self):
        assert a.node(a.leaf(2), a.leaf(2)) is a.node(a.leaf(2), a.leaf(2))

    @given(st.data())
    def test_children_are_the_joined_trees(self, data):
        p = data.draw(st.integers(2, 4))
        kids = [data.draw(bracketings(max_occ=5, arities=(p,))) for _ in range(p)]
        got = a.node(*kids).children
        assert len(got) == p and all(c is k for c, k in zip(got, kids))

    def test_children_of_a_wide_node_are_its_leaves(self):
        kids = [a.leaf(2000)] * 2000
        got = a.node(*kids).children
        assert len(got) == 2000 and all(c is k for c, k in zip(got, kids))

    def test_child_arity_checked(self):
        with pytest.raises(ValueError):
            a.node(a.leaf(3), a.leaf(3))  # two children but ternary pieces
        with pytest.raises(ValueError):
            a.node(a.leaf(2))
        with pytest.raises(TypeError, match="children must be bracketings"):
            a.node(a.leaf(2), "x")

    def test_leaf_has_no_children(self):
        assert a.leaf(2).children == ()

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

    def test_equality_hash_and_repr(self):
        t = a.parse_bracketing("wxx", 2)
        lb = a.enumerate_leaves(t, 3)
        assert lb == a.enumerate_leaves(t, 3) and lb != a.enumerate_leaves(t, 4)
        assert lb != t and lb != "wx3x4"  # another type compares unequal
        assert hash(lb) == hash(a.enumerate_leaves(t, 3))
        assert repr(lb) == "LabeledBracketing(p=2, 'wx3x4')"

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


def test_no_function_body_imports():
    # terms owns the counts it uses, so no module defers an import to break a cycle
    modules = sorted(pathlib.Path(a.__file__).parent.glob("*.py"))
    assert len(modules) >= 8
    for path in modules:
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [n for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not inner, f"{path.name}:{inner[0].lineno} imports inside {fn.name}"
    assert a.catalan is terms.catalan
    assert a.count_m is insertion.count_m is terms.count_m

import itertools
import math
import random
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import assocspectra as a
from assocspectra import (
    Bracketing,
    CapExceededError,
    ParseError,
    Partition,
    SpectrumPrefix,
    insertion,
    leaf,
    node,
    spectra,
    terms,
)


def words_of(trees):
    """The word array of ``trees``, one row each."""
    text = "".join(a.render_bracketing(t) for t in trees).encode("ascii")
    return np.frombuffer(text, np.uint8).reshape(len(trees), -1)


def delta_by_trees(pi):
    """Independent push-up oracle: tree-level operators plus a dict union-find."""
    n, p = pi.level, pi.arity
    src = a.enumerate_bracketings(n, p)
    dst = a.enumerate_bracketings(n + 1, p)
    rank = {t: i for i, t in enumerate(dst)}
    parent = list(range(len(dst)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ops = [lambda t, i=i: a.gamma(t, i) for i in range(1, p + 1)]
    ops += [lambda t, i=i: a.beta(t, i) for i in range(1, (p - 1) * n + 2)]
    for op in ops:
        anchor = {}
        for r, t in enumerate(src):
            ir = rank[op(t)]
            c = pi.class_of[r]
            if c in anchor:
                ra, rb = find(anchor[c]), find(ir)
                if ra != rb:
                    parent[rb] = ra
            else:
                anchor[c] = ir
    return Partition(n + 1, p, [find(r) for r in range(len(dst))])


def delta_by_words(pi):
    """Independent push-up oracle: image words ranked by a dict over the level above."""
    n, p = pi.level, pi.arity
    words = [a.render_bracketing(t) for t in a.enumerate_bracketings(n, p)]
    rank = {a.render_bracketing(t): r for r, t in enumerate(a.enumerate_bracketings(n + 1, p))}
    parent = list(range(len(rank)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    xs = "x" * (p - 1)
    grow = "w" + xs
    anchor = {}  # image ranks of each class's first member
    for w, c in zip(words, pi.class_of):
        images = [rank["w" + xs[:i] + w + xs[i:]] for i in range(p)]
        images += [rank[w[:j] + grow + w[j:]] for j, ch in enumerate(w) if ch == "x"]
        first = anchor.setdefault(c, images)
        for x, y in zip(first, images):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[ry] = rx
    return Partition(n + 1, p, [find(r) for r in range(len(rank))])


def random_partition(level, arity, rng):
    size = a.catalan(level, arity)
    return Partition(level, arity, [rng.randrange(max(1, size // 2)) for _ in range(size)])


class TestPartition:
    def test_totality_enforced(self):
        with pytest.raises(ValueError):
            Partition(3, 2, [0, 0, 0])  # level 3 has five bracketings

    def test_label_count_checked_before_the_exact_count(self):
        start = time.perf_counter()
        with pytest.raises(ValueError) as exc:
            Partition(100000, 2, [0])
        assert time.perf_counter() - start < 0.5
        assert type(exc.value) is ValueError
        assert "at least 2**99999 bracketings" in str(exc.value)

    def test_normalization(self):
        pi = Partition(2, 2, ["b", "a"])
        assert pi.class_of == (0, 1) and pi.num_classes == 2
        assert pi == Partition(2, 2, [7, 3])

    def test_equality_and_full(self):
        assert Partition.equality(3, 2).num_classes == 5
        assert Partition.full(3, 2).num_classes == 1
        assert Partition.equality(0, 2) == Partition.full(0, 2)

    def test_classes(self):
        pi = Partition(3, 2, [0, 1, 0, 1, 2])
        assert pi.classes() == ((0, 2), (1, 3), (4,))

    def test_refines(self):
        fine = Partition.equality(3, 2)
        coarse = Partition.full(3, 2)
        assert fine.refines(coarse)
        assert not coarse.refines(fine)
        assert fine.refines(fine)

    def test_level_mismatch(self):
        with pytest.raises(ValueError):
            Partition.full(2, 2).refines(Partition.full(3, 2))

    @pytest.mark.parametrize("cap", [-1, 1.5])
    def test_cap_must_be_a_nonnegative_int(self, cap):
        with pytest.raises(ValueError, match="cap"):
            Partition.full(3, 2, max_count=cap)


# the operators as walks over children, oracles of the word edits gamma and beta

def tree_gamma(t: Bracketing, i: int, p: int | None = None) -> Bracketing:
    """Wrap ``t`` as the i-th child of a fresh operation symbol, leaves elsewhere."""
    if p is None:
        p = t.arity
    elif p != t.arity:
        raise ValueError(f"arity mismatch: bracketing has arity {t.arity}, requested {p}")
    if not 1 <= i <= p:
        raise ValueError(f"child position {i} out of range 1..{p}")
    kids = [leaf(p)] * p
    kids[i - 1] = t
    return node(*kids)


def tree_beta(t: Bracketing, i: int) -> Bracketing:
    """Replace the i-th variable of ``t`` (left to right) by a fresh operation on leaves."""
    if not 1 <= i <= t.length:
        raise ValueError(f"variable position {i} out of range 1..{t.length}")
    path: list[tuple[Bracketing, int]] = []  # each node above the variable, and the child taken
    s = t
    while not s.is_leaf:
        for idx, c in enumerate(s.children):
            if i <= c.length:
                break
            i -= c.length
        else:
            raise AssertionError("variable position fell off the children")
        path.append((s, idx))
        s = c
    out = node(*(leaf(t.arity),) * t.arity)
    for s, idx in reversed(path):
        out = node(*s.children[:idx], out, *s.children[idx + 1:])
    return out


@st.composite
def trees_grown_by_the_oracle(draw):
    p = draw(st.integers(2, 4))
    t = leaf(p)
    for _ in range(draw(st.integers(0, 6))):
        t = tree_beta(t, draw(st.integers(1, t.length)))
    return t


class TestGammaBeta:
    @given(trees_grown_by_the_oracle())
    def test_word_edits_match_the_tree_walks(self, t):
        for i in range(1, t.length + 1):
            assert a.beta(t, i) is tree_beta(t, i)
        for i in range(1, t.arity + 1):
            assert a.gamma(t, i) is tree_gamma(t, i)

    def test_gamma_examples(self):
        xx = a.parse_bracketing("wxx", 2)
        assert a.gamma(xx, 1) is a.parse_bracketing("wwxxx", 2)
        assert a.gamma(a.leaf(2), 2) is xx
        with pytest.raises(ValueError):
            a.gamma(xx, 2, p=3)  # binary bracketing cannot feed a ternary wrap

    def test_gamma_position_checked(self):
        with pytest.raises(ValueError):
            a.gamma(a.leaf(2), 3)
        assert a.render_bracketing(a.gamma(a.leaf(3), 2)) == "wxxx"

    def test_beta_examples(self):
        xx = a.parse_bracketing("wxx", 2)
        assert a.beta(xx, 1) is a.parse_bracketing("wwxxx", 2)
        assert a.beta(a.leaf(2), 1) is xx
        got = a.beta(a.parse_bracketing("(x(xx))", 2, "infix"), 1)
        assert got is a.parse_bracketing("((xx)(xx))", 2, "infix")

    def test_beta_matches_manual_substitution(self):
        # replacing the second variable of (x((xx)x)) grows (xx) in its place
        t = a.parse_bracketing("(x((xx)x))", 2, "infix")
        got = a.beta(t, 2)
        assert a.render_bracketing(got, "infix") == "(x(((xx)x)x))"

    def test_beta_position_checked(self):
        with pytest.raises(ValueError):
            a.beta(a.leaf(2), 2)
        with pytest.raises(ValueError):
            a.beta(a.leaf(2), 0)

    def test_operators_raise_occurrence(self):
        for n in range(4):
            for t in a.enumerate_bracketings(n, 3):
                assert a.gamma(t, 1).occ == n + 1
                assert a.beta(t, t.length).occ == n + 1

    @pytest.mark.parametrize("p", [2, 3])
    def test_beta_deep_left_associated(self, p):
        t = a.left_associated(3000, p)
        assert a.to_tuple(a.beta(t, 1)) == a.beta_update(a.to_tuple(t), 1, p)


class TestDelta:
    def test_full_stays_full(self):
        assert a.delta(Partition.full(2, 2)) == Partition.full(3, 2)

    def test_equality_stays_equality(self):
        for n in range(5):
            assert a.delta(Partition.equality(n, 2)) == Partition.equality(n + 1, 2)

    def test_matches_tree_oracle_on_named_partitions(self):
        cases = [
            Partition.full(2, 2),
            Partition.full(3, 2),
            a.tau(4),
            a.tau(5),
            a.left_factor_sigma(3, 1),
            a.dldr_sigma(4),
            Partition.full(2, 3),
            a.tail_tuple_sigma(3, 1, 3),
        ]
        for pi in cases:
            assert a.delta(pi) == delta_by_trees(pi)

    def test_matches_tree_oracle_on_random_partitions(self):
        rng = random.Random(7)
        for _ in range(20):
            pi = random_partition(rng.randrange(1, 5), 2, rng)
            assert a.delta(pi) == delta_by_trees(pi)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_tree_oracle_property(self, data):
        # the word-and-dict oracle is checked on the same draws
        p = data.draw(st.sampled_from([2, 3, 4, 5]))
        level = data.draw(st.integers(0, {2: 5, 3: 4, 4: 3, 5: 2}[p]))
        size = a.catalan(level, p)
        k = data.draw(st.integers(1, size))
        pi = Partition(level, p, data.draw(
            st.lists(st.integers(0, k - 1), min_size=size, max_size=size)))
        pushed = a.delta(pi)
        assert pushed == delta_by_trees(pi)
        assert pushed == delta_by_words(pi)

    @pytest.mark.parametrize("p,top", [(2, 9), (3, 6), (4, 4), (5, 4)])
    def test_arithmetic_rank_is_the_canonical_index(self, p, top):
        # the level-n words ranked with the table that pushes level n up
        for n in range(top + 1):
            table = terms._completions(n, p)
            words = words_of(a.enumerate_bracketings(n, p))
            _, index = terms._word_index(words, n, table.shape[1])
            ranks = np.take(table.ravel(), index).sum(axis=1)
            assert ranks.tolist() == list(range(len(words)))

    @pytest.mark.parametrize("p,n", [(2, 0), (2, 9), (3, 6), (5, 4)])
    def test_images_are_ranked_like_their_words(self, p, n):
        words = [a.render_bracketing(t) for t in a.enumerate_bracketings(n, p)]
        rank = {a.render_bracketing(t): r for r, t in enumerate(a.enumerate_bracketings(n + 1, p))}
        xs = "x" * (p - 1)
        want = [[rank["w" + xs[:i] + w + xs[i:]] for i in range(p)]
                + [rank[w[:j] + "w" + xs + w[j:]] for j, ch in enumerate(w) if ch == "x"]
                for w in words]
        rows = words_of(a.enumerate_bracketings(n, p))
        assert spectra._images(rows, n, p).tolist() == want
        # the rows need not run in rank order
        assert spectra._images(rows[::-1], n, p).tolist() == want[::-1]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_images_of_any_rows_rank_their_word_edits(self, data):
        # rows in any number and order, as the walker's forced unions pass them
        p = data.draw(st.integers(2, 5))
        n = data.draw(st.integers(0, {2: 9, 3: 6, 4: 5, 5: 4}[p]))
        ranks = data.draw(st.lists(st.integers(0, a.catalan(n, p) - 1), min_size=1, max_size=20))
        rows = terms._unrank(np.array(ranks), n, p)
        xs = "x" * (p - 1)
        edits = "".join("w" + xs[:i] + w + xs[i:] for w in terms._texts(rows) for i in range(p))
        gammas = np.frombuffer(edits.encode(), np.uint8).reshape(-1, p * n + p + 1)
        edits = "".join(w[:j] + "w" + xs + w[j:]
                        for w in terms._texts(rows) for j, ch in enumerate(w) if ch == "x")
        betas = np.frombuffer(edits.encode(), np.uint8).reshape(-1, p * n + p + 1)
        images = spectra._images(rows, n, p)
        assert images[:, :p].ravel().tolist() == terms._rank(gammas, n + 1, p).tolist()
        assert images[:, p:].ravel().tolist() == terms._rank(betas, n + 1, p).tolist()

    @pytest.mark.parametrize("p,n", [(2, 11), (3, 6), (4, 4), (6, 3)])
    def test_completion_table_matches_count_m(self, p, n):
        # brute oracle for the count_m entries: a {w, x} word with m operation
        # symbols completes a forest needing d >= 1 trees when its need,
        # starting at d, first reaches 0 at its end; it sits in column m + 1
        table = terms._completions(n, p)
        size = a.catalan(n + 1, p)
        assert table.dtype == np.int32
        rows, cols = table.shape
        assert (rows, cols) == (p * n + p + 1, n + 4)
        for r in range(min(rows, 13)):
            want = [0] * cols
            for word in itertools.product((p - 1, -1), repeat=r):
                sums = list(itertools.accumulate(word, initial=0))
                m = word.count(p - 1)
                if r and m + 1 < cols and min(sums[:-1], default=1) > sums[-1]:
                    want[m + 1] += 1
            assert table[r].tolist() == [min(w, size) for w in want], r
            assert table[r, [0, -2, -1]].tolist() == [0, 0, 0]
        for r in range(rows):
            for m in range(n + 1):
                d = r - p * m
                want = a.count_m(m, d, p) if d >= 1 else 0
                assert table[r, m + 1] == min(want, size), (r, m)

    def test_rank_dtype_widens_past_int32(self):
        # level 20 of arity 2 has 6.6e9 bracketings; its ballot table is small
        table = terms._completions(19, 2)
        assert table.dtype == np.int64
        assert table.max() == a.catalan(20, 2)

    def test_peak_memory(self):
        # a route that materialises whole-level (C, L) int64 temporaries, or a
        # rank dict over level n+1, peaks above this bound
        pi = a.left_factor_sigma(10, 2)
        a.delta(pi)  # caches the levels and the ballot table
        tracemalloc.start()
        try:
            a.delta(pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 2**20

    def test_wide_arity_pushes_up(self):
        # a ballot table indexed by pending trees held (p + 1) * (2p + 1) cells here
        start = time.perf_counter()
        assert a.delta(Partition.full(0, 10**5)) == Partition.full(1, 10**5)
        assert time.perf_counter() - start < 1

    def test_total_output(self):
        for n in range(5):
            out = a.delta(a.tau(n))
            assert out.size == a.catalan(n + 1, 2)

    def test_tau_gap_at_five(self):
        pushed = a.delta(a.tau(4))
        assert pushed == Partition.equality(5, 2)
        assert pushed.refines(a.tau(5))
        assert pushed != a.tau(5)

    @settings(max_examples=40)
    @given(st.data())
    def test_monotone(self, data):
        level = data.draw(st.integers(1, 4))
        size = a.catalan(level, 2)
        fine_labels = data.draw(
            st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
        merge = {c: data.draw(st.integers(0, 2)) for c in set(fine_labels)}
        fine = Partition(level, 2, fine_labels)
        coarse = Partition(level, 2, [merge[c] for c in fine_labels])
        assert a.delta(fine).refines(a.delta(coarse))


class TestVerifyClosed:
    def test_left_factor_prefixes_closed(self):
        for k in (1, 2, 3):
            sigma = a.build_prefix(lambda n, k=k: a.left_factor_sigma(n, k), 6)
            assert a.verify_closed(sigma).closed

    def test_coatom_prefix_closed(self):
        sigma = SpectrumPrefix(
            [Partition.full(0, 2), Partition.full(1, 2), Partition.equality(2, 2),
             Partition.full(3, 2), Partition.full(4, 2)])
        assert a.verify_closed(sigma).closed

    def test_equality_after_full_violates(self):
        parts = [Partition.full(n, 2) for n in range(5)] + [Partition.equality(5, 2)]
        report = a.verify_closed(SpectrumPrefix(parts))
        assert not report.closed and report.level == 4
        s, t = report.witness
        assert s != t and len(s) == len(t) == 5

    def test_full_island_violates_at_its_level(self):
        parts = [Partition.equality(n, 2) for n in range(7)]
        parts[5] = Partition.full(5, 2)
        report = a.verify_closed(SpectrumPrefix(parts))
        assert not report.closed and report.level == 5

    def test_witness_pair_is_really_required(self):
        parts = [Partition.full(n, 2) for n in range(5)] + [Partition.equality(5, 2)]
        report = a.verify_closed(SpectrumPrefix(parts))
        s, t = report.witness
        pushed = a.delta(Partition.full(4, 2))
        rank = {a.to_tuple(u): r for r, u in enumerate(a.enumerate_bracketings(5, 2))}
        assert pushed.class_of[rank[s]] == pushed.class_of[rank[t]]


class TestMeet:
    def test_identity_and_absorbing(self):
        for x in (a.tau(5), a.left_factor_sigma(5, 2), a.dldr_sigma(5)):
            assert a.partition_meet(Partition.full(5, 2), x) == x
            assert a.partition_meet(Partition.equality(5, 2), x) == Partition.equality(5, 2)

    def test_left_meets_right_factor(self):
        trees = a.enumerate_bracketings(3, 2)

        def right_lengths(t, k):
            out = []
            s = t
            for _ in range(k):
                if not s.is_leaf:
                    s = s.children[-1]
                out.append(s.length)
            return tuple(out)

        # single factor lengths leave the two outer combs paired up
        right1 = Partition(3, 2, [right_lengths(t, 1) for t in trees])
        met1 = a.partition_meet(a.left_factor_sigma(3, 1), right1)
        brute = Partition(
            3, 2, [(a.left_lengths(t, 1), right_lengths(t, 1)) for t in trees])
        assert met1 == brute
        assert met1.num_classes == 3
        # two iterated factors on both sides separate the whole level
        right2 = Partition(3, 2, [right_lengths(t, 2) for t in trees])
        met2 = a.partition_meet(a.left_factor_sigma(3, 2), right2)
        assert met2 == Partition.equality(3, 2)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            a.partition_meet(Partition.full(2, 2), Partition.full(2, 3))


class TestCovers:
    def _top(self, horizon, p=2):
        return SpectrumPrefix([Partition.full(n, p) for n in range(horizon + 1)])

    def _coatom(self, horizon):
        parts = [Partition.full(n, 2) for n in range(horizon + 1)]
        parts[2] = Partition.equality(2, 2)
        return SpectrumPrefix(parts)

    def test_coatom_is_covered_by_top(self):
        assert a.covers(self._coatom(4), self._top(4)) is True

    def test_no_difference_no_cover(self):
        top = self._top(4)
        assert a.covers(top, top) is False

    def test_two_level_difference_no_cover(self):
        lower = a.build_prefix(lambda n: a.left_factor_sigma(n, 1), 4)
        assert a.covers(lower, self._top(4)) is False

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            a.covers(self._coatom(4), self._top(5))
        # not levelwise finer: coatom vs a prefix that is equality at level 3
        other = SpectrumPrefix(
            [Partition.full(0, 2), Partition.full(1, 2), Partition.full(2, 2),
             Partition.equality(3, 2), Partition.full(4, 2)])
        with pytest.raises(ValueError):
            a.covers(self._coatom(4), other)
        with pytest.raises(ValueError, match="arity mismatch"):
            a.covers(self._top(4), self._top(4, p=3))
        with pytest.raises(ValueError, match="does not refine the upper one at level 2"):
            a.covers(self._top(4), self._coatom(4))


class TestTau:
    def test_small_levels_are_equality(self):
        assert a.tau(1) == Partition.equality(1, 2)
        assert a.tau(4) == Partition.equality(4, 2)
        assert a.tau(4).num_classes == 14

    def test_level_five(self):
        pi = a.tau(5)
        assert pi.num_classes == 41
        big = [ranks for ranks in pi.classes() if len(ranks) > 1]
        assert len(big) == 1
        trees = a.enumerate_bracketings(5, 2)
        members = {a.render_bracketing(trees[r], "infix") for r in big[0]}
        assert members == {"((xx)((xx)(xx)))", "(((xx)(xx))(xx))"}

    def test_word_oracle(self):
        for n in range(7):
            trees = a.enumerate_bracketings(n, 2)
            labels = [
                -1 if a.render_bracketing(t).count("wxx") >= 3 else r
                for r, t in enumerate(trees)]
            assert a.tau(n) == Partition(n, 2, labels)

    def test_threshold_parameter(self):
        lowered = a.tau(2, min_eggs=1)
        assert lowered == Partition.full(2, 2)

    def test_prefix_closed(self):
        assert a.verify_closed(a.build_prefix(a.tau, 6)).closed

    def test_gap_with_witness_singleton(self):
        for n in (5, 6):
            witness = a.parse_bracketing(
                "(" * (n - 4) + "((xx)(xx))" + "x)" * (n - 5) + "(xx))", 2, "infix")
            assert witness.occ == n and a.egg_pairs(witness) == 3
            pushed = a.delta(a.tau(n - 1))
            assert pushed.refines(a.tau(n))
            assert pushed != a.tau(n)
            rank = a.enumerate_bracketings(n, 2).index(witness)
            assert pushed.classes()[pushed.class_of[rank]] == (rank,)
            assert len(a.tau(n).classes()[a.tau(n).class_of[rank]]) > 1


class TestSigmaA:
    def test_all_zero(self):
        sigma = a.sigma_a("000000")
        assert sigma.horizon == 5
        assert all(sigma[n] == Partition.equality(n, 2) for n in range(6))

    def test_single_one(self):
        sigma = a.sigma_a("0000010")
        assert sigma[5] == a.tau(5)
        assert sigma[6] == a.delta(a.tau(5))

    def test_closed_for_all_short_strings(self):
        for bits in ("00000", "000001", "0000010", "00000110", "00000101"):
            assert a.verify_closed(a.sigma_a(bits)).closed

    def test_divergence_at_first_difference(self):
        lo = a.sigma_a("0000000")
        hi = a.sigma_a("0000010")
        assert lo[5].refines(hi[5])
        assert lo[5].num_classes > hi[5].num_classes

    def test_refines_tau_levelwise(self):
        for bits in ("0000011", "00000101"):
            sigma = a.sigma_a(bits)
            for n in range(sigma.horizon + 1):
                assert sigma[n].refines(a.tau(n))

    @pytest.mark.parametrize("bad", ["0000", "10000", "00001", "00000a"])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            a.sigma_a(bad)

    def test_cap_applies_to_pushed_levels(self):
        # levels reached by delta alone are capped too: level 4 holds 14
        with pytest.raises(CapExceededError) as exc:
            a.sigma_a("0" * 10, max_count=10)
        assert exc.value.level == 4 and exc.value.required == 14


class TestLeftFactorSigma:
    def test_examples(self):
        assert a.left_factor_sigma(3, 1).num_classes == 3
        assert a.left_factor_sigma(1, 2).num_classes == 1
        assert a.left_factor_sigma(4, 2).num_classes == 7

    def test_count_formula(self):
        for k in (1, 2, 3):
            for n in range(1, 9):
                want = sum(math.comb(n - 1, i) for i in range(k + 1))
                assert a.left_factor_sigma(n, k).num_classes == want

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="at least one left factor"):
            a.left_factor_sigma(3, 0)

    def test_huge_k_reads_only_the_lengths_that_differ(self):
        # the entries past n + 1 are 1 on every tree, so they separate nothing
        for n in range(9):
            trees = a.enumerate_bracketings(n, 2)
            wide = Partition(n, 2, [a.left_lengths(t, n + 3) for t in trees])
            assert a.left_factor_sigma(n, 10**9) == a.left_factor_sigma(n, n + 1) == wide


class TestTailTupleSigma:
    def test_examples(self):
        assert a.tail_tuple_sigma(4, 1, 2).num_classes == 4
        assert a.tail_tuple_sigma(2, 5, 2) == Partition.equality(2, 2)
        # brute force: the last-two slices of the five level-3 tuples are distinct
        slices = {u[1:] for u in a.enumerate_m(3, 1, 2)}
        assert a.tail_tuple_sigma(3, 2, 2).num_classes == len(slices) == 5

    def test_count_formula(self):
        for p in (2, 3):
            for k in (1, 2, 3):
                for n in range(9):
                    got = a.tail_tuple_sigma(n, k, p).num_classes
                    if n < k:
                        assert got == a.catalan(n, p)
                    else:
                        num = ((p - 1) * (n - k) + 1) * math.comb((p - 1) * n + k, k)
                        den = (p - 1) * n + 1
                        assert num % den == 0
                        assert got == num // den

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="at least one tail entry"):
            a.tail_tuple_sigma(3, 0, 2)

    def test_tail_slices_equal_relaxed_family(self):
        # the last k entries of level tuples sweep M(k, (p-1)(n-k)+1, p) shifted nowhere
        n, k, p = 5, 2, 2
        slices = {u[n - k:] for u in a.enumerate_m(n, 1, p)}
        assert slices == set(a.enumerate_m(k, (p - 1) * (n - k) + 1, p))


class TestDldrSigma:
    def test_level_three(self):
        pi = a.dldr_sigma(3)
        assert pi.num_classes == 5
        trees = a.enumerate_bracketings(3, 2)
        keys = {a.left_right_depth(t) for t in trees}
        assert keys == {(3, 1), (2, 1), (2, 2), (1, 2), (1, 3)}

    def test_small_levels(self):
        assert a.dldr_sigma(0).num_classes == 1
        assert a.dldr_sigma(1).num_classes == 1
        assert a.dldr_sigma(2).num_classes == 2

    def test_count_formula(self):
        for n in range(2, 11):
            assert a.dldr_sigma(n).num_classes == (n * n + n - 2) // 2

    def test_matches_tree_depths(self):
        # oracle on insertion tuples: entries equal to 1 give the left depth,
        # entries at their upper bound the right depth
        for n in range(8):
            key = [(u.count(1), sum(e == q for q, e in enumerate(u, start=1)))
                   for u in map(a.to_tuple, a.enumerate_bracketings(n, 2))]
            assert a.dldr_sigma(n) == Partition(n, 2, key)

    def test_prefix_closed(self):
        assert a.verify_closed(a.build_prefix(a.dldr_sigma, 6)).closed


class TestArrayStatistics:
    """Each named statistic of the word array against the public tree function it replaces."""

    @pytest.mark.parametrize("min_eggs", [1, 2, 3])
    def test_tau_counts_egg_pairs(self, min_eggs):
        for n in range(9):
            trees = a.enumerate_bracketings(n, 2)
            want = [-1 if a.egg_pairs(t) >= min_eggs else r for r, t in enumerate(trees)]
            assert a.tau(n, min_eggs=min_eggs) == Partition(n, 2, want)

    def test_dldr_reads_the_tree_depths(self):
        for n in range(9):
            trees = a.enumerate_bracketings(n, 2)
            assert a.dldr_sigma(n) == Partition(n, 2, map(a.left_right_depth, trees))

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_left_factors_read_the_left_lengths(self, k):
        for n in range(9):
            trees = a.enumerate_bracketings(n, 2)
            want = [a.left_lengths(t, min(k, n + 1)) for t in trees]
            assert a.left_factor_sigma(n, k) == Partition(n, 2, want)

    @pytest.mark.parametrize("p,top", [(2, 9), (3, 6), (4, 5)])
    def test_tuple_columns_are_the_insertion_tuples(self, p, top):
        for n in range(top + 1):
            trees = a.enumerate_bracketings(n, p)
            tuples = [a.to_tuple(t) for t in trees]
            columns = insertion._tuple_columns(terms._level(n, p), n)
            assert list(map(tuple, columns.tolist())) == tuples
            assert np.array_equal(insertion._tuple_words(tuples, n, p), terms._level(n, p))
            for k in (1, 2):
                want = Partition(n, p, [u[max(n - k, 0):] for u in tuples])
                assert a.tail_tuple_sigma(n, k, p) == want


class TestCoatomCensus:
    @pytest.mark.parametrize("p,want", [(2, 1), (3, 3), (4, 7)])
    def test_counts(self, p, want):
        assert a.coatom_census(p) == want

    def test_arity_range(self):
        with pytest.raises(ValueError):
            a.coatom_census(7)


class TestCongruenceBound:
    def test_class_counts_bounded_by_composition_sum(self):
        def bound(counts, p):
            total = 0
            n = len(counts)

            def rec(parts_left, remaining, acc):
                nonlocal total
                if parts_left == 1:
                    total += acc * counts[remaining]
                    return
                for i in range(remaining + 1):
                    rec(parts_left - 1, remaining - i, acc * counts[i])

            rec(p, n - 1, 1)
            return total

        for sigma in (a.build_prefix(lambda n: a.left_factor_sigma(n, 2), 6),
                      a.build_prefix(a.tau, 6),
                      a.build_prefix(a.dldr_sigma, 6)):
            counts = [pi.num_classes for pi in sigma.partitions]
            for n in range(1, len(counts)):
                assert counts[n] <= bound(counts[:n], 2)


class TestTextFormats:
    def test_partition_block(self):
        pi = Partition(2, 2, [0, 1])
        assert a.format_partition(pi) == (
            "level=2 p=2 classes=2\nclass 0: (1,1)\nclass 1: (1,2)")

    def test_roundtrip(self):
        for pi in (a.tau(5), a.left_factor_sigma(4, 2), Partition.full(3, 2),
                   a.tail_tuple_sigma(3, 1, 3)):
            assert a.parse_partition(a.format_partition(pi)) == pi

    def test_prefix_roundtrip(self):
        sigma = a.build_prefix(lambda n: a.left_factor_sigma(n, 1), 4)
        text = a.format_spectrum_prefix(sigma)
        assert a.parse_spectrum_prefix(text) == sigma

    @pytest.mark.parametrize("bad", [
        "",
        "level=x p=2 classes=1",
        "level=2 p=2 classes=2\nclass 0: (1,1)",
        "level=2 p=2 classes=1\nclass 0: (1,1)",
        "level=2 p=2 classes=2\nclass 0: (1,1)\nclass 2: (1,2)",
        "level=2 p=2 classes=2\nclass 0: (1,1) (1,1)\nclass 1: (1,2)",
        "level=2 p=2 classes=2\nclass 0: (1,1)\nclass 1: (9,9)",
        "level=2 p=1 classes=1\nclass 0: (1,1)",
        "level=2 p=2 classes=2\nklass 0: (1,1)\nclass 1: (1,2)",
        "level=2 p=2 classes=2\nclass 0:\nclass 1: (1,1) (1,2)",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            a.parse_partition(bad)

    @pytest.mark.parametrize("members, message", [
        ("(1,1) (1,1)\nclass 1: (9,9)", "(1,1) is classified twice"),
        ("(9,9) (1,1)\nclass 1: (1,1)", "(9,9) is not a level-2 insertion tuple"),
        ("(1) (1,1)\nclass 1: (1,1)", "(1) is not a level-2 insertion tuple"),
        ("(1,2) (1,x)\nclass 1: (1,2)", "tuple entries must be integers"),
        ("(1,2)\nclass 1: (1,2)", "(1,2) is classified twice"),
        ("(1,2)\nclass 2: (1,1)", "class ids must count up from 0, got 2"),
    ])
    def test_the_first_fault_in_reading_order_is_reported(self, members, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            a.parse_partition(f"level=2 p=2 classes=2\nclass 0: {members}")

    def test_parsing_ranks_members_without_building_the_level(self):
        pi = a.left_factor_sigma(9, 2)
        text = a.format_partition(pi)
        terms._level.cache_clear()
        assert a.parse_partition(text) == pi
        assert terms._level.cache_info().currsize == 0

    @pytest.mark.parametrize("level", [40, 200000])
    def test_huge_header_refused_before_the_level_is_built(self, level):
        with pytest.raises(CapExceededError):
            a.parse_partition(f"level={level} p=2 classes=1\nclass 0: (1)")

    def test_prefix_needs_blocks(self):
        with pytest.raises(ParseError):
            a.parse_spectrum_prefix("  \n ")


def parse_partition_by_pieces(text):
    """The per-piece reader that ``parse_partition`` replaced: the oracle of its answers."""
    lines = text.strip().splitlines()
    if not lines:
        raise ParseError("empty partition block")
    m = spectra._HEADER_RE.match(lines[0].strip())
    if not m:
        raise ParseError(f"bad partition header: {lines[0]!r}")
    level, p, n_classes = (int(g) for g in m.groups())
    if p < 2:
        raise ParseError(f"arity in header must be at least 2, got {p}")
    count = terms._level_size(level, p, None)
    if len(lines) - 1 != n_classes:
        raise ParseError(f"header announces {n_classes} classes, found {len(lines) - 1} lines")
    pieces, tuples, cids, fault = [], [], [], None
    try:
        for expected_id, line in enumerate(lines[1:]):
            m = spectra._CLASS_RE.match(line.strip())
            if not m:
                raise ParseError(f"bad class line: {line!r}")
            cid = int(m.group(1))
            if cid != expected_id:
                raise ParseError(f"class ids must count up from 0, got {cid}")
            members = m.group(2).split()
            if not members:
                raise ParseError(f"class {cid} has no members")
            for piece in members:
                u = a.parse_tuple(piece)
                try:
                    if len(u) != level:
                        raise ValueError
                    insertion._check_member(u, p, 1)
                except ValueError:
                    raise ParseError(f"{piece} is not a level-{level} insertion tuple") from None
                pieces.append(piece)
                tuples.append(u)
                cids.append(cid)
    except ParseError as exc:
        fault = exc
    rank = {u: r for r, u in enumerate(a.enumerate_m(level, 1, p))}
    seen = set()
    for piece, u in zip(pieces, tuples):
        if rank[u] in seen:
            raise ParseError(f"{piece} is classified twice")
        seen.add(rank[u])
    if fault is not None:
        raise fault
    if len(seen) != count:
        raise ParseError(f"{count - len(seen)} bracketings left unclassified at level {level}")
    labels = [None] * count
    for u, cid in zip(tuples, cids):
        labels[rank[u]] = cid
    return Partition(level, p, labels)


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


@st.composite
def blocks_with_faults(draw):
    """A valid partition block with one or two faults, each planted in a member or class line."""
    p = draw(st.sampled_from([2, 3]))
    level = draw(st.integers(0, 5 if p == 2 else 3))
    size = a.catalan(level, p)
    labels = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    lines = a.format_partition(Partition(level, p, labels)).split("\n")
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(1, len(lines) - 1))
        head, _, body = lines[k].partition(": ")
        pieces = body.split(" ")
        j = draw(st.integers(0, len(pieces) - 1))
        entries = pieces[j][1:-1].split(",") if level else []
        i = draw(st.integers(0, max(level - 1, 0)))
        kind = draw(st.sampled_from(["char", "length", "decrease", "bound", "duplicate", "int",
                                     "class id"]))
        if len(entries) != level or not all(e.isdigit() for e in entries):
            kind = "char"  # a piece that an earlier fault changed
        if kind == "char":
            at = draw(st.integers(0, len(pieces[j])))
            char = draw(st.sampled_from(list("a!é\u0663\t-+_ (),0") + ["\u2003", "\x1c"]))
            pieces[j] = pieces[j][:at] + char + pieces[j][at:]
        elif kind == "length":
            entries = entries[:-1] if entries and draw(st.booleans()) else entries + ["1"]
        elif kind == "decrease" and level >= 2:
            entries[max(i, 1)] = str(int(entries[max(i, 1) - 1]) - 1)
        elif kind == "bound" and level:
            entries[i] = draw(st.sampled_from(["0", str((p - 1) * i + 2), "1" * 19, "1" * 25]))
        elif kind == "duplicate":
            pieces[j] = draw(st.sampled_from(" ".join(lines[1:]).replace(":", " ").split()))
        elif kind == "int" and level:
            e = entries[i]
            entries[i] = draw(st.sampled_from(["+" + e, "0" + e, "1_0", e[0] + "_" + e[1:] or e]))
        elif kind == "class id":
            head = f"class {draw(st.integers(0, 9))}"
        if kind in ("length", "decrease", "bound", "int"):
            pieces[j] = "(" + ",".join(entries) + ")"
        lines[k] = f"{head}: {' '.join(pieces)}"
    return "\n".join(lines)


class TestArrayParsing:
    @settings(max_examples=300, deadline=None)
    @given(blocks_with_faults())
    def test_matches_the_per_piece_reader(self, text):
        assert outcome(a.parse_partition, text) == outcome(parse_partition_by_pieces, text)

    @pytest.mark.parametrize("members, message", [
        ("(+1,2) (1,1)\nclass 1: (1,2)", "(1,2) is classified twice"),
        ("(1,1) (1,1_0)\nclass 1: (1,2)", "(1,1_0) is not a level-2 insertion tuple"),
        ("(1,1) (1,3) (1,1)\nclass 1: (1,2)", "(1,3) is not a level-2 insertion tuple"),
        ("(1,1) (1,1)\nclass 1: (1,3)", "(1,1) is classified twice"),
        ("(1,1) (1,0)\nclass 1: (1,2)", "(1,0) is not a level-2 insertion tuple"),
        ("(1,1) (1," + "9" * 30 + ")\nclass 1: (1,2)", "is not a level-2 insertion tuple"),
    ])
    def test_faults_found_by_the_array_check(self, members, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            a.parse_partition(f"level=2 p=2 classes=2\nclass 0: {members}")

    def test_int_forms_are_accepted_as_int_accepts_them(self):
        text = "level=2 p=2 classes=2\nclass 0: (+1,0_1)\nclass 1: ( 1,2)"
        assert a.parse_partition(text.replace("( 1", "(1")) == Partition(2, 2, [0, 1])
        assert a.parse_partition(text.replace("( 1", "(\u0661")) == Partition(2, 2, [0, 1])

    def test_format_partition_joins_the_tuple_lines_class_by_class(self):
        for pi in (a.tau(6), a.left_factor_sigma(7, 2), Partition.equality(4, 3),
                   Partition.full(0, 2), a.tail_tuple_sigma(5, 1, 4)):
            trees = a.enumerate_bracketings(pi.level, pi.arity)
            want = [f"level={pi.level} p={pi.arity} classes={pi.num_classes}"]
            for cid, ranks in enumerate(pi.classes()):
                want.append(f"class {cid}: "
                            + " ".join(a.format_tuple(a.to_tuple(trees[r])) for r in ranks))
            assert a.format_partition(pi) == "\n".join(want)


def refinement_witness_by_loop(finer, coarser):
    """The loop that ``_refinement_witness`` replaced: the oracle of its pair."""
    seen = {}
    for r, (cf, cc) in enumerate(zip(finer.class_of, coarser.class_of)):
        first = seen.get(cf)
        if first is None:
            seen[cf] = (r, cc)
        elif first[1] != cc:
            return first[0], r
    return None


class TestRefinementWitness:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_loop(self, data):
        n = data.draw(st.integers(0, 5))
        size = a.catalan(n, 2)
        finer, coarser = (Partition(n, 2, data.draw(st.lists(st.integers(0, k), min_size=size,
                                                             max_size=size)))
                          for k in (data.draw(st.integers(0, 6)), data.draw(st.integers(0, 3))))
        got = spectra._refinement_witness(finer, coarser)
        assert got == refinement_witness_by_loop(finer, coarser)
        assert finer.refines(coarser) == (got is None)


def group_rows_by_unique_axis0(keys):
    """The ``np.unique(axis=0)`` grouping that ``_group_rows`` replaced: its oracle."""
    distinct, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    return distinct[order], position[inverse.reshape(-1)]


class TestGroupRows:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_unique_rows(self, data):
        # rows near 2**62 overflow a fold of two columns, so the code and then
        # the column are renumbered; few distinct values make many rows repeat
        rows, cols = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 6))
        bases = data.draw(st.lists(st.sampled_from([0, 2**31 - 2, 2**62, 2**63 - 4]),
                                   min_size=cols, max_size=cols))
        small = data.draw(st.lists(st.integers(0, 3), min_size=rows * cols,
                                   max_size=rows * cols))
        keys = np.array(bases, np.int64) + np.array(small, np.int64).reshape(rows, cols)
        got, want = spectra._group_rows(keys), group_rows_by_unique_axis0(keys)
        assert np.array_equal(got[0], want[0]) and got[0].dtype == keys.dtype
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("dtype", [np.uint8, np.intp])
    def test_small_rows_keep_their_dtype(self, dtype):
        keys = np.array([[3, 1], [0, 2], [3, 1], [0, 0], [0, 2]], dtype)
        got = spectra._group_rows(keys)
        assert got[0].dtype == dtype and got[0].tolist() == [[3, 1], [0, 2], [0, 0]]
        assert got[1].tolist() == [0, 1, 0, 2, 1]


class TestSpectrumPrefix:
    def test_levels_checked(self):
        with pytest.raises(ValueError):
            SpectrumPrefix([Partition.full(1, 2)])
        with pytest.raises(ValueError):
            SpectrumPrefix([Partition.full(0, 2), Partition.full(2, 2)])
        with pytest.raises(ValueError, match="at least level 0"):
            SpectrumPrefix([])
        # every member's type is checked before any arity is read
        for members in ([1], [Partition.full(0, 2), 1]):
            with pytest.raises(TypeError, match="expected a Partition"):
                SpectrumPrefix(members)

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            SpectrumPrefix([Partition.full(0, 2), Partition.full(1, 3)])

    def test_full_level_forces_full_tail_in_closed_prefixes(self):
        # closed prefixes that reach the one-class partition stay there
        sigma = SpectrumPrefix(
            [Partition.equality(n, 2) for n in range(2)]
            + [Partition.full(n, 2) for n in range(2, 7)])
        assert a.verify_closed(sigma).closed
        for n in range(2, 7):
            assert sigma[n].num_classes == 1

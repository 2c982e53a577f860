import itertools
import math
import random
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import assocspectra as a
from assocspectra import groupoids, terms
from assocspectra import CapExceededError, Groupoid, Partition, SchemaError, SpectrumPrefix

EGG4_ROWS = [
    [0, 0, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 2],
    [0, 1, 2, 2],
]

# printed seven-element table, rows/columns 0, 1^, 1~, 2^, 2~, 3^, 3~
EGG7_ROWS = [
    [0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 2, 1],
    [0, 0, 0, 0, 0, 1, 1],
    [0, 0, 0, 2, 1, 4, 3],
    [0, 0, 0, 1, 1, 3, 3],
    [0, 2, 1, 4, 3, 4, 3],
    [0, 1, 1, 3, 3, 3, 3],
]

# degree-3 polynomial-spectrum table over {0..4}
POLY3_ROWS = [
    [0, 0, 0, 0, 0],
    [1, 2, 2, 2, 2],
    [1, 3, 3, 3, 3],
    [1, 4, 4, 4, 4],
    [1, 4, 4, 4, 4],
]


def flat(rows):
    return [e for row in rows for e in row]


def egg4_doc():
    return {"p": 2, "size": 4, "table": flat(EGG4_ROWS)}


def subgroupoid(g, subset):
    subset = sorted(subset)
    index = {e: i for i, e in enumerate(subset)}
    table = []
    for combo in itertools.product(subset, repeat=g.arity):
        value = g.apply(*combo)
        assert value in index, "carrier subset is not closed"
        table.append(index[value])
    return Groupoid(g.arity, len(subset), table)


@st.composite
def bracketings(draw, arity, max_occ):
    n = draw(st.integers(0, max_occ))
    u, prev = [], 1
    for i in range(1, n + 1):
        prev = draw(st.integers(prev, (arity - 1) * (i - 1) + 1))
        u.append(prev)
    return a.from_tuple(u, arity)


@st.composite
def groupoids_and_terms(draw):
    p = draw(st.sampled_from([2, 3]))
    size = draw(st.integers(1, 3))
    table = draw(st.lists(st.integers(0, size - 1), min_size=size ** p, max_size=size ** p))
    return Groupoid(p, size, table), draw(bracketings(p, 3))


def ring_closed_form(ring, t, args):
    """``(3Y)^dl * x_first + (2Y)^dr * x_last`` for a binary bracketing with dl, dr >= 1."""
    dl, dr = a.left_right_depth(t)
    first, last = ring.element(args[0]), ring.element(args[-1])
    return tuple((pow(3, dl, 6) * (first[d - dl] if d >= dl else 0)
                  + pow(2, dr, 6) * (last[d - dr] if d >= dr else 0)) % 6
                 for d in range(ring.truncation))


def int8_ring_op(x1, x2):
    """``3Y*x1 + 2Y*x2`` on Z6 coefficient arrays along the last axis: the packed op's oracle."""
    s = 3 * x1
    s += 2 * x2
    s -= 6 * (s // 6)
    out = np.empty_like(s)
    out[..., 1:] = s[..., :-1]
    out[..., 0] = 0
    return out


def on_coefficients(op):
    """A packed ring operation that applies ``op`` to the unpacked coefficients."""
    def packed(x1, x2, truncation, out=None):
        words = groupoids._pack(op(groupoids._unpack(x1, truncation),
                                   groupoids._unpack(x2, truncation)))
        if out is None:
            return words
        out[...] = words
        return out
    return packed


def assert_ring_level_matches_eval_term(level, truncation):
    ring = a.TruncatedRing(truncation)
    args = np.random.default_rng(level).integers(0, 6, size=(3, level + 1, truncation))
    got = {}
    for ranks, values in groupoids._ring_level(groupoids._pack(args), level, truncation):
        got.update(zip(ranks.tolist(), groupoids._unpack(values, truncation)))
    trees = a.enumerate_bracketings(level, 2)
    assert sorted(got) == list(range(len(trees)))
    for r, t in enumerate(trees):
        for trial in range(3):
            assert tuple(got[r][trial].tolist()) == ring.eval_term(t, args[trial].tolist())


def mirror(g):
    assert g.arity == 2
    table = [g.apply(y, x) for x in range(g.size) for y in range(g.size)]
    return Groupoid(2, g.size, table)


class TestLoadGroupoid:
    def test_egg4_loads(self):
        g = a.load_groupoid(egg4_doc())
        assert g.size == 4 and g.apply(3, 1) == 1 and g.apply(2, 2) == 1

    def test_trivial(self):
        g = a.load_groupoid({"p": 2, "size": 1, "table": [0]})
        assert g.apply(0, 0) == 0

    def test_length_mismatch(self):
        with pytest.raises(SchemaError):
            a.load_groupoid({"p": 2, "size": 4, "table": [0] * 15})

    def test_entry_range(self):
        with pytest.raises(SchemaError):
            a.load_groupoid({"p": 2, "size": 2, "table": [0, 1, 2, 0]})
        # the constructor coerces no entry: a float, a string or a bool is refused, and a
        # document's entries are checked by the same scan
        for bad in (0.9, "1", True):
            with pytest.raises(ValueError, match="table entries must be integers"):
                Groupoid(2, 2, [bad, 1, 1, 0])
            with pytest.raises(SchemaError, match="table entries must be integers"):
                a.load_groupoid({"p": 2, "size": 2, "table": [bad, 1, 1, 0]})
        for bad in (np.array([0.0, 1.0, 1.0, 0.0]), np.array([False, True, True, False])):
            with pytest.raises(ValueError, match="table entries must be integers"):
                Groupoid(2, 2, bad)
        assert Groupoid(2, 2, np.array([0, 1, 1, 0])).table == (0, 1, 1, 0)
        # an integer array is checked by one range test
        for bad, entry in ((np.array([0, 1, 2, 0]), 2), (np.array([0, -1, 1, 0]), -1)):
            with pytest.raises(ValueError, match=f"table entry {entry} outside the carrier 0..1"):
                Groupoid(2, 2, bad)

    def test_one_array_holds_the_operation(self):
        assert "table" not in Groupoid.__slots__
        table = np.array([0, 1, 1, 0], np.uint8)
        g = Groupoid(2, 2, table)
        table[0] = 1  # a writable array is copied
        assert g.table == (0, 1, 1, 0) and g.apply(0, 0) == 0
        assert not g._array.flags.writeable
        table.setflags(write=False)  # a read-only array of the carrier's dtype is kept
        assert np.shares_memory(Groupoid(2, 2, table)._array, table)
        assert Groupoid(2, 2, table) != g == Groupoid(2, 2, (0, 1, 1, 0))

    def test_missing_and_unknown_keys(self):
        with pytest.raises(SchemaError):
            a.load_groupoid({"p": 2, "size": 2})
        with pytest.raises(SchemaError):
            a.load_groupoid({"p": 2, "size": 1, "table": [0], "extra": 1})

    def test_bad_types(self):
        with pytest.raises(SchemaError):
            a.load_groupoid({"p": 1, "size": 2, "table": [0, 1]})
        with pytest.raises(SchemaError):
            a.load_groupoid({"p": 2, "size": "2", "table": [0, 0, 0, 0]})
        with pytest.raises(SchemaError):
            a.load_groupoid({"p": 2, "size": 2, "table": [0, 0, 0, 0], "names": ["a"]})
        with pytest.raises(SchemaError):
            a.load_groupoid([1, 2, 3])

    def test_dump_roundtrip(self):
        for g in (a.gallery("egg7"), a.gallery("sheffer"), a.gallery("polyk", k=2)):
            assert a.load_groupoid(a.dump_groupoid(g)) == g

    @pytest.mark.parametrize("p", [200000, 10**9])
    def test_oversized_arity_rejected_before_the_power(self, p):
        for build, error in ((lambda: a.load_groupoid({"p": p, "size": 7, "table": [0]}),
                              SchemaError),
                             (lambda: Groupoid(p, 7, [0]), ValueError)):
            start = time.perf_counter()
            with pytest.raises(error) as exc:
                build()
            assert time.perf_counter() - start < 0.5
            assert len(str(exc.value)) < 100

    @pytest.mark.parametrize("p", [64, 10**9])
    def test_arity_above_63_rejected(self, p):
        # 64 index arrays are more than numpy accepts; 10**9 would build a 10**9-long shape
        with pytest.raises(ValueError, match="arity"):
            Groupoid(p, 1, [0])
        with pytest.raises(SchemaError, match="arity"):
            a.load_groupoid({"p": p, "size": 1, "table": [0]})

    def test_arity_63_tabulates(self):
        assert a.assoc_spectrum(Groupoid(63, 1, [0]), 2) == [1, 1, 1]


class TestEvalTerm:
    def test_egg4_square(self):
        g = a.gallery("egg4")
        assert a.eval_term(g, a.parse_bracketing("wxx", 2), (3, 3)) == 2

    def test_leaf_is_identity(self):
        g = a.gallery("sheffer")
        for e in range(2):
            assert a.eval_term(g, a.leaf(2), (e,)) == e

    def test_polyk_left_product(self):
        g = a.gallery("polyk", k=3)
        t = a.parse_bracketing("((xx)x)", 2, "infix")
        assert a.eval_term(g, t, (4, 0, 0)) == 1

    def test_argument_checks(self):
        g = a.gallery("egg4")
        with pytest.raises(ValueError, match="expected 2 arguments, got 1"):
            g.apply(1)
        with pytest.raises(ValueError, match="element 9 outside the carrier"):
            g.apply(9, 0)
        with pytest.raises(ValueError):
            a.eval_term(g, a.leaf(3), (0,))
        with pytest.raises(ValueError):
            a.eval_term(g, a.leaf(2), (0, 1))
        with pytest.raises(ValueError):
            a.eval_term(g, a.leaf(2), (9,))

    @pytest.mark.parametrize("p", [2, 3])
    def test_deep_left_associated(self, p):
        t = a.left_associated(3000, p)
        assert a.eval_term(Groupoid(p, 1, [0]), t, (0,) * t.length) == 0
        if p == 2:
            # const_assoc:3 is min(x + y, 2), so any bracketing gives min(sum, 2)
            g = a.gallery("const_assoc", m=3)
            assert a.eval_term(g, t, (1,) + (0,) * (t.length - 1)) == 1
            assert a.eval_term(g, t, (0,) * (t.length - 1) + (2,)) == 2


class TestTermFunction:
    def test_trivial_groupoid_constant(self):
        g = Groupoid(2, 1, [0])
        tf = a.term_function(g, a.parse_bracketing("wwxxx", 2))
        assert set(tf.values.tolist()) == {0}

    def test_three_eggs_induce_constant_zero(self):
        g = a.gallery("egg4")
        t = a.parse_bracketing("(((xx)(xx))(xx))", 2, "infix")
        tf = a.term_function(g, t)
        assert set(tf.values.tolist()) == {0}

    def test_square_maximum(self):
        g = a.gallery("egg4")
        tf = a.term_function(g, a.parse_bracketing("wxx", 2))
        assert int(tf.values.max()) == 2

    def test_max_value_formula(self):
        g = a.gallery("egg4")
        for n in range(6):
            for t in a.enumerate_bracketings(n, 2):
                tf = a.term_function(g, t)
                assert int(tf.values.max()) == max(3 - a.egg_pairs(t), 0)

    def test_matches_pointwise_evaluation(self):
        g = a.gallery("egg7")
        for t in a.enumerate_bracketings(3, 2):
            tf = a.term_function(g, t)
            for args in itertools.product(range(7), repeat=4):
                assert tf(*args) == a.eval_term(g, t, args)

    def test_cap(self):
        g = a.gallery("egg7")
        with pytest.raises(CapExceededError):
            a.term_function(g, a.left_associated(8, 2), max_cells=1000)

    def test_argument_checks(self):
        g = a.gallery("egg4")
        with pytest.raises(ValueError, match="expected 2 arguments"):
            a.term_function(g, a.parse_bracketing("wxx", 2))(0)
        with pytest.raises(ValueError, match="arity 3 does not match groupoid arity 2"):
            a.term_function(g, a.parse_bracketing("wxxx", 3))

    @pytest.mark.parametrize("cap", [-1, 1.5])
    def test_cap_must_be_a_nonnegative_int(self, cap):
        with pytest.raises(ValueError, match="cap"):
            a.term_function(a.gallery("egg4"), a.left_associated(2, 2), max_cells=cap)

    @pytest.mark.parametrize("p", [2, 3])
    def test_deep_left_associated(self, p):
        tf = a.term_function(Groupoid(p, 1, [0]), a.left_associated(3000, p))
        assert tf.values.tolist() == [0]

    @settings(max_examples=60, deadline=None)
    @given(groupoids_and_terms())
    def test_tabulation_matches_eval_term(self, gt):
        g, t = gt
        tf = a.term_function(g, t)
        for args in itertools.product(range(g.size), repeat=t.length):
            assert tf(*args) == a.eval_term(g, t, args)

    def test_equality_semantics(self):
        g = a.gallery("polyk", k=1)
        trees = a.enumerate_bracketings(3, 2)
        # (x((xx)x)) and (x(x(xx))) share the left-factor length 1
        assert a.term_function(g, trees[3]) == a.term_function(g, trees[4])
        # (((xx)x)x) has left-factor length 3 and differs
        assert a.term_function(g, trees[0]) != a.term_function(g, trees[3])


def collided_moments():
    """Patch the walker so that every key of a level has one and the same moment."""
    return mock.patch.object(groupoids, "_moments",
                             lambda op, flat, rows, lengths, offsets, by_value:
                             np.zeros((len(rows), offsets, op.shape[0]), np.int64))


@st.composite
def small_groupoids(draw):
    p = draw(st.sampled_from([2, 3]))
    size = draw(st.integers(1, 3))
    table = draw(st.lists(st.integers(0, size - 1), min_size=size ** p, max_size=size ** p))
    return Groupoid(p, size, table)


def no_unions():
    """Patch the walker so that closure forces no keys together."""
    return mock.patch.object(groupoids, "_forced_unions",
                             lambda n, p, below_which, below_class, which, size: np.arange(size))


def count_gathers(run):
    """The number of tables that ``run()`` gathers."""
    calls = []
    gather = groupoids._gather

    def counted(*args):
        calls.append(1)
        return gather(*args)

    with mock.patch.object(groupoids, "_gather", counted):
        run()
    return len(calls)


def drop_open_walk():
    """Forget the walk that ``fine_level`` keeps, so that its next call is a first call."""
    groupoids._open_walk = None


class TestFineLevel:
    def test_levels_zero_and_one_are_trivial(self):
        for g in (a.gallery("egg4"), a.gallery("sheffer"), a.gallery("polyk", k=2)):
            assert a.fine_level(g, 0).num_classes == 1
            assert a.fine_level(g, 1).num_classes == 1

    def test_polyk_matches_left_factor_partition(self):
        g = a.gallery("polyk", k=1)
        for n in range(5):
            assert a.fine_level(g, n) == a.left_factor_sigma(n, 1)

    def test_sheffer_separates_everything(self):
        g = a.gallery("sheffer")
        for n in range(5):
            assert a.fine_level(g, n) == Partition.equality(n, 2)

    def test_egg4_level3_oracle(self):
        # brute-force tables; the two one-egg-at-(2,3) bracketings collapse
        g = a.gallery("egg4")
        trees = a.enumerate_bracketings(3, 2)
        tables = [
            tuple(a.eval_term(g, t, args) for args in itertools.product(range(4), repeat=4))
            for t in trees]
        assert a.fine_level(g, 3) == Partition(3, 2, tables)
        assert a.fine_level(g, 3).num_classes == 4

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_term_function_oracle(self, data):
        p = data.draw(st.sampled_from([2, 3]))
        size = data.draw(st.integers(1, 3))
        table = data.draw(st.lists(st.integers(0, size - 1), min_size=size ** p,
                                   max_size=size ** p))
        g = Groupoid(p, size, table)
        n = data.draw(st.integers(0, 5 if p == 2 else 3))
        oracle = Partition(n, p, [a.term_function(g, t).values.tobytes()
                                  for t in a.enumerate_bracketings(n, p)])
        assert a.fine_level(g, n) == oracle

    def test_polyk3_collisions_match_the_oracle(self):
        # 132 level-6 bracketings in 26 classes, so most child-class keys repeat
        g = a.gallery("polyk", k=3)
        for n in range(1, 7):
            pi = a.fine_level(g, n)
            assert pi.num_classes == sum(math.comb(n - 1, i) for i in range(4))
        assert pi == Partition(6, 2, [a.term_function(g, t).values.tobytes()
                                      for t in a.enumerate_bracketings(6, 2)])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_oracle_when_every_fingerprint_collides(self, data):
        # the walker's fingerprint of a table is its moment: one shared moment
        # makes every key of a level a merge candidate of every other, so
        # only the exact comparison of tables tells them apart
        with collided_moments():
            self.test_matches_term_function_oracle.hypothesis.inner_test(self, data)

    @pytest.mark.parametrize("name, params, n", [
        ("polyk", {"k": 3}, 6), ("egg7", {}, 5), ("sheffer", {}, 6)])
    def test_gallery_when_every_fingerprint_collides(self, name, params, n):
        g = a.gallery(name, **params)
        oracle = Partition(n, 2, [a.term_function(g, t).values.tobytes()
                                  for t in a.enumerate_bracketings(n, 2)])
        with collided_moments():
            assert a.fine_level(g, n) == oracle

    def test_top_level_keeps_no_table_per_class(self):
        # 132 bracketings of 7**7 one-byte cells: 108 MiB if each class kept its table
        g = a.gallery("egg7")
        a.enumerate_bracketings(6, 2)
        tracemalloc.start()
        try:
            pi = a.fine_level(g, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pi.num_classes == 113
        assert peak < 24 * 2**20

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_oracle_when_every_fold_collides(self, data):
        # zero fold weights give every union representative of a level one fold, so
        # each is told apart by its gathered table alone
        weights = groupoids._weights

        def zero_fold(p, size, top):
            flat, fold = weights(p, size, top)
            return flat, np.zeros_like(fold)

        with mock.patch.object(groupoids, "_weights", zero_fold):
            self.test_matches_term_function_oracle.hypothesis.inner_test(self, data)

    def test_fold_weights_follow_the_moments_weights(self):
        # the fold is one more row of the same bytes: the moments' rows are unchanged
        flat, fold = groupoids._weights(2, 4, 7)
        longer = groupoids._weights(2, 4, 8)[0]
        assert flat.shape == (8, 4) and np.array_equal(longer[:8], flat)
        assert np.array_equal(longer[8], fold) and not (flat == fold).all(axis=1).any()

    def test_child_index_is_built_once_for_walks_of_two_groupoids(self, monkeypatch):
        built = []

        class Recorded(dict):
            def __setitem__(self, key, value):
                built.append(key)
                super().__setitem__(key, value)

        monkeypatch.setattr(terms, "_child_index", Recorded())
        for g in (a.gallery("egg4"), a.gallery("polyk", k=3)):
            drop_open_walk()
            assert a.fine_level(g, 7) == fine_oracle(g, 7)
        assert sorted(built) == [(m, 2) for m in range(1, 8)]
        assert not any(index.flags.writeable for index in terms._child_index.values())

    def test_walk_builds_no_word_array(self):
        # the walker reads child ranks alone, which no word array is built for
        terms._level.cache_clear()
        assert a.fine_level(a.gallery("sheffer"), 8).num_classes == a.catalan(8, 2)
        assert terms._level.cache_info().currsize == 0

    def test_negative_level_is_refused_as_enumeration_refuses_it(self):
        for refused in (lambda: a.fine_level(a.gallery("egg4"), -1),
                        lambda: a.enumerate_bracketings(-1, 2)):
            with pytest.raises(ValueError, match="occurrence number must be nonnegative, got -1"):
                refused()

    def test_cap(self):
        with pytest.raises(CapExceededError) as exc:
            a.fine_level(a.gallery("egg7"), 5, max_cells=10)
        assert exc.value.required == 7 ** 6 * 42

    def test_huge_level_refused_from_its_lower_bound(self):
        with pytest.raises(CapExceededError) as exc:
            a.fine_level(a.gallery("egg4"), 200000)
        assert exc.value.required is None and exc.value.level == 200000

    @pytest.mark.parametrize("cap", [-1, 1.5])
    def test_cap_must_be_a_nonnegative_int(self, cap):
        g = a.gallery("egg4")
        with pytest.raises(ValueError, match="cap"):
            a.fine_level(g, 3, max_cells=cap)
        with pytest.raises(ValueError, match="cap"):
            a.fine_level(g, 3, max_count=cap)


def fine_oracle(g, n):
    """Level ``n`` partitioned by the ``term_function`` tables of its bracketings."""
    return Partition(n, g.arity, [a.term_function(g, t).values.tobytes()
                                  for t in a.enumerate_bracketings(n, g.arity)])


class TestFineSpectrum:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_yields_every_fine_level(self, data):
        p = data.draw(st.sampled_from([2, 3]))
        size = data.draw(st.integers(1, 3))
        table = data.draw(st.lists(st.integers(0, size - 1), min_size=size ** p,
                                   max_size=size ** p))
        g = Groupoid(p, size, table)
        n = data.draw(st.integers(0, 5 if p == 2 else 3))
        walked = list(a.fine_spectrum(g, n))
        assert walked == [a.fine_level(g, m) for m in range(n + 1)]
        assert walked == [fine_oracle(g, m) for m in range(n + 1)]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_yields_every_fine_level_when_every_fingerprint_collides(self, data):
        # the lower levels merge through the same moments as the top
        with collided_moments():
            self.test_yields_every_fine_level.hypothesis.inner_test(self, data)

    def test_gallery_levels_match_the_oracle(self):
        for g, n in ((a.gallery("egg7"), 5), (a.gallery("polyk", k=3), 6)):
            assert list(a.fine_spectrum(g, n)) == [fine_oracle(g, m) for m in range(n + 1)]

    def test_yields_the_admitted_levels_then_raises(self):
        got = []
        with pytest.raises(CapExceededError) as exc:
            for pi in a.fine_spectrum(a.gallery("egg7"), 5, max_cells=10**5):
                got.append(pi)
        assert [(pi.level, pi.num_classes) for pi in got] == [(0, 1), (1, 1), (2, 2), (3, 5)]
        assert exc.value.level == 4 and exc.value.required == 7 ** 5 * 14

    def test_negative_horizon_yields_nothing(self):
        assert list(a.fine_spectrum(a.gallery("egg4"), -1)) == []

    def test_levels_read_in_many_child_chunks_give_the_same_partitions(self, monkeypatch):
        # the walk reads each level's child index at once; built 8 rows at a time, it
        # gives the same keys
        gs = [a.gallery("egg4"), a.gallery("polyk", k=3), Groupoid(3, 2, [0] * 6 + [1, 1])]
        want = [list(a.fine_spectrum(g, 6)) for g in gs]
        monkeypatch.setattr(terms, "_child_index", {})
        monkeypatch.setattr(terms, "_CHUNK_CELLS", 8)
        assert [list(a.fine_spectrum(g, 6)) for g in gs] == want

    def test_spectrum_tabulates_as_often_as_its_top_level(self):
        # the per-level loop re-walked levels 1..n-1 for every n: 474 gathers;
        # gathering every key once took 264, moments left the 222 keys whose
        # moment another key shares, with the class tables that they read, and
        # the unions that closure forces leave the representatives of one union
        # per class whose moment another representative shares
        g = a.gallery("polyk", k=3)
        assert a.assoc_spectrum(g, 7) == [1, 1, 2, 4, 8, 15, 26, 42]
        drop_open_walk()
        spectrum_calls = count_gathers(lambda: a.assoc_spectrum(g, 7))
        assert spectrum_calls == count_gathers(lambda: a.fine_level(g, 7)) == 11

    def test_highest_admitted_level_keeps_no_table_per_class(self):
        # level 7 is over the cell cap, so level 6 is the top: without the
        # look-ahead its 113 class tables of 7**7 cells would be kept
        g = a.gallery("egg7")
        a.enumerate_bracketings(6, 2)
        tracemalloc.start()
        try:
            counts = a.assoc_spectrum(g, 8, partial=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == [1, 1, 2, 5, 14, 41, 113]
        assert peak < 24 * 2**20


class TestOpenWalk:
    @settings(max_examples=60, deadline=None)
    @given(small_groupoids(), small_groupoids(), st.data())
    def test_a_sweep_in_any_order_gives_the_spectrum(self, g, h, data):
        top = data.draw(st.integers(0, 5 if g.arity == h.arity == 2 else 3))
        order = data.draw(st.sampled_from(["ascending", "descending", "interleaved", "any"]))
        levels = list(range(top + 1))
        if order == "descending":
            levels.reverse()
        elif order == "any":
            levels = data.draw(st.permutations(levels))
        want = list(a.fine_spectrum(g, top))
        other = list(a.fine_spectrum(h, top))
        for n in levels:
            assert a.fine_level(g, n) == want[n]
            if order == "interleaved":
                assert a.fine_level(h, n) == other[n]

    @pytest.mark.parametrize("name, params, top, gathers", [
        ("polyk", {"k": 3}, 7, 11), ("egg4", {}, 7, 15), ("egg7", {}, 6, 24),
        ("const_assoc", {"m": 3}, 8, 3)])
    def test_a_sweep_gathers_as_one_walk(self, name, params, top, gathers):
        # each call walked from level 1 again: 43, 49, 28 and 21 gathers
        g = a.gallery(name, **params)
        drop_open_walk()
        assert count_gathers(lambda: [a.fine_level(g, n) for n in range(top + 1)]) == gathers
        assert count_gathers(lambda: list(a.fine_spectrum(g, top))) == gathers
        drop_open_walk()
        assert count_gathers(lambda: a.fine_level(g, top)) == gathers  # a first call

    def test_a_walk_that_raises_is_dropped(self):
        g = a.gallery("egg4")
        want = list(a.fine_spectrum(g, 7))
        drop_open_walk()
        a.fine_level(g, 2)
        a.fine_level(g, 3)  # walks again, towards level 7, the last that the caps admit
        assert groupoids._open_walk[1] == 7 and groupoids._open_walk[2] is not None
        gather, failed = groupoids._gather, []

        def fails_once(*args):
            if not failed:
                failed.append(1)
                raise MemoryError("no room for a table")
            return gather(*args)

        with mock.patch.object(groupoids, "_gather", fails_once):
            with pytest.raises(MemoryError):
                for n in range(4, 8):
                    a.fine_level(g, n)
            assert groupoids._open_walk is None
            assert [a.fine_level(g, m) for m in range(n, 8)] == want[n:]

    def test_a_tighter_cap_refuses_while_a_walk_is_open(self):
        g = a.gallery("egg7")
        drop_open_walk()
        with pytest.raises(CapExceededError) as fresh:
            a.fine_level(g, 5, max_cells=10**5)
        a.fine_level(g, 2)
        a.fine_level(g, 3)
        assert groupoids._open_walk[2] is not None
        for n in (3, 5):  # a level the walk has passed, and one it has not
            with pytest.raises(CapExceededError) as late:
                a.fine_level(g, n, max_cells=7 ** (n + 1) * a.catalan(n, 2) - 1)
            assert late.value.level == n
        with pytest.raises(CapExceededError) as late:
            a.fine_level(g, 5, max_cells=10**5)
        assert (str(late.value), late.value.required, late.value.limit, late.value.level) == (
            str(fresh.value), fresh.value.required, fresh.value.limit, fresh.value.level)
        assert groupoids._open_walk[2] is not None
        assert a.fine_level(g, 5).num_classes == 41

    def test_look_ahead_builds_nothing_above_the_level_asked_for(self):
        # the second call walks with its horizon at level 13, the last that the
        # bracketing cap admits; building the child ranks of levels up to 13
        # held 11 MiB
        g = Groupoid(2, 1, [0])
        drop_open_walk()
        tracemalloc.start()
        try:
            a.fine_level(g, 2)
            pi = a.fine_level(g, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pi.num_classes == 1 and groupoids._open_walk[1] == 13
        assert peak < 2**20

    def test_a_sweep_keeps_its_class_ids_as_int32(self):
        # the ids of the 290,512 bracketings of levels 0..12 took 2.22 MiB as int64
        g = a.gallery("egg4")
        drop_open_walk()
        for n in range(13):
            a.fine_level(g, n, max_cells=10**15)
        assert sum(ids.nbytes for ids in groupoids._open_walk[3]) <= 1.2 * 2**20
        drop_open_walk()

    def test_threads_sweep_at_once(self):
        # a walk shared by two threads raised "generator already executing"
        gs = [a.gallery("egg4"), a.gallery("polyk", k=3), a.gallery("egg4"), a.gallery("egg4")]
        want = [list(a.fine_spectrum(g, 7)) for g in gs]
        got = [[] for _ in gs]

        def sweep(i):
            for _ in range(10):
                got[i].append([a.fine_level(gs[i], n) for n in range(8)])

        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(len(gs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[w] * 10 for w in want]


def brute_moment(values, weights, size):
    """``sum of prod_v weights[v][x_v] over the x with T(x) = z`` mod P, from ``T``'s table."""
    prod = np.ones(1, np.int64)
    for w in weights:  # the first variable is the most significant digit of a table index
        prod = (prod[:, None] * w[None, :] % groupoids._P).ravel()
    return [int(prod[values == z].sum()) % groupoids._P for z in range(size)]


class TestMoments:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_walk_moments_are_the_sums_over_the_tables(self, data):
        p = data.draw(st.sampled_from([2, 3]))
        size = data.draw(st.integers(1, 3))
        table = data.draw(st.lists(st.integers(0, size - 1), min_size=size ** p,
                                   max_size=size ** p))
        g = Groupoid(p, size, table)
        top = data.draw(st.integers(0, 4))
        walk = list(groupoids._walk(g, top))
        weights = walk[0][1][0]  # a variable's moments are the weights r[k, a]
        assert weights.shape == ((p - 1) * top + 1, size)
        assert weights.min() >= 1 and weights.max() < groupoids._P
        for n, (labels, moments) in enumerate(walk):
            assert moments.shape == (labels.max() + 1, (p - 1) * (top - n) + 1, size)
            for t, c in zip(a.enumerate_bracketings(n, p), labels.tolist()):
                values = a.term_function(g, t).values
                for k in range(moments.shape[1]):
                    want = brute_moment(values, weights[k:k + t.length], size)
                    assert moments[c, k].tolist() == want

    def test_proven_new_classes_build_no_table(self):
        # level 2 has one key per child position of the level-1 term, each in a
        # class of its own; a table of one of them holds 2**23 one-byte cells
        rng = random.Random(0)
        g = Groupoid(12, 2, [rng.randrange(2) for _ in range(2 ** 12)])
        tracemalloc.start()
        try:
            pi = a.fine_level(g, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pi.num_classes == 12
        assert peak < 2 ** 23


class TestForcedUnions:
    @settings(max_examples=40, deadline=None)
    @given(small_groupoids(), st.integers(1, 5))
    def test_closure_pushes_each_fine_level_into_the_next(self, g, n):
        # the fact that the unions rest on: a fine spectrum is closed
        assert a.delta(a.fine_level(g, n - 1)).refines(a.fine_level(g, n))

    @settings(max_examples=40, deadline=None)
    @given(small_groupoids(), st.integers(0, 5))
    def test_unions_lie_between_delta_and_the_fine_level(self, g, top):
        # every union holds every pair that delta pushes up from the level
        # below and stays inside one class of the walk without unions
        with no_unions():
            levels = list(a.fine_spectrum(g, top))
        seen = []
        forced = groupoids._forced_unions

        def spied(n, p, below_which, below_class, which, size):
            label = forced(n, p, below_which, below_class, which, size)
            seen.append(Partition(n, p, label[which].tolist()))
            return label

        with mock.patch.object(groupoids, "_forced_unions", spied):
            assert list(a.fine_spectrum(g, top)) == levels
        assert [pi.level for pi in seen] == list(range(1, top + 1))
        for pi in seen:
            assert a.delta(levels[pi.level - 1]).refines(pi)
            assert pi.refines(levels[pi.level])

    @pytest.mark.parametrize("name, params, n", [
        ("polyk", {"k": 3}, 7), ("egg4", {}, 7), ("const_assoc", {"m": 3}, 8), ("egg7", {}, 5)])
    def test_gallery_without_unions_gives_the_same_partitions(self, name, params, n):
        g = a.gallery(name, **params)
        walked = list(a.fine_spectrum(g, n))
        with no_unions():
            assert list(a.fine_spectrum(g, n)) == walked

    def test_wide_arity_gathers_once_per_union(self):
        # every key of every level merges; without the unions each of the 861
        # keys of level 3 that shares the one moment was gathered
        g = Groupoid(40, 1, [0])
        assert count_gathers(lambda: a.fine_level(g, 3)) <= 41
        assert a.fine_level(g, 3).num_classes == 1

    def test_reach_with_the_cell_cap_lifted(self):
        # without the unions level 9 takes seconds and about 240 MiB of RSS
        g = a.gallery("polyk", k=3)
        tracemalloc.start()
        try:
            counts = a.assoc_spectrum(g, 9, max_cells=10**15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == [sum(math.comb(n - 1, i) for i in range(4)) if n else 1
                          for n in range(10)]
        assert peak < 64 * 2**20


class TestAssocSpectrum:
    def test_associative_control(self):
        g = a.gallery("const_assoc", m=3)
        assert a.assoc_spectrum(g, 6) == [1] * 7

    def test_polyk3_level4(self):
        assert a.assoc_spectrum(a.gallery("polyk", k=3), 4)[4] == 8

    def test_egg7_counts(self):
        assert a.assoc_spectrum(a.gallery("egg7"), 5) == [1, 1, 2, 5, 14, 41]

    def test_partial_on_cap(self):
        g = a.gallery("egg7")
        partial = a.assoc_spectrum(g, 5, max_cells=10**5, partial=True)
        assert partial == [1, 1, 2, 5]
        with pytest.raises(CapExceededError) as exc:
            a.assoc_spectrum(g, 5, max_cells=10**5)
        assert exc.value.partial == [1, 1, 2, 5] and exc.value.level == 4


class TestIsAssociative:
    def test_examples(self):
        assert a.is_associative(a.gallery("const_assoc", m=3))
        assert not a.is_associative(a.gallery("egg4"))
        assert a.is_associative(Groupoid(2, 1, [0]))

    def test_egg4_witness_triple(self):
        g = a.gallery("egg4")
        grouped_left = a.parse_bracketing("((xx)x)", 2, "infix")
        grouped_right = a.parse_bracketing("(x(xx))", 2, "infix")
        # (1*3)*3 = 1*3 = 1 while 1*(3*3) = 1*2 = 0
        assert a.eval_term(g, grouped_left, (1, 3, 3)) == 1
        assert a.eval_term(g, grouped_right, (1, 3, 3)) == 0
        witnesses = [
            args for args in itertools.product(range(4), repeat=3)
            if a.eval_term(g, grouped_left, args) != a.eval_term(g, grouped_right, args)]
        assert witnesses

    def test_spectrum_of_every_associative_table_on_two_elements(self):
        associative = 0
        for table in itertools.product(range(2), repeat=4):
            g = Groupoid(2, 2, list(table))
            brute = all(g.apply(x, g.apply(y, z)) == g.apply(g.apply(x, y), z)
                        for x, y, z in itertools.product(range(2), repeat=3))
            assert a.is_associative(g) == brute, table
            if brute:
                associative += 1
                assert a.assoc_spectrum(g, 5) == [1] * 6, table
        assert associative == 8


class TestDirectProduct:
    def test_with_trivial_factor(self):
        one = Groupoid(2, 1, [0])
        g = a.gallery("egg4")
        prod = a.direct_product(one, g)
        for n in range(4):
            assert a.fine_level(prod, n) == a.fine_level(g, n)

    @pytest.mark.parametrize("left,right", [("polyk", "egg4"), ("sheffer", "polyk")])
    def test_meet_identity(self, left, right):
        g = a.gallery(left, k=1) if left == "polyk" else a.gallery(left)
        h = a.gallery(right, k=1) if right == "polyk" else a.gallery(right)
        prod = a.direct_product(g, h)
        for n in range(5):
            want = a.partition_meet(a.fine_level(g, n), a.fine_level(h, n))
            assert a.fine_level(prod, n) == want

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            a.direct_product(a.gallery("egg4"), Groupoid(3, 1, [0]))

    @pytest.mark.parametrize("cap", [-1, 1.5])
    def test_cap_must_be_a_nonnegative_int(self, cap):
        with pytest.raises(ValueError, match="cap"):
            a.direct_product(a.gallery("sheffer"), a.gallery("egg4"), max_cells=cap)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_cell_by_cell_product(self, data):
        p = data.draw(st.sampled_from([2, 3]))

        def factor(tag: str) -> Groupoid:
            size = data.draw(st.integers(1, 3))
            table = data.draw(st.lists(st.integers(0, size - 1), min_size=size**p,
                                       max_size=size**p))
            names = data.draw(st.sampled_from([None, [f"{tag}{e}" for e in range(size)]]))
            return Groupoid(p, size, table, names)

        g, h = factor("g"), factor("h")
        size = g.size * h.size
        table = []
        for combo in itertools.product(range(size), repeat=p):
            x = g.apply(*(c // h.size for c in combo))
            y = h.apply(*(c % h.size for c in combo))
            table.append(x * h.size + y)
        names = None
        if g.names or h.names:
            names = [f"({g.name_of(x)},{h.name_of(y)})"
                     for x in range(g.size) for y in range(h.size)]
        prod = a.direct_product(g, h)
        assert (prod.table, prod.names) == (tuple(table), None if names is None else tuple(names))

    def test_product_table_is_not_copied_into_python_ints(self):
        # 1,048,576 cells of two bytes; a list of Python ints beside them took 57 MiB
        rng = random.Random(0)
        g, h = (Groupoid(2, 32, [rng.randrange(32) for _ in range(1024)]) for _ in range(2))
        tracemalloc.start()
        try:
            prod = a.direct_product(g, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prod.size == 1024 and prod.apply(1023, 1) == g.apply(31, 0) * 32 + h.apply(31, 1)
        # two intp gathers peaked at 17.1 MiB; in the carrier dtype the table and one part
        assert peak <= 3 * prod._array.nbytes

    def test_encoding(self):
        g, h = a.gallery("sheffer"), a.gallery("egg4")
        prod = a.direct_product(g, h)
        for (x1, y1), (x2, y2) in itertools.product(
                itertools.product(range(2), range(4)), repeat=2):
            got = prod.apply(x1 * 4 + y1, x2 * 4 + y2)
            assert got == g.apply(x1, x2) * 4 + h.apply(y1, y2)


def _quotient_oracle(sigma, cut):
    """``(arity, size, table, names)`` of the quotient, filled cell by cell from words.

    Each class below the cut is represented by its first bracketing's prefix
    word; the cell of a tuple of classes holds the class of the word that
    joins their representatives, or ``*`` when that word reaches the cut.
    """
    p = sigma.arity
    representatives, names, element = [], [], {}
    for m in range(cut):
        base = len(representatives)
        for word, c in zip(terms._texts(terms._level(m, p)), sigma.partitions[m].class_of):
            if base + c == len(representatives):  # class ids count up by first appearance
                representatives.append(word)
                names.append(f"[{word}]")
            element[word] = base + c
    star = len(representatives)
    table = []
    for combo in itertools.product(range(star + 1), repeat=p):
        if star in combo:
            table.append(star)
        else:
            table.append(element.get("w" + "".join(representatives[e] for e in combo), star))
    return p, star + 1, tuple(table), tuple(names + ["*"])


@st.composite
def closed_prefixes(draw):
    """A closed prefix that is full from its cut on, and its cut.

    Below the cut it is equality, a left-factor or tail-tuple spectrum, or
    the fine spectrum of a random groupoid; each of these is closed, and stays
    closed when made full from a level on.
    """
    family = draw(st.sampled_from(["equality", "left_factor", "tail_tuple", "fine"]))
    p = 2 if family == "left_factor" else draw(st.sampled_from([2, 3, 4]))
    cut = draw(st.integers(2, 6 if p == 2 else 4))
    k = draw(st.integers(1, 3 if family == "left_factor" else 2))
    if family == "fine":
        size = draw(st.integers(1, 3))
        g = Groupoid(p, size, draw(st.lists(st.integers(0, size - 1), min_size=size**p,
                                            max_size=size**p)))

    def level(n):
        if n >= cut:
            return Partition.full(n, p)
        if family == "equality":
            return Partition.equality(n, p)
        if family == "left_factor":
            return a.left_factor_sigma(n, k)
        return a.tail_tuple_sigma(n, k, p) if family == "tail_tuple" else a.fine_level(g, n)

    return a.build_prefix(level, cut + draw(st.integers(0, 1))), cut


class TestQuotient:
    @settings(max_examples=40, deadline=None)
    @given(closed_prefixes())
    def test_matches_the_cell_by_cell_oracle(self, case):
        sigma, cut = case
        g = a.quotient_from_spectrum(sigma, cut)
        assert (g.arity, g.size, g.table, g.names) == _quotient_oracle(sigma, cut)

    def _prefix(self, cut, horizon=6):
        return SpectrumPrefix(
            [Partition.equality(n, 2) for n in range(cut)]
            + [Partition.full(n, 2) for n in range(cut, horizon + 1)])

    def test_cut_two(self):
        g = a.quotient_from_spectrum(self._prefix(2), 2)
        assert g.size == 3
        assert g.names == ("[x]", "[wxx]", "*")
        assert a.assoc_spectrum(g, 6) == [1] * 7

    def test_cut_three_reproduces_prefix(self):
        sigma = self._prefix(3)
        g = a.quotient_from_spectrum(sigma, 3)
        assert g.size == 5
        for n in range(7):
            assert a.fine_level(g, n) == sigma[n]

    def test_star_is_absorbing(self):
        g = a.quotient_from_spectrum(self._prefix(2), 2)
        star = g.size - 1
        for e in range(g.size):
            assert g.apply(star, e) == star and g.apply(e, star) == star

    def test_preconditions(self):
        with pytest.raises(ValueError):
            a.quotient_from_spectrum(self._prefix(2), 1)
        with pytest.raises(ValueError):
            a.quotient_from_spectrum(self._prefix(2, horizon=1), 2)
        not_full = SpectrumPrefix(
            [Partition.equality(n, 2) for n in range(4)]
            + [Partition.full(4, 2)])
        with pytest.raises(ValueError):
            a.quotient_from_spectrum(not_full, 3)
        not_closed = SpectrumPrefix(
            [Partition.full(n, 2) for n in range(3)]
            + [Partition.equality(3, 2), Partition.full(4, 2)])
        with pytest.raises(ValueError, match="violation at level 2"):
            a.quotient_from_spectrum(not_closed, 4)

    def test_oversized_table_refused_before_it_is_built(self):
        # 23,714 classes below the cut and *: a table of 23,715**2 cells
        sigma = self._prefix(11, horizon=11)
        start = time.perf_counter()
        with pytest.raises(CapExceededError) as exc:
            a.quotient_from_spectrum(sigma, 11)
        assert time.perf_counter() - start < 1
        assert exc.value.required == 23715**2 == 562_401_225

    def test_quotient_of_left_factor_prefix(self):
        # a nontrivial closed prefix that becomes full from level 4 on
        def level(n):
            return a.left_factor_sigma(n, 1) if n < 4 else Partition.full(n, 2)

        sigma = a.build_prefix(level, 6)
        assert a.verify_closed(sigma).closed
        g = a.quotient_from_spectrum(sigma, 4)
        for n in range(6):
            assert a.fine_level(g, n) == sigma[n]


class TestGallery:
    def test_egg4_table(self):
        assert a.gallery("egg4").table == tuple(flat(EGG4_ROWS))
        assert a.gallery("egg4").apply(1, 3) == 1

    def test_egg7_matches_printed_table(self):
        g = a.gallery("egg7")
        assert g.table == tuple(flat(EGG7_ROWS))
        assert g.names == ("0", "1^", "1~", "2^", "2~", "3^", "3~")

    def test_polyk3_matches_printed_table(self):
        g = a.gallery("polyk", k=3)
        assert g.table == tuple(flat(POLY3_ROWS))
        assert g.apply(1, 0) == 1 and g.apply(2, 1) == 3 and g.apply(4, 4) == 4

    def test_sheffer_tags(self):
        g = a.gallery("sheffer")
        hat, tilde = 0, 1
        assert g.apply(hat, hat) == tilde
        assert g.apply(hat, tilde) == hat
        assert g.apply(tilde, hat) == hat
        assert g.apply(tilde, tilde) == hat

    def test_polyk_identity_x_yz_eq_xy(self):
        for k in (1, 2, 3):
            g = a.gallery("polyk", k=k)
            for x, y, z in itertools.product(range(g.size), repeat=3):
                assert g.apply(x, g.apply(y, z)) == g.apply(x, y)

    def test_unknown_and_bad_params(self):
        with pytest.raises(ValueError):
            a.gallery("nonsense")
        with pytest.raises(ValueError):
            a.gallery("polyk")
        with pytest.raises(ValueError):
            a.gallery("polyk", k=0)
        with pytest.raises(ValueError):
            a.gallery("egg4", k=2)

    def test_entries_cover_the_builders(self):
        assert {name for name, _, _ in a.GALLERY_ENTRIES} == {
            "egg4", "egg7", "polyk", "truncated_ring", "sheffer", "const_assoc"}


class TestTruncatedRing:
    def test_mul_matches_definition(self):
        ring = a.gallery("truncated_ring", truncation=6)
        x1 = ring.element([1, 2, 3])
        x2 = ring.element([4, 5])
        got = ring.apply(x1, x2)
        want = [0] * 6
        for d in range(1, 6):
            want[d] = (3 * x1[d - 1] + 2 * x2[d - 1]) % 6
        assert got == tuple(want)

    def test_eval_term_square(self):
        ring = a.TruncatedRing(5)
        t = a.parse_bracketing("wxx", 2)
        x1, x2 = ring.monomial(0, 1), ring.monomial(0, 1)
        assert ring.eval_term(t, (x1, x2)) == ring.element([0, 5])  # 3Y + 2Y

    def test_truncation_required_positive(self):
        with pytest.raises(ValueError):
            a.TruncatedRing(0)

    def test_elements_and_argument_checks(self):
        ring = a.TruncatedRing(4)
        assert ring.zero() == (0, 0, 0, 0)
        with pytest.raises(ValueError, match="degree 9 outside 0..3"):
            ring.monomial(9)
        with pytest.raises(ValueError, match="binary"):
            ring.eval_term(a.parse_bracketing("wxxx", 3), [ring.zero()] * 3)
        with pytest.raises(ValueError, match="expected 2 arguments, got 1"):
            ring.eval_term(a.parse_bracketing("wxx", 2), [ring.zero()])

    def test_eval_term_deep_left_associated(self):
        ring = a.TruncatedRing(16)
        t = a.left_associated(3000, 2)
        args = [ring.monomial(i % 16, i % 5 + 1) for i in range(t.length)]
        assert ring.eval_term(t, args) == ring_closed_form(ring, t, args)

    @given(st.data())
    def test_eval_term_matches_depth_closed_form(self, data):
        ring = a.TruncatedRing(8)
        t = data.draw(bracketings(2, ring.truncation - 1).filter(lambda t: t.occ > 0))
        element = st.lists(st.integers(0, 5), min_size=ring.truncation, max_size=ring.truncation)
        args = data.draw(st.lists(element, min_size=t.length, max_size=t.length))
        assert ring.eval_term(t, args) == ring_closed_form(ring, t, args)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_apply_matches_the_coefficient_oracle(self, data):
        # one element at a time; the 36 rows hold every residue pair at every degree
        truncation = data.draw(st.integers(1, 40))
        shift = data.draw(st.integers(0, 35))
        pair = (np.arange(36)[:, None] + np.arange(truncation) + shift) % 36
        x1, x2 = pair // 6, pair % 6
        ring = a.TruncatedRing(truncation)
        got = [ring.apply(y1, y2) for y1, y2 in zip(x1.tolist(), x2.tolist())]
        assert got == [tuple(w) for w in int8_ring_op(x1, x2).tolist()]


class TestRingOp:
    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    @pytest.mark.parametrize("k", [1, 2, 16])
    def test_every_residue_pair_at_every_degree(self, dtype, k):
        # row i holds residue pair (i + d) % 36 at degree d, so every degree sees all 36
        pair = (np.arange(36)[:, None] + np.arange(k)) % 36
        x1, x2 = (pair // 6).astype(dtype), (pair % 6).astype(dtype)
        want = np.zeros((36, k), np.int64)
        for i, d in itertools.product(range(36), range(1, k)):
            want[i, d] = (3 * int(x1[i, d - 1]) + 2 * int(x2[i, d - 1])) % 6
        assert np.array_equal(int8_ring_op(x1, x2), want)
        cases = [(x1[i], x2[i], want[i]) for i in range(36)]  # shape (k,), views of x1 and x2
        cases.append((x1.reshape(6, 6, k), x2.reshape(6, 6, k), want.reshape(6, 6, k)))
        for y1, y2, w in cases:
            y1, y2 = groupoids._pack(y1), groupoids._pack(y2)
            before = y1.copy(), y2.copy()
            got = groupoids._ring_op(y1, y2, k)
            assert got.dtype == np.uint64 and got.shape == w.shape[:-1] + (1,)
            assert np.array_equal(groupoids._unpack(got, k), w)
            assert np.array_equal(y1, before[0]) and np.array_equal(y2, before[1])
            out = np.empty_like(got)
            assert groupoids._ring_op(y1, y2, k, out) is out and np.array_equal(out, got)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_packed_op_matches_the_coefficient_oracle(self, data):
        # 1, 2 and 3 words; the first 36 rows hold every residue pair at every degree
        truncation = data.draw(st.integers(1, 40))
        shift = data.draw(st.integers(0, 35))
        pair = (np.arange(36)[:, None] + np.arange(truncation) + shift) % 36
        x1, x2 = pair // 6, pair % 6
        element = st.lists(st.integers(0, 5), min_size=truncation, max_size=truncation)
        extra = data.draw(st.lists(st.tuples(element, element), max_size=4))
        if extra:
            x1 = np.concatenate([x1, [e[0] for e in extra]])
            x2 = np.concatenate([x2, [e[1] for e in extra]])
        x1, x2 = x1.astype(np.int8), x2.astype(np.int8)
        got = groupoids._ring_op(groupoids._pack(x1), groupoids._pack(x2), truncation)
        assert got.shape == (len(x1), -(-truncation // 16))
        assert np.array_equal(groupoids._unpack(got, truncation), int8_ring_op(x1, x2))
        # no lane above the truncation is set
        assert np.array_equal(groupoids._pack(groupoids._unpack(got, truncation)), got)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_pack_round_trip(self, data):
        truncation = data.draw(st.integers(1, 40))
        shape = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2))) + (truncation,)
        coeffs = np.array(data.draw(st.lists(st.integers(0, 5), min_size=math.prod(shape),
                                             max_size=math.prod(shape)))).reshape(shape)
        words = groupoids._pack(coeffs)
        assert words.dtype == np.uint64 and words.shape == shape[:-1] + (-(-truncation // 16),)
        # degree d sits in word d // 16, at bits 4*(d % 16) and up
        for index in np.ndindex(shape[:-1]):
            want = [0] * words.shape[-1]
            for d, c in enumerate(coeffs[index].tolist()):
                want[d // 16] |= c << 4 * (d % 16)
            assert words[index].tolist() == want
        back = groupoids._unpack(words, truncation)
        assert back.dtype == np.int8 and np.array_equal(back, coeffs)


class TestRingClosedFormCheck:
    def test_levels_pass(self):
        for n in (0, 1, 3, 5):
            report = a.ring_closed_form_check(16, n, trials=20)
            assert report.ok and report.bracketings == a.catalan(n, 2)

    def test_depth_partition_count(self):
        assert a.dldr_sigma(4).num_classes == 9

    def test_level_must_stay_below_truncation(self):
        with pytest.raises(ValueError):
            a.ring_closed_form_check(4, 4, trials=1)
        with pytest.raises(ValueError, match="at least one trial"):
            a.ring_closed_form_check(16, 3, trials=0)

    def test_levels_read_in_many_child_chunks_give_the_same_values(self, monkeypatch):
        args = np.random.default_rng(1).integers(0, 6, (3, 7, 8)).astype(np.int8)

        def values():
            out = np.full((a.catalan(6, 2), 3, 8), -1, np.int8)
            for ranks, got in groupoids._ring_level(groupoids._pack(args), 6, 8):
                out[ranks] = groupoids._unpack(got, 8)
            return out

        want = values()
        monkeypatch.setattr(terms, "_CHUNK_CELLS", 8)
        assert np.array_equal(values(), want) and (want >= 0).all()

    def test_report_fields(self):
        report = a.ring_closed_form_check(16, 3, trials=7, seed=5)
        assert (report.truncation, report.level, report.trials) == (16, 3, 7)
        assert report.mismatches == ()

    def test_wrong_ring_operation_is_reported(self):
        def swapped(x1, x2):  # 2Y*x1 + 3Y*x2
            out = np.zeros_like(x1)
            out[..., 1:] = (2 * x1[..., :-1] + 3 * x2[..., :-1]) % 6
            return out

        with mock.patch.object(groupoids, "_ring_op", on_coefficients(swapped)):
            report = a.ring_closed_form_check(16, 4, trials=5)
        assert not report.ok and len(report.mismatches) == report.bracketings == 14

    def test_one_seed_gives_one_report(self):
        def flawed(x1, x2):  # wrong only where a left argument's constant term is 5
            out = int8_ring_op(x1, x2)
            out[..., 1] = (out[..., 1] + (x1[..., 0] == 5)) % 6
            return out

        with mock.patch.object(groupoids, "_ring_op", on_coefficients(flawed)):
            reports = [a.ring_closed_form_check(8, 4, trials=1, seed=s) for s in (0, 0, 1, 1, 2)]
        assert reports[0] == reports[1] and reports[2] == reports[3]
        # the mismatches follow the drawn arguments, so the seeds tell apart
        assert len({r.mismatches for r in reports}) > 1

    @pytest.mark.parametrize("level", range(7))
    def test_shared_evaluation_matches_eval_term(self, level):
        assert_ring_level_matches_eval_term(level, 8)

    def test_two_word_evaluation_matches_eval_term(self):
        # a truncation of 20 keeps two words per element, the second one masked to 4 lanes
        for level in range(7):
            assert_ring_level_matches_eval_term(level, 20)

    def test_builds_only_its_top_word_array(self):
        # the mismatches and the depths read level 8's words; the lower levels need none
        terms._level.cache_clear()
        assert a.ring_closed_form_check(16, 8).ok
        terms._level(8, 2)  # a hit: the one word array built is level 8's
        info = terms._level.cache_info()
        assert (info.currsize, info.misses) == (1, 1)

    def test_shared_store_stays_small(self):
        # every tree of levels 1..8 kept at all of its leaf offsets, one byte a residue
        a.enumerate_bracketings(9, 2)
        tracemalloc.start()
        try:
            report = a.ring_closed_form_check(16, 9, trials=50, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and report.bracketings == 4862
        assert peak < 5 * 2**20

    def test_refused_over_the_cell_cap_before_drawing(self):
        start = time.perf_counter()
        with mock.patch.object(groupoids.random, "Random", side_effect=AssertionError("drawn")):
            with pytest.raises(CapExceededError) as exc:
                a.ring_closed_form_check(16, 9, trials=20000)
            with pytest.raises(CapExceededError):
                a.ring_closed_form_check(10**9, 1, trials=1)
        assert time.perf_counter() - start < 1
        # the arguments and levels 1..8 at their leaf offsets: sum of catalan(m) * (10 - m)
        # over m = 0..8 is 5039 bracketing offsets per trial and degree
        assert exc.value.required == 5039 * 20000 * 16
        assert exc.value.limit == a.DEFAULT_MAX_CELLS
        assert a.ring_closed_form_check(16, 9, trials=50, max_cells=5039 * 50 * 16).ok
        with pytest.raises(CapExceededError, match="ring check to level 9 needs 4031200 cells"):
            a.ring_closed_form_check(16, 9, trials=50, max_cells=5039 * 50 * 16 - 1)
        assert a.ring_closed_form_check(16, 0, trials=3, max_cells=48).ok
        with pytest.raises(CapExceededError):
            a.ring_closed_form_check(16, 0, trials=3, max_cells=47)
        with pytest.raises(ValueError, match="cap must be an integer"):
            a.ring_closed_form_check(16, 3, max_cells=-1)


class TestStructuralInvariants:
    def test_fine_levels_are_closed(self):
        for g in (a.gallery("egg4"), a.gallery("polyk", k=1), a.gallery("sheffer")):
            for n in range(4):
                assert a.delta(a.fine_level(g, n)).refines(a.fine_level(g, n + 1))

    def test_finally_associative(self):
        for g in (a.gallery("const_assoc", m=3), a.gallery("const_assoc", m=5)):
            counts = a.assoc_spectrum(g, 6)
            started = False
            for n, c in enumerate(counts):
                if n >= 2 and c == 1:
                    started = True
                if started:
                    assert c == 1

    def test_subgroupoid_coarsens(self):
        g = a.gallery("egg4")
        for subset in ({0, 1}, {0, 1, 2}):
            sub = subgroupoid(g, subset)
            for n in range(5):
                assert a.fine_level(g, n).refines(a.fine_level(sub, n))

    def test_mirror_preserves_counts(self):
        g = a.gallery("egg4")
        m = mirror(g)
        for n in range(5):
            assert a.fine_level(m, n).num_classes == a.fine_level(g, n).num_classes

    def test_egg7_fine_contains_tau(self):
        g = a.gallery("egg7")
        for n in range(6):
            assert a.tau(n).refines(a.fine_level(g, n))

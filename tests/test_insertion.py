import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import assocspectra as a
from assocspectra import CapExceededError, ParseError, insertion, terms

TABLE1_TUPLES = {
    0: [()],
    1: [(1,)],
    2: [(1, 1), (1, 2)],
    3: [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3)],
}


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def catalan_rec(n, p):
    memo = {0: 1}

    def rec(m):
        if m not in memo:
            memo[m] = sum(
                math.prod(rec(i) for i in split) for split in compositions(m - 1, p))
        return memo[m]

    return rec(n)


class TestToTuple:
    def test_table_values(self):
        for n, want in TABLE1_TUPLES.items():
            assert [a.to_tuple(t) for t in a.enumerate_bracketings(n, 2)] == want

    def test_examples(self):
        assert a.to_tuple(a.parse_bracketing("((xx)x)", 2, "infix")) == (1, 1)
        assert a.to_tuple(a.leaf(2)) == ()
        assert a.to_tuple(a.parse_bracketing("((xx)(xx))", 2, "infix")) == (1, 1, 3)

    def test_definition_oracle(self):
        # entry i = 1 + variables before the i-th operation symbol in the word
        for p in (2, 3):
            for n in range(6 if p == 2 else 4):
                for t in a.enumerate_bracketings(n, p):
                    word = a.render_bracketing(t)
                    want = tuple(
                        1 + word[:i].count("x")
                        for i, ch in enumerate(word) if ch == "w")
                    assert a.to_tuple(t) == want


class TestFromTuple:
    def test_examples(self):
        assert a.render_bracketing(a.from_tuple((1, 2), 2), "infix") == "(x(xx))"
        assert a.from_tuple((), 2) is a.leaf(2)
        assert a.render_bracketing(a.from_tuple((1, 2, 3), 2), "infix") == "(x(x(xx)))"

    @pytest.mark.parametrize("p,max_n", [(2, 8), (3, 5)])
    def test_roundtrip_on_bracketings(self, p, max_n):
        for n in range(max_n + 1):
            for t in a.enumerate_bracketings(n, p):
                assert a.from_tuple(a.to_tuple(t), p) is t

    @pytest.mark.parametrize("p,max_n", [(2, 8), (3, 5)])
    def test_roundtrip_on_tuples(self, p, max_n):
        for n in range(max_n + 1):
            for u in a.enumerate_m(n, 1, p):
                assert a.to_tuple(a.from_tuple(u, p)) == u

    @pytest.mark.parametrize("bad", [(2, 1), (1, 3), (0,), (2,), (1, 1, 4), (1.0,)])
    def test_invalid_tuples(self, bad):
        with pytest.raises(ValueError):
            a.from_tuple(bad, 2)

    def test_arity_checked_before_the_tuple(self):
        with pytest.raises(ValueError, match="arity"):
            a.from_tuple((1,), "2")


class TestBetaUpdate:
    def test_examples(self):
        assert a.beta_update((1,), 2, 2) == (1, 2)
        assert a.beta_update((), 1, 2) == (1,)
        assert a.beta_update((1, 1), 3, 2) == (1, 1, 3)

    @pytest.mark.parametrize("p,max_n", [(2, 6), (3, 4)])
    def test_agrees_with_tree_level(self, p, max_n):
        for n in range(max_n + 1):
            for t in a.enumerate_bracketings(n, p):
                u = a.to_tuple(t)
                for i in range(1, t.length + 1):
                    assert a.beta_update(u, i, p) == a.to_tuple(a.beta(t, i))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            a.beta_update((1,), 3, 2)
        with pytest.raises(ValueError):
            a.beta_update((1,), 0, 2)
        # neither (3,) nor (2, 1) is an insertion tuple: a first entry is always 1
        with pytest.raises(ValueError, match="outside 1..1"):
            a.beta_update((3,), 1, 2)
        with pytest.raises(ValueError, match="outside 1..1"):
            a.beta_update((2, 1), 1, 2)
        with pytest.raises(ValueError, match="arity"):
            a.beta_update((1,), 1, 1)  # arity 1 has no bracketings
        with pytest.raises(ValueError, match="arity"):
            a.beta_update((1,), 1, "2")


class TestEnumerateM:
    def test_small_case(self):
        assert a.enumerate_m(2, 2, 2) == [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)]

    def test_empty_tuple_level(self):
        assert a.enumerate_m(0, 5, 3) == [()]

    def test_offset_one_is_the_insertion_image(self):
        assert a.enumerate_m(3, 1, 2) == TABLE1_TUPLES[3]

    def test_lexicographic(self):
        for n, k, p in [(4, 2, 2), (3, 3, 3)]:
            ts = a.enumerate_m(n, k, p)
            assert ts == sorted(ts)
            assert len(set(ts)) == len(ts)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            a.enumerate_m(12, 4, 3, max_count=100)

    @pytest.mark.parametrize("cap", [-1, 1.5])
    def test_cap_must_be_a_nonnegative_int(self, cap):
        with pytest.raises(ValueError, match="cap"):
            a.enumerate_m(3, 2, 2, max_count=cap)

    def test_huge_family_refused_from_its_lower_bound(self):
        with pytest.raises(CapExceededError) as exc:
            a.enumerate_m(200000, 3, 2)
        assert exc.value.required is None and "at least 2**199999 tuples" in str(exc.value)


class TestCountM:
    def test_examples(self):
        assert a.count_m(2, 2, 2) == 5
        assert a.count_m(3, 1, 2) == 5
        for k in range(1, 5):
            for p in (2, 3, 5):
                assert a.count_m(0, k, p) == 1

    def test_matches_enumeration(self):
        for p in (2, 3):
            for n in range(7):
                for k in range(1, 5):
                    assert a.count_m(n, k, p) == len(a.enumerate_m(n, k, p))

    def test_partition_recursion(self):
        # |M(n+1,k,p)| = sum over l < k of |M(n,p+l,p)|
        for p in (2, 3):
            for n in range(9):
                for k in range(1, 5):
                    assert a.count_m(n + 1, k, p) == sum(
                        a.count_m(n, p + l, p) for l in range(k))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            a.count_m(-1, 1, 2)
        with pytest.raises(ValueError):
            a.count_m(1, 0, 2)
        with pytest.raises(ValueError):
            a.count_m(1, 1, 1)


class TestCatalan:
    def test_examples(self):
        assert a.catalan(3, 2) == 5
        assert a.catalan(3, 3) == 12
        for p in (2, 3, 4):
            assert a.catalan(0, p) == 1

    def test_matches_recursion(self):
        for p in (2, 3, 4):
            for n in range(11):
                assert a.catalan(n, p) == catalan_rec(n, p)

    def test_equals_offset_one_count(self):
        for p in (2, 3, 4):
            for n in range(9):
                assert a.catalan(n, p) == a.count_m(n, 1, p)


class TestOrderAgreement:
    @pytest.mark.parametrize("p,max_n", [(2, 8), (3, 5), (4, 4)])
    def test_enumerations_align(self, p, max_n):
        for n in range(max_n + 1):
            got = [a.to_tuple(t) for t in a.enumerate_bracketings(n, p)]
            assert got == a.enumerate_m(n, 1, p)


class TestSerialization:
    def test_format(self):
        assert a.format_tuple((1, 2, 3)) == "(1,2,3)"
        assert a.format_tuple(()) == "()"

    def test_parse(self):
        assert a.parse_tuple("(1,2,3)") == (1, 2, 3)
        assert a.parse_tuple("()") == ()
        assert a.parse_tuple(" (1,1) ") == (1, 1)

    @given(st.lists(st.integers(1, 50), max_size=8))
    def test_roundtrip(self, entries):
        u = tuple(entries)
        assert a.parse_tuple(a.format_tuple(u)) == u

    @pytest.mark.parametrize("bad", ["", "1,2", "(1,2", "1,2)", "(a,b)", "(1 2)"])
    def test_errors(self, bad):
        with pytest.raises(ParseError):
            a.parse_tuple(bad)

    @pytest.mark.parametrize("p,top", [(2, 11), (3, 7), (4, 5), (1000, 2)])
    def test_array_tuple_lines_are_format_tuple_per_row(self, p, top):
        for n in range(top + 1):
            for _, words in terms._row_chunks(terms._level(n, p)):
                columns = insertion._tuple_columns(words, n)
                want = "".join(a.format_tuple(u) + "\n" for u in columns.tolist())
                assert insertion._tuple_lines(columns).tobytes().decode("ascii") == want

    def test_array_tuple_lines_of_wide_entries(self):
        columns = [[1, 9, 10, 99, 100, 12345],
                   [7, 10**9, 10**9, 10**15, 10**17, 999999999999999999]]
        want = "".join(a.format_tuple(u) + "\n" for u in columns)
        got = insertion._tuple_lines(np.array(columns, np.int64)).tobytes().decode("ascii")
        assert got == want

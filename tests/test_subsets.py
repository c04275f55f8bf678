import functools
import itertools
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubedom.errors import InvalidParametersError
from cubedom.levelgraph import LevelGraphSpec, graph_stats
from cubedom.subsets import elements, enumerate_k_subsets, mask_of, spanning_pairs


def combos(n, k):
    """Independent oracle: all k-subsets of [n] via itertools."""
    return [set(c) for c in itertools.combinations(range(1, n + 1), k)]


def gosper_k_subsets(n, k):
    """Reference: the k-subset masks of [n] by Gosper's hack, ascending."""
    if k == 0:
        yield 0
        return
    v = (1 << k) - 1
    while v < 1 << n:
        yield v
        t = v | (v - 1)
        v = (t + 1) | (((((t + 1) & -(t + 1)) // (v & -v)) >> 1) - 1)


class TestSubset:
    """Subsets as int masks: ``mask_of`` and ``elements``."""

    def test_elements_round_trip(self):
        mask = mask_of([1, 3, 4], 6)
        assert mask == 0b1101
        assert elements(mask) == (1, 3, 4)
        assert mask_of(reversed(elements(mask)), 6) == mask
        assert elements(0) == () and mask_of([], 6) == 0
        assert elements((1 << 64) - 1) == tuple(range(1, 65))
        assert mask_of([70, 65, 1], 70) == 1 << 69 | 1 << 64 | 1

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(InvalidParametersError, match="outside"):
            mask_of([5], 4)
        with pytest.raises(InvalidParametersError, match="outside"):
            mask_of([0, 1], 4)

    def test_rejects_repeated_element(self):
        with pytest.raises(InvalidParametersError, match="repeated"):
            mask_of([1, 2, 2, 3], 4)

    @pytest.mark.parametrize("bad", [True, False, 1.0, "1", None])
    def test_rejects_non_integers(self, bad):
        with pytest.raises(InvalidParametersError, match="not an integer"):
            mask_of([bad, 2, 3], 4)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 70), data=st.data())
    def test_reads_as_element_by_element(self, n, data):
        # Summed in one pass or read one element at a time, a collection
        # gets the same mask, or the same error for its first bad element.
        element = st.one_of(st.integers(-2, n + 2),
                            st.sampled_from([True, False, 1.0, "1", None]))
        els = data.draw(st.lists(element, max_size=8), label="elements")
        mask, error = 0, None
        for e in els:
            if isinstance(e, bool) or not isinstance(e, int):
                error = f"element {e!r} is not an integer"
            elif not 1 <= e <= n:
                error = f"element {e} outside [{n}]"
            elif mask >> (e - 1) & 1:
                error = f"repeated element {e}"
            if error:
                with pytest.raises(InvalidParametersError) as got:
                    mask_of(iter(els), n)
                assert str(got.value) == error
                return
            mask |= 1 << (e - 1)
        assert mask_of(iter(els), n) == mask


class TestBinomial:
    """Level sizes and degrees, the binomial counts the package reports."""

    def test_known_values(self):
        assert graph_stats(LevelGraphSpec(5, 2, 1)) == {
            "vertex_count": 10 + 5, "edge_count": 10 * 2, "upper_degree": 2,
            "lower_degree": 4,
        }

    def test_against_pascal_recurrence(self):
        # Independent oracle: Pascal's triangle built by addition only,
        # against the level sizes at the 64-element cap.
        row = [1]
        for n in range(1, 65):
            row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
        for k in range(2, 64):
            stats = graph_stats(LevelGraphSpec(64, k, 1))
            assert stats["vertex_count"] == row[k] + row[1]
            assert stats["lower_degree"] == row[k] * k // 64


class TestEnumeration:
    def test_k_zero_single_empty_set(self):
        assert list(enumerate_k_subsets(3, 0)) == [0]

    def test_all_three_subsets_of_four(self):
        assert list(enumerate_k_subsets(4, 3)) == [0b0111, 0b1011, 0b1101, 0b1110]

    def test_six_choose_three_extremes(self):
        subs = list(enumerate_k_subsets(6, 3))
        assert len(subs) == 20
        assert elements(subs[0]) == (1, 2, 3)
        assert elements(subs[-1]) == (4, 5, 6)
        assert sorted(mask_of(c, 6) for c in combos(6, 3)) == subs

    @pytest.mark.parametrize("n", range(1, 11))
    def test_counts_distinct_and_cardinality(self, n):
        for k in range(n + 1):
            subs = list(enumerate_k_subsets(n, k))
            assert len(subs) == math.comb(n, k)
            assert len(set(subs)) == len(subs)
            assert all(m.bit_count() == k and 0 <= m < 1 << n for m in subs)
            # Ascending mask = colex order.
            assert all(a < b for a, b in zip(subs, subs[1:]))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_gosper_loop(self, n):
        for k in range(n + 1):
            assert list(enumerate_k_subsets(n, k)) == list(gosper_k_subsets(n, k))

    def test_first_and_last_at_n64(self):
        # The last mask only where the level is small enough to walk.
        for k in range(65):
            low = (1 << k) - 1
            assert next(enumerate_k_subsets(64, k)) == low
            if math.comb(64, k) <= 50_000:
                *_, last = enumerate_k_subsets(64, k)
                assert last == low << (64 - k)

    def test_rejects_bad_parameters(self):
        # Not a generator: the call raises before anything is iterated.
        for n, k in [(4, 5), (65, 2), (0, 0), (4, -1)]:
            with pytest.raises(InvalidParametersError):
                enumerate_k_subsets(n, k)


class TestSpanningPairs:
    def test_even_case(self):
        assert [elements(p) for p in spanning_pairs(4)] == [(1, 2), (3, 4)]

    def test_odd_case(self):
        fam = spanning_pairs(5)
        assert [elements(p) for p in fam] == [(1, 2), (3, 4), (4, 5)]
        assert functools.reduce(operator.or_, fam) == 0b11111

    @pytest.mark.parametrize("n", range(2, 21))
    def test_union_and_count(self, n):
        fam = spanning_pairs(n)
        assert len(fam) == math.ceil(n / 2)
        assert functools.reduce(operator.or_, fam) == (1 << n) - 1
        assert all(p.bit_count() == 2 and 0 < p < 1 << n for p in fam)

    def test_rejects_small_n(self):
        with pytest.raises(InvalidParametersError):
            spanning_pairs(1)

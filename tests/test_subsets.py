import functools
import itertools
import math
import operator

import pytest

from cubedom.errors import InvalidParametersError
from cubedom.subsets import Subset, binomial, enumerate_k_subsets, spanning_pairs


def combos(n, k):
    """Independent oracle: all k-subsets of [n] via itertools."""
    return [set(c) for c in itertools.combinations(range(1, n + 1), k)]


class TestSubset:
    def test_elements_round_trip(self):
        s = Subset.from_elements([1, 3, 4], 6)
        assert s.elements() == (1, 3, 4)
        assert s.cardinality == 3
        assert 3 in s.elements() and 2 not in s.elements()

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(InvalidParametersError):
            Subset(1 << 4, 4)
        with pytest.raises(InvalidParametersError):
            Subset(0, 65)
        with pytest.raises(InvalidParametersError):
            Subset.from_elements([5], 4)


class TestBinomial:
    def test_known_values(self):
        assert binomial(5, 2) == 10
        assert binomial(7, 0) == 1
        assert binomial(3, 5) == 0

    def test_against_pascal_recurrence(self):
        # Independent oracle: Pascal's triangle built by addition only.
        row = [1]
        for n in range(1, 65):
            row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
        for k in range(65):
            assert binomial(64, k) == row[k]

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidParametersError):
            binomial(65, 2)
        with pytest.raises(InvalidParametersError):
            binomial(5, -1)


class TestEnumeration:
    def test_k_zero_single_empty_set(self):
        assert [s.elements() for s in enumerate_k_subsets(3, 0)] == [()]

    def test_all_three_subsets_of_four(self):
        got = [set(s.elements()) for s in enumerate_k_subsets(4, 3)]
        assert got == [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}]

    def test_six_choose_three_extremes(self):
        subs = list(enumerate_k_subsets(6, 3))
        assert len(subs) == 20
        assert subs[0].elements() == (1, 2, 3)
        assert subs[-1].elements() == (4, 5, 6)
        assert sorted(map(set, combos(6, 3)), key=lambda s: sum(1 << (e - 1) for e in s)) == [
            set(s.elements()) for s in subs
        ]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_counts_distinct_and_cardinality(self, n):
        for k in range(n + 1):
            subs = list(enumerate_k_subsets(n, k))
            assert len(subs) == binomial(n, k)
            assert len({s.mask for s in subs}) == len(subs)
            assert all(s.cardinality == k for s in subs)
            # Ascending mask = colex order.
            assert all(a.mask < b.mask for a, b in zip(subs, subs[1:]))

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParametersError):
            list(enumerate_k_subsets(4, 5))
        with pytest.raises(InvalidParametersError):
            list(enumerate_k_subsets(65, 2))


class TestSpanningPairs:
    def test_even_case(self):
        fam = spanning_pairs(4)
        assert [p.elements() for p in fam] == [(1, 2), (3, 4)]

    def test_odd_case(self):
        fam = spanning_pairs(5)
        assert [p.elements() for p in fam] == [(1, 2), (3, 4), (4, 5)]
        assert functools.reduce(operator.or_, (p.mask for p in fam)) == 0b11111

    @pytest.mark.parametrize("n", range(2, 21))
    def test_union_and_count(self, n):
        fam = spanning_pairs(n)
        assert len(fam) == math.ceil(n / 2)
        assert functools.reduce(operator.or_, (p.mask for p in fam)) == (1 << n) - 1
        assert all(p.cardinality == 2 and p.n == n for p in fam)

    def test_rejects_small_n(self):
        with pytest.raises(InvalidParametersError):
            spanning_pairs(1)

import random
from math import comb

import pytest

from cubedom.errors import InvalidParametersError, TooLargeError
from cubedom.levelgraph import LevelGraphSpec, graph_stats, materialize
from cubedom.subsets import enumerate_k_subsets


def reference_closed(spec):
    """Closed-neighbourhood bitsets from a containment scan over every
    (upper, lower) pair of the enumerated levels."""
    uppers = list(enumerate_k_subsets(spec.n, spec.k))
    lowers = list(enumerate_k_subsets(spec.n, spec.l))
    nu = len(uppers)
    closed = [1 << i for i in range(nu + len(lowers))]
    for iu, u in enumerate(uppers):
        for j, w in enumerate(lowers):
            if w & u == w:
                closed[iu] |= 1 << (nu + j)
                closed[nu + j] |= 1 << iu
    return tuple(closed)


def degree(g, i):
    return g.closed[i].bit_count() - 1


class TestSpec:
    def test_rejects_bad_orderings(self):
        for n, k, l in [(4, 4, 2), (4, 2, 2), (4, 2, 0), (3, 2, 2), (65, 10, 2)]:
            with pytest.raises(InvalidParametersError):
                LevelGraphSpec(n, k, l)

    def test_rejects_non_integers(self):
        for n, k, l in [(6.5, 4, 2), (6.0, 4, 2), (6, 4.5, 2), (6, 4, 2.0), (6, 4, True),
                        (True, 4, 2), ("6", 4, 2), (None, 4, 2)]:
            with pytest.raises(InvalidParametersError, match="must be an integer"):
                LevelGraphSpec(n, k, l)


class TestStats:
    def test_small_examples(self):
        assert graph_stats(LevelGraphSpec(4, 3, 2)) == {
            "vertex_count": 10,
            "edge_count": 12,
            "upper_degree": 3,
            "lower_degree": 2,
        }
        stats = graph_stats(LevelGraphSpec(6, 4, 2))
        assert stats["vertex_count"] == 30
        assert stats["edge_count"] == 90

    def test_double_count_identity_exhaustive(self):
        for n in range(3, 13):
            for k in range(2, n):
                for l in range(1, k):
                    stats = graph_stats(LevelGraphSpec(n, k, l))
                    assert (
                        comb(n, k) * stats["upper_degree"]
                        == comb(n, l) * stats["lower_degree"]
                    )


class TestMaterialize:
    def test_degrees_small(self):
        g = materialize(LevelGraphSpec(4, 3, 2))
        assert g.vertex_count == 10
        for i in range(g.upper_count):
            assert degree(g, i) == 3
        for i in range(g.upper_count, g.vertex_count):
            assert degree(g, i) == 2

    def test_handshake_and_regularity(self):
        for n in range(3, 9):
            for k in range(2, n):
                for l in range(1, k):
                    spec = LevelGraphSpec(n, k, l)
                    g = materialize(spec)
                    stats = graph_stats(spec)
                    degs = [degree(g, i) for i in range(g.vertex_count)]
                    assert sum(degs) == 2 * stats["edge_count"]
                    assert set(degs[: g.upper_count]) == {stats["upper_degree"]}
                    assert set(degs[g.upper_count :]) == {stats["lower_degree"]}

    def test_random_pairs_agree_with_adjacent(self):
        spec = LevelGraphSpec(8, 4, 2)
        g = materialize(spec)
        rng = random.Random(20240817)
        for _ in range(100):
            i = rng.randrange(g.vertex_count)
            j = rng.randrange(g.vertex_count)
            if i == j:
                continue
            # Adjacent iff on different levels with the lower inside the upper.
            upper, lower = sorted((i, j))
            adjacent = (upper < g.upper_count <= lower
                        and g.masks[lower] & g.masks[upper] == g.masks[lower])
            assert (g.closed[i] >> j & 1 == 1) == adjacent

    def test_matches_reference_n_le_10(self):
        for n in range(3, 11):
            for k in range(2, n):
                for l in range(1, k):
                    spec = LevelGraphSpec(n, k, l)
                    assert materialize(spec).closed == reference_closed(spec), spec

    def test_cap(self):
        with pytest.raises(TooLargeError):
            materialize(LevelGraphSpec(20, 10, 2))

    def test_index_round_trip(self):
        spec = LevelGraphSpec(6, 4, 2)
        g = materialize(spec)
        assert len(set(g.masks)) == g.vertex_count
        uppers = list(enumerate_k_subsets(spec.n, spec.k))
        lowers = list(enumerate_k_subsets(spec.n, spec.l))
        assert g.upper_count == len(uppers)
        assert g.vertex_count == len(uppers) + len(lowers)
        assert g.masks == tuple(uppers + lowers)

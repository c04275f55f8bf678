import random

import pytest

from cubedom.errors import InvalidParametersError, TooLargeError
from cubedom.levelgraph import (
    Level,
    LevelGraphSpec,
    VertexRef,
    adjacent,
    graph_stats,
    materialize,
    neighbors_down,
    neighbors_up,
)
from cubedom.subsets import Subset, binomial, enumerate_k_subsets, rank


def upper(spec, *elements):
    return VertexRef(Level.UPPER, Subset.from_elements(elements, spec.n))


def lower(spec, *elements):
    return VertexRef(Level.LOWER, Subset.from_elements(elements, spec.n))


def reference_closed(spec):
    """Closed-neighbourhood bitsets built edge by edge from neighbors_down and rank."""
    uppers = list(enumerate_k_subsets(spec.n, spec.k))
    nu = len(uppers)
    closed = [1 << i for i in range(nu + binomial(spec.n, spec.l))]
    for iu, s in enumerate(uppers):
        for w in neighbors_down(spec, VertexRef(Level.UPPER, s)):
            il = nu + rank(w.set, spec.l)
            closed[iu] |= 1 << il
            closed[il] |= 1 << iu
    return tuple(closed)


def degree(g, i):
    return g.closed[i].bit_count() - 1


class TestSpec:
    def test_rejects_bad_orderings(self):
        for n, k, l in [(4, 4, 2), (4, 2, 2), (4, 2, 0), (3, 2, 2), (65, 10, 2)]:
            with pytest.raises(InvalidParametersError):
                LevelGraphSpec(n, k, l)


class TestAdjacent:
    def test_containment(self):
        spec = LevelGraphSpec(4, 3, 2)
        assert adjacent(spec, upper(spec, 1, 2, 3), lower(spec, 1, 3))
        assert not adjacent(spec, upper(spec, 1, 2, 3), lower(spec, 1, 4))

    def test_same_level_never_adjacent(self):
        spec = LevelGraphSpec(4, 3, 2)
        assert not adjacent(spec, upper(spec, 1, 2, 3), upper(spec, 1, 2, 4))
        assert not adjacent(spec, lower(spec, 1, 2), lower(spec, 1, 2))

    def test_rejects_wrong_cardinality(self):
        spec = LevelGraphSpec(4, 3, 2)
        with pytest.raises(InvalidParametersError):
            adjacent(spec, upper(spec, 1, 2), lower(spec, 1, 2))


class TestNeighborhoods:
    def test_neighbors_down_example(self):
        spec = LevelGraphSpec(5, 3, 2)
        got = {v.set.elements() for v in neighbors_down(spec, upper(spec, 1, 2, 5))}
        assert got == {(1, 2), (1, 5), (2, 5)}

    def test_neighbors_down_count(self):
        spec = LevelGraphSpec(8, 5, 2)
        u = upper(spec, 2, 3, 5, 7, 8)
        nbrs = list(neighbors_down(spec, u))
        assert len(nbrs) == binomial(5, 2)
        assert all(adjacent(spec, u, v) for v in nbrs)

    def test_neighbors_up_example(self):
        spec = LevelGraphSpec(4, 3, 2)
        got = {v.set.elements() for v in neighbors_up(spec, lower(spec, 1, 4))}
        assert got == {(1, 2, 4), (1, 3, 4)}

    def test_neighbors_up_count(self):
        spec = LevelGraphSpec(6, 4, 2)
        nbrs = list(neighbors_up(spec, lower(spec, 2, 5)))
        assert len(nbrs) == binomial(4, 2) == 6

    @pytest.mark.parametrize("n,k,l", [(5, 3, 2), (6, 4, 2), (7, 4, 3), (7, 3, 1)])
    def test_up_down_symmetry(self, n, k, l):
        spec = LevelGraphSpec(n, k, l)
        for u in (VertexRef(Level.UPPER, s) for s in enumerate_k_subsets(n, k)):
            for v in neighbors_down(spec, u):
                assert u in set(neighbors_up(spec, v))


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
                        binomial(n, k) * stats["upper_degree"]
                        == binomial(n, l) * stats["lower_degree"]
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
            u, v = g.vertex(i), g.vertex(j)
            assert (g.closed[i] >> j & 1 == 1) == adjacent(spec, u, v)

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
        for i in range(g.vertex_count):
            v = g.vertex(i)
            assert v.mask == g.masks[i]
            if i < g.upper_count:
                assert v.level is Level.UPPER and rank(v.set, spec.k) == i
            else:
                assert v.level is Level.LOWER
                assert rank(v.set, spec.l) == i - g.upper_count

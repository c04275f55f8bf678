import functools
import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import textwrap
import time
from dataclasses import fields, replace
from fractions import Fraction
from math import ceil, comb
from operator import and_, or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubedom.constructions
import cubedom.solver
from cubedom.cli import main
from cubedom.constructions import (
    DominationCertificate,
    Provenance,
    certificate_to_json,
    theorem1_construct,
    verify_certificate,
)
from cubedom.errors import CheckFailedError, InvalidParametersError, TooLargeError
from cubedom.levelgraph import LevelGraphSpec, materialize
from cubedom.solver import (
    DEFAULT_NODE_BUDGET,
    Method,
    SolveReport,
    branch_and_bound_gamma,
    counting_lower_bound,
    duality_lower_bound,
    greedy_dominate,
    pair_graph_lower_bound,
    spec_lower_bound,
)

import oracles
from oracles import brute_force_gamma, milp_gamma, seeded_search


def oracle_counting_bound(n, k, l):
    """Direct enumeration of the two-constraint program, no scanning tricks."""
    lowers, uppers = comb(n, l), comb(n, k)
    cov_low, cov_up = comb(k, l), comb(n - l, k - l)
    best = None
    for a in range(lowers + 1):
        for b in range(lowers + uppers + 1):
            if a * cov_low + b >= lowers and b * cov_up + a >= uppers:
                if best is None or a + b < best:
                    best = a + b
                break
    return best


@functools.cache
def exact_l2(n, k):
    """Branch and bound on (n, k, 2) at the default budget, run once."""
    return seeded_search(materialize(LevelGraphSpec(n, k, 2)))


class TestCountingLowerBound:
    def test_small_instance(self):
        # The relaxation at (4,3,2): two uppers cover all six pairs but only
        # themselves among the four triples, so a third member is forced.
        assert counting_lower_bound(LevelGraphSpec(4, 3, 2)) == 3
        assert counting_lower_bound(LevelGraphSpec(4, 3, 2)) == oracle_counting_bound(4, 3, 2)

    def test_matches_enumeration_oracle(self):
        for n in range(3, 10):
            for k in range(2, n):
                for l in range(1, k):
                    got = counting_lower_bound(LevelGraphSpec(n, k, l))
                    assert got == oracle_counting_bound(n, k, l), (n, k, l)

    def test_at_least_two(self):
        for n in range(3, 12):
            for k in range(2, n):
                assert counting_lower_bound(LevelGraphSpec(n, k, k - 1)) >= 2
                assert counting_lower_bound(LevelGraphSpec(n, k, 1)) >= 2

    def test_below_exact_gamma(self):
        for n in range(3, 7):
            for k in range(2, n):
                for l in range(1, k):
                    spec = LevelGraphSpec(n, k, l)
                    assert counting_lower_bound(spec) <= brute_force_gamma(materialize(spec)).size


def chain_clique_floor(n, k, m):
    """The Moon-Moser chain step by step in exact fractions: from
    x_2 = m/n, x_{s+1} = (s^2 x_s - n)/(s^2 - 1), and the ceiling of
    n x_2 ... x_k, or 0 once some x_s <= 0."""
    x, total = Fraction(m, n), Fraction(n)
    for s in range(2, k + 1):
        if x <= 0:
            return 0
        total *= x
        x = (s * s * x - n) / (s * s - 1)
    return ceil(total)


# Values of gamma(G_{k,2}) that HiGHS proved on rows branch and bound left
# open at the conjecture table's budget when they were taken; (12,7) is a
# theorem-1 row.
# (13,8) is past the table; HiGHS took 126 s, and branch and bound proves
# it at the default budget in 5,136,931 nodes, about 1.7 s (CI runs it).
# (9,4) moved to FROZEN_GAMMA once branch and bound proved it too, from
# the improver's incumbent.
HIGHS_GAMMA = {(8, 3): 18, (9, 3): 24, (9, 5): 10, (10, 3): 30, (10, 4): 19,
               (10, 5): 14, (11, 4): 24, (11, 6): 12, (12, 7): 11, (13, 8): 10}
# README's frozen values of gamma(G_{k,2}).
FROZEN_GAMMA = {(6, 3): 9, (6, 4): 6, (7, 3): 13, (7, 4): 9, (8, 3): 18, (8, 4): 12,
                (8, 5): 8, (8, 6): 6, (9, 4): 15, (9, 5): 10, (10, 6): 9}


class TestPairGraphLowerBound:
    def test_clique_floor_below_every_graph_at_n6(self):
        # Every graph on 6 vertices, as a mask over the 15 pairs: the floor
        # never exceeds the fewest k-cliques at any edge count.
        pairs = list(itertools.combinations(range(6), 2))
        bit = {p: 1 << i for i, p in enumerate(pairs)}
        for k in (3, 4, 5):
            cliques = [sum(bit[p] for p in itertools.combinations(c, 2))
                       for c in itertools.combinations(range(6), k)]
            fewest = [None] * 16
            for graph in range(1 << 15):
                count = sum(graph & c == c for c in cliques)
                m = graph.bit_count()
                if fewest[m] is None or count < fewest[m]:
                    fewest[m] = count
            floors = [cubedom.solver._clique_floor(6, k, m) for m in range(16)]
            assert all(f <= c for f, c in zip(floors, fewest)), (k, floors, fewest)
            # The complete graph meets it: C(6,k) cliques.
            assert floors[15] == fewest[15] == comb(6, k)

    def test_clique_floor_is_the_chain(self):
        # Above the first m where the chain reads 0 every m is compared;
        # below it both read 0, as the chain's x_s grow with m.
        for n in range(4, 41):
            for k in range(3, n):
                for m in range(comb(n, 2), -1, -1):
                    got = cubedom.solver._clique_floor(n, k, m)
                    assert got == chain_clique_floor(n, k, m), (n, k, m)
                    if got == 0:
                        break
                assert not any(cubedom.solver._clique_floor(n, k, low) for low in range(m))

    def test_at_most_known_gamma(self):
        for (n, k), gamma in {**FROZEN_GAMMA, **HIGHS_GAMMA}.items():
            assert pair_graph_lower_bound(n, k) <= gamma, (n, k)

    def test_at_most_gamma_proven_by_branch_and_bound(self):
        proven = 0
        for n in range(4, 9):
            for k in range(3, n):
                report = seeded_search(materialize(LevelGraphSpec(n, k, 2)), node_budget=200_000)
                if report.proven_optimal:
                    proven += 1
                    assert pair_graph_lower_bound(n, k) <= report.value, (n, k)
        # Every one: (8,3) proves in 179,287 nodes on the [k] side since
        # orbits reach five members and forced vertices eight (it stopped
        # at the budget when they reached four and seven), and in 96,311
        # with the lower side in turn.
        assert proven == 15

    def test_at_least_counting_bound(self):
        for n in range(4, 65):
            for k in range(3, n):
                spec = LevelGraphSpec(n, k, 2)
                assert pair_graph_lower_bound(n, k) >= counting_lower_bound(spec), (n, k)

    def test_values(self):
        # Above the counting bound at (6,3), (8,4) and (9,6), where it meets
        # gamma at (6,3) and (9,6); far above it at n = 64.
        specs = [(6, 3), (8, 4), (9, 6), (12, 7)]
        assert [pair_graph_lower_bound(n, k) for n, k in specs] == [9, 10, 7, 9]
        assert [counting_lower_bound(LevelGraphSpec(n, k, 2)) for n, k in specs] == [8, 9, 6, 7]
        assert (pair_graph_lower_bound(64, 5), pair_graph_lower_bound(64, 8)) == (634, 324)

    def test_is_the_l2_bound_of_both_solvers(self):
        # Greedy's (9,6,2) cover of 7 meets the bound, so branch and bound
        # ends at the root; at (6,3,2) greedy finds 11, and the search ends
        # with the first family of 9 it finds.
        graph = materialize(LevelGraphSpec(9, 6, 2))
        greedy = greedy_dominate(graph)
        assert (greedy.value, greedy.lower_bound, greedy.proven_optimal) == (7, 7, True)
        report = branch_and_bound_gamma(graph, greedy)
        assert (report.value, report.proven_optimal, report.nodes_explored) == (7, True, 0)
        assert greedy_dominate(materialize(LevelGraphSpec(6, 3, 2))).lower_bound == 9

    def test_root_bound_is_not_read_from_the_incumbent(self):
        # A hand-built report may carry any lower bound; the search still
        # proves (7,4,2) from its own.  The forced-vertex rule cut its tree
        # from 3,419 nodes to 1,107, and the deeper orbit and forced-vertex
        # caps to 1,065.
        graph = materialize(LevelGraphSpec(7, 4, 2))
        greedy = greedy_dominate(graph)
        claimed = replace(greedy, lower_bound=greedy.value)
        report = branch_and_bound_gamma(graph, claimed)
        assert (report.value, report.nodes_explored) == (9, 1_065)

    def test_exported(self):
        import cubedom

        assert cubedom.pair_graph_lower_bound is pair_graph_lower_bound

    @pytest.mark.parametrize("n,k", [(5, 2), (5, 1), (3, 3), (65, 3)])
    def test_rejects_what_is_not_an_l2_spec(self, n, k):
        with pytest.raises(InvalidParametersError):
            pair_graph_lower_bound(n, k)


class TestBruteForce:
    def test_theorem2_value_n4(self):
        witness = brute_force_gamma(materialize(LevelGraphSpec(4, 3, 2)))
        assert witness.size == 3
        assert witness.provenance is Provenance.EXACT

    def test_gk1_value(self):
        assert brute_force_gamma(materialize(LevelGraphSpec(5, 2, 1))).size == 4

    def test_frozen_regression_values(self):
        # Ground-truth constants computed by this oracle and frozen.
        assert brute_force_gamma(materialize(LevelGraphSpec(6, 4, 2))).size == 6
        assert brute_force_gamma(materialize(LevelGraphSpec(6, 3, 2))).size == 9
        assert brute_force_gamma(materialize(LevelGraphSpec(6, 4, 3))).size == 9
        assert brute_force_gamma(materialize(LevelGraphSpec(5, 3, 2))).size == 6

    def test_witness_verifies_and_is_lex_least(self):
        spec = LevelGraphSpec(4, 3, 2)
        witness = brute_force_gamma(materialize(spec))
        assert verify_certificate(witness).verified
        # Independent check of lex-leastness over all 3-subsets of vertices.
        g = materialize(spec)
        masks = g.closed
        full = (1 << g.vertex_count) - 1
        dominating = [
            c
            for c in itertools.combinations(range(g.vertex_count), 3)
            if masks[c[0]] | masks[c[1]] | masks[c[2]] == full
        ]
        least = min(dominating)
        got = sorted(g.masks.index(m) for m in witness.uppers | witness.lowers)
        assert tuple(got) == least

    def test_budget_exceeded(self, monkeypatch):
        monkeypatch.setattr(oracles, "BRUTE_FORCE_NODE_BUDGET", 50)
        with pytest.raises(TooLargeError):
            brute_force_gamma(materialize(LevelGraphSpec(6, 3, 2)))


class TestGreedy:
    def test_upper_bound_and_verified_witness(self):
        spec = LevelGraphSpec(4, 3, 2)
        report = greedy_dominate(materialize(spec))
        assert report.value <= 4
        assert report.value >= 3  # exact gamma here is 3
        assert verify_certificate(report.witness).verified

    def test_value_at_least_two(self):
        for n in range(3, 8):
            for k in range(2, n):
                for l in range(1, k):
                    assert greedy_dominate(materialize(LevelGraphSpec(n, k, l))).value >= 2

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_cover_is_irredundant(self, data):
        # The cover dominates, and leaving out any one pick does not.
        n = data.draw(st.integers(3, 8))
        k = data.draw(st.integers(2, n - 1))
        l = data.draw(st.integers(1, k - 1))
        graph = materialize(LevelGraphSpec(n, k, l))
        full = (1 << graph.vertex_count) - 1
        witness = greedy_dominate(graph).witness
        closed = [graph.closed[graph.masks.index(m)] for m in witness.uppers | witness.lowers]
        assert functools.reduce(or_, closed) == full
        for j in range(len(closed)):
            rest = closed[:j] + closed[j + 1:]
            assert functools.reduce(or_, rest, 0) != full, j

    def test_deterministic(self):
        spec = LevelGraphSpec(7, 4, 2)
        a = greedy_dominate(materialize(spec))
        b = greedy_dominate(materialize(spec))
        assert a.value == b.value
        assert a.witness == b.witness


class TestBranchAndBound:
    @pytest.mark.parametrize("n", [7, 64])
    def test_incumbent_at_the_root_bound_returns_before_the_tables(self, monkeypatch, n):
        # Greedy proves (n, n-1, 2) with 3 members, so branch and bound
        # returns its family with 0 nodes and builds none of the search's
        # tables.
        graph = materialize(LevelGraphSpec(n, n - 1, 2))
        greedy = greedy_dominate(graph)
        assert greedy.proven_optimal

        def refuse(*args):
            raise AssertionError("built a table of the search")

        monkeypatch.setattr(cubedom.solver, "_cap_table", refuse)
        monkeypatch.setattr(cubedom.solver, "_split_atoms", refuse)
        report = branch_and_bound_gamma(graph, greedy)
        assert (report.value, report.lower_bound, report.nodes_explored) == (3, 3, 0)
        assert report.witness == replace(greedy.witness, provenance=Provenance.EXACT)

    def test_matches_brute_force_n_le_6(self):
        for n in range(3, 7):
            for k in range(2, n):
                for l in range(1, k):
                    spec = LevelGraphSpec(n, k, l)
                    bf = brute_force_gamma(materialize(spec))
                    bb = seeded_search(materialize(spec))
                    assert bb.proven_optimal
                    assert bb.value == bf.size, (n, k, l)

    @pytest.mark.parametrize("n,k,l", [
        (n, k, l) for n in (7, 8) for k in range(2, n) for l in range(1, k)
        if comb(n, k) + comb(n, l) <= 60
    ])
    def test_matches_brute_force_n_7_8(self, n, k, l):
        # With test_matches_brute_force_n_le_6, every spec with n <= 8 and
        # at most 60 vertices: the cap bound prunes for every l.  The name
        # is kept, but the oracle here is HiGHS: brute force took over a
        # minute for these twenty, HiGHS takes about 2 s.
        graph = materialize(LevelGraphSpec(n, k, l))
        bb = seeded_search(graph)
        assert bb.proven_optimal
        assert bb.value == milp_gamma(graph)

    def test_theorem2_at_n9(self):
        report = seeded_search(materialize(LevelGraphSpec(9, 8, 2)))
        assert report.value == 3
        assert report.proven_optimal

    def test_frozen_n7_k4(self):
        # Frozen from this solver; also below the ceil(7/2)+6 = 10 bound.
        # Fixing [k] in the set cut the search from 2,518,311 nodes to
        # 406,101, skipping whole orbits of its stabilizer at the root cut
        # it to 111,757, the two-level cap bound to 25,245, orbits down
        # to ORBIT_DEPTH members to 3,419, forced vertices down to
        # FORCED_DEPTH members to 1,107, and ORBIT_DEPTH 5 with FORCED_DEPTH
        # 8 (4 and 7 before) to 1,065.  The node count is deterministic and
        # pins the search tree.
        report = seeded_search(materialize(LevelGraphSpec(7, 4, 2)))
        assert report.proven_optimal
        assert report.value == 9
        assert report.value <= 10
        assert report.nodes_explored == 1_065

    def test_frozen_n8_k5(self):
        # 1,249,137 nodes with [k] fixed; 234,897 with the root orbits
        # skipped; 30,041 with the two-level cap bound; 3,463 with orbits
        # below the root; 3,219 with forced vertices; 1,839 with orbits to
        # five members and forced vertices to eight.  The count fails if
        # the orbit rule, the cap bound or the forced-vertex rule is lost.
        report = seeded_search(materialize(LevelGraphSpec(8, 5, 2)))
        assert report.proven_optimal
        assert report.value == 8
        assert report.nodes_explored == 1_839

    def test_frozen_n9_k5(self):
        # HiGHS gives 10 too (HIGHS_GAMMA), so the value is frozen.  The
        # search took 1,942,687 nodes with orbits to four members and
        # forced vertices to seven, and 961,545 with five and eight.  Now
        # the improver turns greedy's 11 into 10 at IMPROVE_AT nodes, and
        # the search ends about 1,200 nodes later: 51,165 on the [k] side
        # alone, 51,626 with the lower side's turn first.
        report = exact_l2(9, 5)
        assert report.proven_optimal
        assert (report.value, report.nodes_explored) == (10, 51_626)

    def test_frozen_n9_k4(self):
        # HiGHS gives 15 too (HIGHS_GAMMA until this proof), so the value
        # is frozen.  Greedy gives 16, and the search alone found nothing
        # smaller in 10^7 nodes; from the improver's 15 the [k] side proves
        # it in 353,303 nodes, and with the lower side in turn, which
        # needs 57,531 from 15, in 157,534: inside the conjecture table's
        # budget.
        report = exact_l2(9, 4)
        assert report.proven_optimal
        assert (report.value, report.nodes_explored) == (15, 157_534)

    # (7,3,2), (8,4,2) and (10,6,2) are frozen because HiGHS agrees
    # (test_agrees_with_milp).  The ids leave out the node count, so a
    # re-pin keeps the test's name.  (7,3,2) went from 125,815 nodes to
    # 4,141 when greedy began to drop redundant picks: the search starts
    # from 13, the optimum, where it started from 15.  (6,3,2) went from
    # 3,843 to 3,805 with the pair-graph root bound of 9: the search ends
    # at the first family of 9 it finds.  The forced-vertex rule moved
    # (6,3) 3,805 -> 807, (8,6) 205 -> 169, (7,3) 4,141 -> 223, (8,4)
    # 92,213 -> 28,777, (10,6) 14,331 -> 10,547, (6,4) 71 -> 39 and (7,5)
    # 169 -> 133.  Orbits to five members and forced vertices to eight
    # (four and seven before) moved (6,3) 807 -> 625, (7,3) 223 -> 209,
    # (8,4) 28,777 -> 16,843 and (10,6) 10,547 -> 8,659.  With the two
    # frozen tests above, these pin the tree of every l = 2 spec of the
    # bench's prove grid.  (8,3,2) passes IMPROVE_AT, so the lower side
    # takes turns with the [k] side: 96,311 nodes, where the [k] side
    # alone took 179,287.  The duality bound min(n, n - k + 4) is the
    # root bound of (8,6), (6,4) and (7,5), 6 where the pair-graph bound
    # read 4, 5 and 4, and greedy's 6 meets it: 169, 39 and 133 nodes -> 0.
    @pytest.mark.parametrize("n,k,gamma,nodes", [
        (6, 3, 9, 625), (8, 6, 6, 0), (7, 3, 13, 209), (8, 4, 12, 16_843),
        (10, 6, 9, 8_659), (6, 4, 6, 0), (7, 5, 6, 0), (8, 3, 18, 96_311),
    ], ids=["6-3", "8-6", "7-3", "8-4", "10-6", "6-4", "7-5", "8-3"])
    def test_search_tree_pinned(self, n, k, gamma, nodes):
        report = exact_l2(n, k)
        assert report.proven_optimal
        assert (report.value, report.nodes_explored) == (gamma, nodes)

    def test_search_tree_pinned_at_budget(self):
        # (8,4,2) needs 16,843 nodes, so it spends the whole budget: the
        # node that exceeds it is counted, and the report keeps the
        # incumbent and the root bound, the pair-graph bound of 10 (the
        # counting bound, 9, until that bound was added).  The budget was
        # 50,000 while the search took 92,213 nodes, and 20,000 while it
        # took 28,777.
        report = seeded_search(materialize(LevelGraphSpec(8, 4, 2)), node_budget=10_000)
        assert not report.proven_optimal
        assert (report.nodes_explored, report.value, report.lower_bound) == (10_001, 12, 10)

    @pytest.mark.parametrize("budget,expected", [
        (1, (2, 12, 10)), (2, (3, 12, 10)),
        pytest.param(16_842, (16_843, 12, 10), id="one-short"),
        pytest.param(16_843, (16_843, 12, 12), id="exact"),
    ])
    def test_budget_edges(self, budget, expected):
        # (8,4,2) proves in exactly 16,843 nodes (92,213 before the
        # forced-vertex rule, 28,777 with orbits to four members and forced
        # vertices to seven).  One less, and the node that exceeds the
        # budget is counted.  The root's include child is node 2, counted
        # as it is made.
        report = seeded_search(materialize(LevelGraphSpec(8, 4, 2)), node_budget=budget)
        assert (report.nodes_explored, report.value, report.lower_bound) == expected
        assert report.proven_optimal == (budget == 16_843)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_forced_depth_moves_only_the_node_count(self, n, monkeypatch):
        # The forced-vertex rule is sound at every depth, so checking it
        # at every node, or only where orbits are taken (its least depth),
        # finds the same incumbents: the same witness, bound and proof,
        # with no more nodes where it checks more.  The improver stays
        # off: it runs at a node count, which the depth moves.
        monkeypatch.setattr(cubedom.solver, "IMPROVE_AT", 10**9)
        for k in range(2, n):
            for l in range(1, k):
                graph = materialize(LevelGraphSpec(n, k, l))
                greedy = greedy_dominate(graph)
                runs = []
                for depth in (cubedom.solver.ORBIT_DEPTH, cubedom.solver.FORCED_DEPTH, 10**9):
                    monkeypatch.setattr(cubedom.solver, "FORCED_DEPTH", depth)
                    runs.append(branch_and_bound_gamma(graph, greedy, node_budget=200_000))
                assert len({replace(r, nodes_explored=0, elapsed=0.0) for r in runs}) == 1
                assert runs[0].proven_optimal, (n, k, l)
                nodes = [r.nodes_explored for r in runs]
                assert nodes == sorted(nodes, reverse=True), (n, k, l, nodes)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_orbit_depth_moves_only_the_node_count(self, n, monkeypatch):
        # Orbital branching drops no family smaller than the incumbent, and
        # the include branch, where the image of a dropped family lies,
        # comes first; so orbits at the root only or down to any depth find
        # the same incumbents: the same witness, bound and proof, with no
        # more nodes where orbits reach deeper.  The improver stays off: it
        # runs at a node count, which the depth moves; with orbits at the
        # root only, (7,5,4) passes 50,000 nodes, and the improver's 13
        # is another family than the one the search finds later.
        monkeypatch.setattr(cubedom.solver, "IMPROVE_AT", 10**9)
        for k in range(2, n):
            for l in range(1, k):
                graph = materialize(LevelGraphSpec(n, k, l))
                greedy = greedy_dominate(graph)
                runs = []
                for depth in (1, 4, 5, 6):
                    monkeypatch.setattr(cubedom.solver, "ORBIT_DEPTH", depth)
                    runs.append(branch_and_bound_gamma(graph, greedy, node_budget=1_000_000))
                assert len({replace(r, nodes_explored=0, elapsed=0.0) for r in runs}) == 1
                assert runs[0].proven_optimal, (n, k, l)
                nodes = [r.nodes_explored for r in runs]
                assert nodes == sorted(nodes, reverse=True), (n, k, l, nodes)

    def test_seeded_with_greedy_report(self):
        # The search starts from the incumbent's witness, and keeps it when
        # the budget runs out first; a report on another spec is rejected.
        graph = materialize(LevelGraphSpec(7, 4, 2))
        greedy = greedy_dominate(graph)
        report = branch_and_bound_gamma(graph, greedy, node_budget=1)
        assert not report.proven_optimal
        assert (report.witness.uppers, report.witness.lowers) == (
            greedy.witness.uppers, greedy.witness.lowers)
        other = greedy_dominate(materialize(LevelGraphSpec(7, 3, 2)))
        with pytest.raises(InvalidParametersError, match="incumbent"):
            branch_and_bound_gamma(graph, other)

    def test_search_depth_is_not_bounded_by_recursion(self):
        # A recursive search needs about 124 frames here; 40 frames above
        # the caller leave room only for the calls around the loop.
        graph = materialize(LevelGraphSpec(16, 8, 2))
        free = seeded_search(graph, node_budget=20_000)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            bounded = seeded_search(graph, node_budget=20_000)
        finally:
            sys.setrecursionlimit(limit)
        assert replace(bounded, elapsed=0.0) == replace(free, elapsed=0.0)

    @pytest.mark.parametrize("n,k,gamma", [(7, 4, 9), (8, 5, 8), (8, 6, 6), (7, 3, 13),
                                           (8, 4, 12), (10, 6, 9), (8, 3, 18)])
    def test_agrees_with_milp(self, n, k, gamma):
        # A second, independent method for the frozen l=2 values.
        # (10,6,2) takes HiGHS about 10 s, (8,3,2) about 1.4 s; branch and
        # bound proves (8,3,2) in 96,311 nodes (1,790,409 before the
        # forced-vertex rule, 542,167 with orbits to four members and forced
        # vertices to seven, 179,287 with five and eight on the [k] side
        # alone).
        assert milp_gamma(materialize(LevelGraphSpec(n, k, 2))) == gamma
        report = exact_l2(n, k)
        assert report.proven_optimal
        assert report.value == gamma

    def test_complement_duality_n8_k3(self):
        # S -> [n] \ S maps k-sets to (n-k)-sets and l-sets to (n-l)-sets,
        # reversing inclusion, so G_{k,l} and G_{n-l,n-k} are isomorphic:
        # gamma(G_{6,5}) at n = 8 is gamma(G_{3,2}) = 18, proven here by a
        # search over another graph, in 46,309 nodes (205,407 with orbits
        # to four members and forced vertices to seven).
        report = seeded_search(materialize(LevelGraphSpec(8, 6, 5)))
        assert report.proven_optimal
        assert (report.value, report.nodes_explored) == (18, 46_309)

    def test_complement_duality_n_le_7(self):
        # The same map at all 35 specs with n <= 7: branch and bound proves
        # the same gamma on (n,k,l) and on (n,n-l,n-k).  Both searches
        # re-check their witnesses structurally, whatever their l.
        specs = [(n, k, l) for n in range(3, 8) for k in range(2, n) for l in range(1, k)]
        assert len(specs) == 35
        for n, k, l in specs:
            spec = seeded_search(materialize(LevelGraphSpec(n, k, l)))
            dual = seeded_search(materialize(LevelGraphSpec(n, n - l, n - k)))
            assert spec.proven_optimal and dual.proven_optimal
            assert spec.value == dual.value, (n, k, l)

    def test_budget_returns_heuristic_report(self):
        report = seeded_search(materialize(LevelGraphSpec(7, 4, 2)), node_budget=100)
        assert not report.proven_optimal
        assert report.lower_bound <= report.value
        assert verify_certificate(report.witness).verified

    def test_deterministic(self):
        spec = LevelGraphSpec(6, 3, 2)
        a = seeded_search(materialize(spec), node_budget=5000)
        b = seeded_search(materialize(spec), node_budget=5000)
        assert (a.value, a.lower_bound, a.proven_optimal, a.nodes_explored) == (
            b.value,
            b.lower_bound,
            b.proven_optimal,
            b.nodes_explored,
        )
        assert a.witness == b.witness


def transposed(graph, chosen, a, b):
    """The vertices of ``chosen`` under the transposition of elements a
    and b (0-based), an automorphism of the graph."""
    def swap(m):
        if (m >> a & 1) != (m >> b & 1):
            m ^= 1 << a | 1 << b
        return m

    index = {m: i for i, m in enumerate(graph.masks)}
    return [index[swap(graph.masks[i])] for i in chosen]


def count_sides(monkeypatch):
    """A dict that maps each side's anchor to the nodes that side has
    counted, kept up to date as branch and bound's sides run."""
    counts = {}
    search = cubedom.solver._search

    def counted(graph, anchor, *rest):
        side = search(graph, anchor, *rest)
        sent = None
        while True:
            try:
                counts[anchor] = side.send(sent)
            except StopIteration as stop:
                counts[anchor] = stop.value[1]
                return stop.value
            sent = yield counts[anchor]

    monkeypatch.setattr(cubedom.solver, "_search", counted)
    return counts


def family_of(report, graph):
    """The vertex indices of a report's witness, sorted."""
    index = {m: i for i, m in enumerate(graph.masks)}
    return sorted(index[m] for m in report.witness.uppers | report.witness.lowers)


def side_bounds(n, k, l):
    """The root bounds of G_{k,l} and of its image G_{n-l,n-k}, each the
    pair-graph bound for l = 2 and the counting bound otherwise."""
    def bound(k, l):
        return pair_graph_lower_bound(n, k) if l == 2 else counting_lower_bound(
            LevelGraphSpec(n, k, l))
    return bound(k, l), bound(n - l, n - k)


def duality_cases(n, k, l):
    """README's case split of the duality bound, with c = n - k."""
    c = n - k
    if l == 1:
        return c + 1
    if c == 1:
        return l + 1
    return min(n, c + l + 2)


def image_report(report, spec):
    """``report`` with its witness carried by S -> [n] \\ S onto ``spec``,
    the image of its spec."""
    full = (1 << spec.n) - 1
    witness = DominationCertificate(spec, frozenset(full ^ m for m in report.witness.lowers),
                                    frozenset(full ^ m for m in report.witness.uppers),
                                    report.witness.provenance)
    return replace(report, witness=witness)


class TestTwoSides:
    """Branch and bound's two anchors, [k] and the lower vertex
    {n-l+1, ..., n}, which S -> [n] \\ S maps to the [k] of the image
    G_{n-l,n-k}."""

    def test_root_bound_is_the_larger_of_both_sides(self):
        # The root bound is the largest of the duality bound and both
        # sides' bounds.  The counting bound is the same on both sides, so
        # only k = n - 2 gains from its image, from the pair-graph bound:
        # 25 side bounds rise for n <= 12, none of them with l = 2.  The
        # duality bound then raises 69 root bounds for n <= 12, 11 of them
        # with l = 2.
        risen, raised = [], []
        for n in range(3, 13):
            for k in range(2, n):
                for l in range(1, k):
                    spec, image = LevelGraphSpec(n, k, l), LevelGraphSpec(n, n - l, n - k)
                    assert counting_lower_bound(spec) == counting_lower_bound(image)
                    own, other = side_bounds(n, k, l)
                    dual = duality_cases(n, k, l)
                    assert spec_lower_bound(spec) == spec_lower_bound(image) == max(own, other, dual)
                    if other > own:
                        risen.append((n, k, l, own, other))
                    if dual > max(own, other):
                        raised.append((n, k, l, max(own, other), dual))
        assert len(risen) == 25 and all(l != 2 for _, _, l, _, _ in risen)
        assert {(9, 7, 5, 11, 14), (12, 10, 7, 13, 18)} <= set(risen)
        assert len(raised) == 69 and sum(l == 2 for _, _, l, _, _ in raised) == 11
        assert {(8, 6, 2, 4, 6), (8, 2, 1, 6, 7), (12, 11, 10, 9, 11)} <= set(raised)

    def test_duality_bound_is_the_case_split_and_equal_on_the_image(self):
        # At every spec with n <= 64: README's three cases, and the same
        # value on G_{k,l} and on its image G_{n-l,n-k}, so both sides of
        # the complement map keep one root bound.
        for n in range(3, 65):
            for k in range(2, n):
                for l in range(1, k):
                    got = duality_lower_bound(LevelGraphSpec(n, k, l))
                    assert got == duality_cases(n, k, l), (n, k, l)
                    assert got == duality_lower_bound(LevelGraphSpec(n, n - l, n - k)), (n, k, l)

    def test_root_bounds_at_most_gamma(self, monkeypatch):
        # The root bound, and so both sides' bounds and the duality bound,
        # at every frozen and HiGHS value of gamma(G_{k,2}) and its image,
        # and at every gamma that branch and bound proves at n <= 8, for
        # every l.  The searches run without the duality bound, whose
        # stand-in 1 leaves the root bound as it was before it, so a bound
        # above gamma cannot end one early and prove itself.
        for (n, k), gamma in {**FROZEN_GAMMA, **HIGHS_GAMMA}.items():
            for spec in (LevelGraphSpec(n, k, 2), LevelGraphSpec(n, n - 2, n - k)):
                assert spec_lower_bound(spec) <= gamma, spec
        bounds = {(n, k, l): spec_lower_bound(LevelGraphSpec(n, k, l))
                  for n in range(3, 9) for k in range(2, n) for l in range(1, k)}
        monkeypatch.setattr(cubedom.solver, "duality_lower_bound", lambda spec: 1)
        proven = tight = 0
        for (n, k, l), bound in bounds.items():
            report = seeded_search(materialize(LevelGraphSpec(n, k, l)), 200_000)
            if report.proven_optimal:
                proven += 1
                assert bound <= report.value, (n, k, l)
                tight += duality_cases(n, k, l) == report.value
        # All but (8,4,3), (8,5,3) and (8,5,4).  The duality bound is gamma
        # at all 21 specs with l = 1, all 15 with k = n - 1 and l >= 2, and
        # at (6,4,2), (7,5,2) and (8,6,2).
        assert (proven, tight) == (53, 39)

    def test_lower_side_is_the_k_side_on_the_image(self, monkeypatch):
        # With the improver out of reach, the lower side on G_{k,l}, from
        # greedy's family, visits the nodes of the [k] side on
        # G_{n-l,n-k}, from that family's image, one for one: the same
        # value, node count and proof, and the image of its witness.  On
        # every spec with n <= 8 (at most 126 vertices), at a budget that
        # three of them spend.
        monkeypatch.setattr(cubedom.solver, "IMPROVE_AT", 10**9)
        budget, spent = 300_000, 0
        for n in range(3, 9):
            for k in range(2, n):
                for l in range(1, k):
                    graph = materialize(LevelGraphSpec(n, k, l))
                    greedy = greedy_dominate(graph)
                    best = [family_of(greedy, graph)]
                    side = cubedom.solver._search(graph, graph.vertex_count - 1, best,
                                                  spec_lower_bound(graph.spec), {})
                    next(side)
                    with pytest.raises(StopIteration) as stop:
                        side.send((budget, budget))
                    done, nodes = stop.value.value
                    image = materialize(LevelGraphSpec(n, n - l, n - k))
                    report = branch_and_bound_gamma(image, image_report(greedy, image.spec),
                                                    budget)
                    full = (1 << n) - 1
                    assert (len(best[0]), nodes, done) == (
                        report.value, report.nodes_explored, report.proven_optimal), (n, k, l)
                    assert {full ^ graph.masks[i] for i in best[0]} == (
                        report.witness.uppers | report.witness.lowers), (n, k, l)
                    spent += not done
        assert spent == 3

    def test_budget_spans_both_sides(self, monkeypatch):
        # (8,4,3) is open at any budget here.  The [k] side runs alone to
        # IMPROVE_AT, then the sides take turns, the lower side first, and
        # nodes_explored is their sum, one past the budget.  A side ends
        # its slice at the first node it tests past the slice, which can
        # come after a run of include children: the lower side's first
        # slice ends at 50,002.  At 50,001 the lower side counts one node
        # and stops.
        counts = count_sides(monkeypatch)
        graph = materialize(LevelGraphSpec(8, 4, 3))
        greedy = greedy_dominate(graph)
        last = graph.vertex_count - 1
        for budget, k_side in ((30_000, 30_001), (50_001, 50_001), (120_000, 69_999)):
            counts.clear()
            report = branch_and_bound_gamma(graph, greedy, budget)
            assert not report.proven_optimal
            assert report.nodes_explored == budget + 1 == sum(counts.values())
            assert (counts[0], counts.get(last, 0)) == (k_side, budget + 1 - k_side)

    def test_own_image_runs_one_side(self, monkeypatch):
        # Where k + l = n, the complement map sends G_{k,l} onto itself and
        # the lower side's tree onto the [k] side's, so the [k] side runs
        # alone past IMPROVE_AT: (9,6,3) proves in 779,157 nodes, as each
        # side alone does, where taking turns took 1,529,185.  The
        # improver still runs once.
        counts = count_sides(monkeypatch)
        improve, calls = cubedom.solver._improve, []
        monkeypatch.setattr(cubedom.solver, "_improve",
                            lambda *args: calls.append(args) or improve(*args))
        graph = materialize(LevelGraphSpec(8, 5, 3))
        report = branch_and_bound_gamma(graph, greedy_dominate(graph), 120_000)
        assert not report.proven_optimal
        assert counts == {0: 120_001}
        assert len(calls) == 1

    def test_image_bound_at_9_7_5(self):
        # The pair-graph bound of the image (9,4,2) gives 14 where the
        # counting bound gives 11; both sides in turn prove 15 in 205,703
        # nodes, the [k] side alone in 105,701.
        graph = materialize(LevelGraphSpec(9, 7, 5))
        assert greedy_dominate(graph).lower_bound == 14
        report = seeded_search(graph)
        assert (report.value, report.proven_optimal, report.nodes_explored) == (15, True, 205_703)


class TestImprover:
    """The iterated-greedy improver that branch and bound runs once, past
    IMPROVE_AT nodes, and its mid-search incumbent."""

    @staticmethod
    def solve(monkeypatch, spec, trigger, node_budget=DEFAULT_NODE_BUDGET):
        monkeypatch.setattr(cubedom.solver, "IMPROVE_AT", trigger)
        graph = materialize(LevelGraphSpec(*spec))
        return branch_and_bound_gamma(graph, greedy_dominate(graph), node_budget)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_trigger_moves_only_the_node_count(self, n, monkeypatch):
        # Fired at once or never, the improver leaves every spec with
        # n <= 7 with the same value, bound and proof.  Fired at once, the
        # [k] side visits no more nodes than the whole search that never
        # fires it, the [k] side alone, since every prune is at least as
        # tight under a smaller incumbent.  The sides then take turns in
        # slices of one node, the lower side first, so the lower side
        # counts at most one node more than the [k] side when either
        # exhausts its tree: the total is at most 2 * never + 1.  Where
        # k + l = n the [k] side goes on alone, and the total is at most
        # never's.
        counts = count_sides(monkeypatch)
        for k in range(2, n):
            for l in range(1, k):
                counts.clear()
                early = self.solve(monkeypatch, (n, k, l), 1, 1_000_000)
                assert early.nodes_explored == sum(counts.values()), (n, k, l)
                early_k = counts.get(0, 0)
                never = self.solve(monkeypatch, (n, k, l), 10**9, 1_000_000)
                assert never.proven_optimal, (n, k, l)
                assert (early.value, early.lower_bound, early.proven_optimal) == (
                    never.value, never.lower_bound, never.proven_optimal), (n, k, l)
                assert early_k <= never.nodes_explored, (n, k, l)
                if k + l == n:
                    assert early.nodes_explored <= never.nodes_explored, (n, k, l)
                else:
                    assert early.nodes_explored <= 2 * never.nodes_explored + 1, (n, k, l)

    @pytest.mark.parametrize("n,k,gamma", [(7, 3, 13), (8, 4, 12), (6, 3, 9), (9, 5, 10)])
    def test_fired_mid_search(self, n, k, gamma, monkeypatch):
        # Wherever the search is when the improver runs, it ends with the
        # same proven value.  Greedy is optimal at (7,3) and (8,4); at
        # (6,3) and (9,5) the improver's family is smaller than greedy's,
        # and replaces the incumbent with the stack part-way down.
        for trigger in (1, 2, 3, 10, 100, 1_000):
            report = self.solve(monkeypatch, (n, k, 2), trigger)
            assert (report.value, report.lower_bound, report.proven_optimal) == (
                gamma, gamma, True), trigger

    def test_drop_to_the_root_bound_returns_proven(self, monkeypatch):
        # At (6,3,2) greedy gives 11 and the root bound is 9.  With the
        # trigger at 1, the improver runs where the loop next tests a node,
        # node 8, after the root's chain of include children; it finds 9,
        # and the search returns proven at once, with that family
        # re-verified (greedy's verification is the other call).
        calls = TestReportRecheck.count_verify_calls(monkeypatch)
        report = self.solve(monkeypatch, (6, 3, 2), 1)
        assert (report.value, report.lower_bound, report.nodes_explored) == (9, 9, 8)
        assert report.proven_optimal
        assert len(calls) == 2

    @pytest.mark.parametrize("n,k,l,gamma", [(6, 3, 2, 9), (6, 4, 3, 9), (7, 5, 4, 13),
                                             (9, 5, 2, 10)])
    def test_drop_reads_no_negative_cap_row(self, n, k, l, gamma, monkeypatch):
        # From greedy's family padded with six more vertices, the search
        # runs deep before the improver cuts the incumbent by several
        # members.  The open branches that can no longer beat it must go:
        # kept, they would index the cap tables below row 0, which Python
        # reads from the end.  Here every cap table raises on such a read.
        class NoNegativeRows(list):
            def __getitem__(self, row):
                assert row >= 0, f"cap-table row {row}"
                return list.__getitem__(self, row)

        cap_table = cubedom.solver._cap_table
        monkeypatch.setattr(cubedom.solver, "_cap_table",
                            lambda *args: NoNegativeRows(cap_table(*args)))
        graph = materialize(LevelGraphSpec(n, k, l))
        greedy = greedy_dominate(graph)
        members = greedy.witness.uppers | greedy.witness.lowers
        padded = members | frozenset([m for m in graph.masks if m not in members][:6])
        incumbent = replace(greedy, witness=replace(
            greedy.witness, uppers=frozenset(m for m in padded if m.bit_count() == k),
            lowers=frozenset(m for m in padded if m.bit_count() == l)))
        for trigger in (1, 10, 30, 100, 300, 1_000):
            monkeypatch.setattr(cubedom.solver, "IMPROVE_AT", trigger)
            report = branch_and_bound_gamma(graph, incumbent)
            assert (report.value, report.proven_optimal) == (gamma, True), trigger

    def test_equal_family_becomes_the_witness(self, monkeypatch):
        # An improver that returns another family of the same size makes
        # it the incumbent, and the search, finding nothing smaller,
        # reports it.
        graph = materialize(LevelGraphSpec(8, 4, 2))
        greedy = greedy_dominate(graph)
        image = transposed(graph, family_of(greedy, graph), 0, 7)
        assert sorted(image) != family_of(greedy, graph)
        monkeypatch.setattr(cubedom.solver, "IMPROVE_AT", 1)
        monkeypatch.setattr(cubedom.solver, "_improve", lambda graph, chosen, bound: image)
        report = branch_and_bound_gamma(graph, greedy)
        assert report.proven_optimal and report.value == 12
        assert family_of(report, graph) == sorted(image)

    def test_result_dominates_and_sits_between_gamma_and_greedy(self):
        # On every l = 2 spec with n <= 8, the improver's family dominates,
        # is no larger than greedy's and no smaller than the frozen gamma.
        for n in range(4, 9):
            for k in range(3, n):
                graph = materialize(LevelGraphSpec(n, k, 2))
                greedy = greedy_dominate(graph)
                better = cubedom.solver._improve(graph, family_of(greedy, graph), 0)
                report = cubedom.solver._report(graph, Method.GREEDY, better, 0, 0, 0.0)
                assert report.value <= greedy.value, (n, k)
                assert report.value >= FROZEN_GAMMA.get((n, k), 0), (n, k)

    @pytest.mark.parametrize("seed", range(10))
    def test_reaches_highs_on_every_seed(self, seed, monkeypatch):
        # From greedy's 11 and 16, the improver reaches HiGHS's 10 at (9,5)
        # and 15 at (9,4) with each of ten seeds, not only the one in use.
        monkeypatch.setattr(cubedom.solver, "IMPROVE_SEED", seed)
        for (n, k), values in {(9, 5): (11, 10), (9, 4): (16, 15)}.items():
            graph = materialize(LevelGraphSpec(n, k, 2))
            greedy = greedy_dominate(graph)
            better = cubedom.solver._improve(graph, family_of(greedy, graph), 0)
            assert (greedy.value, len(better)) == values

    def test_best_dominator_counting_paths_agree(self):
        # The pick is the least dominator of u with the most vertices of
        # missing in its closed neighbourhood, whether those are counted
        # per dominator or, bit-sliced, per missing vertex.
        rng = random.Random(7)
        for spec in [(7, 3, 2), (9, 5, 2), (8, 6, 3), (7, 2, 1)]:
            graph = materialize(LevelGraphSpec(*spec))
            masks, nv = graph.closed, graph.vertex_count
            for size in (1, 2, 3, 5, 10, nv // 2, nv):
                for _ in range(10):
                    missing = sum(1 << v for v in rng.sample(range(nv), size))
                    u = rng.choice([v for v in range(nv) if missing >> v & 1])
                    want = min((v for v in range(nv) if masks[u] >> v & 1),
                               key=lambda v: (-(masks[v] & missing).bit_count(), v))
                    assert cubedom.solver._best_dominator(masks, u, missing, {}) == want

    def test_global_random_state_untouched(self, monkeypatch):
        random.seed(12345)
        state = random.getstate()
        report = self.solve(monkeypatch, (9, 5, 2), 1)
        assert report.value == 10
        assert random.getstate() == state

    @pytest.mark.parametrize("argv", [
        ["--n", "9", "--k", "5", "--l", "2"],
        ["--n", "9", "--k", "3", "--l", "2", "--node-budget", "200000"],
    ], ids=["9-5-2", "9-3-2-at-200000"])
    def test_exact_output_identical_across_processes(self, argv):
        # The improver draws from its own seeded generator, so exact
        # prints the same JSON, elapsed_seconds aside, in every process,
        # whatever the hash seed.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        script = "import sys; from cubedom.cli import main; sys.exit(main(sys.argv[1:]))"
        outputs = []
        for hash_seed in ("0", "0", "1"):
            env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                       PYTHONHASHSEED=hash_seed)
            proc = subprocess.run([sys.executable, "-c", script, "exact", *argv],
                                  capture_output=True, text=True, timeout=120, env=env)
            assert proc.returncode in (0, 3), proc.stderr
            outputs.append(re.sub(r'"elapsed_seconds": [^,]*,', "", proc.stdout))
        assert outputs[0] == outputs[1] == outputs[2]
        assert json.loads(outputs[0])["value"] == (10 if argv[3] == "5" else 24)


def oracle_cap(r, low, cu, cl, uppers, lowers):
    """Most uppers a upper and b lower picks, a + b <= r, can dominate while
    also dominating low lowers; -1 if none can.  Plain enumeration."""
    caps = [a + b * cl for a in range(r + 1) for b in range(r + 1 - a)
            if (uppers or a == 0) and (lowers or b == 0) and a * cu + b >= low]
    return max(caps, default=-1)


class TestCapTable:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 9), nl=st.integers(0, 40), cu=st.integers(2, 8),
           cl=st.integers(2, 8),
           levels=st.sampled_from([(True, True), (True, False), (False, True)]))
    def test_matches_enumeration(self, rows, nl, cu, cl, levels):
        table = cubedom.solver._cap_table(rows, nl, cu, cl, *levels)
        assert len(table) == rows
        for r in range(-1, rows - 1):
            assert table[r + 1] == [oracle_cap(r, low, cu, cl, *levels)
                                    for low in range(nl + 1)], r

    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 9), nl=st.integers(0, 40), cu=st.integers(2, 8),
           cl=st.integers(2, 8))
    def test_one_level_is_never_looser(self, rows, nl, cu, cl):
        # Branch and bound's run reads an include child against the table of
        # the run's first position: a later position's table, of fewer
        # levels, must prune whatever that one prunes.
        both = cubedom.solver._cap_table(rows, nl, cu, cl, True, True)
        for levels in ((True, False), (False, True)):
            one = cubedom.solver._cap_table(rows, nl, cu, cl, *levels)
            assert all(a <= b for row, top in zip(one, both) for a, b in zip(row, top))


def young_orbits(n, chosen, members):
    """Orbits of the permutations of [n] that fix every chosen subset, on
    the positions of ``members``, found by applying every permutation."""
    def image(g, m):
        return sum(1 << g[i] for i in range(n) if m >> i & 1)

    stabilizer = [g for g in itertools.permutations(range(n))
                  if all(image(g, c) == c for c in chosen)]
    position = {m: p for p, m in enumerate(members)}
    return {sum(1 << q for q in {position[image(g, m)] for g in stabilizer})
            for m in members}


def atoms_from_scratch(n, chosen):
    """The classes of elements of [n] that lie in the same chosen subsets."""
    classes = {}
    for e in range(n):
        key = tuple(c >> e & 1 for c in chosen)
        classes[key] = classes.get(key, 0) | 1 << e
    return set(classes.values())


def table_orbits(atoms, members):
    """Each member's orbit, read from the atoms' count tables."""
    return [functools.reduce(and_, (table[(m & a).bit_count()] for a, table in atoms))
            for m in members]


class TestOrbits:
    # The members are shuffled, as branch and bound's candidates are
    # sorted, so an orbit read in vertex order instead of position order
    # fails.
    @staticmethod
    def draw_members(data, n_max):
        n = data.draw(st.integers(3, n_max))
        k = data.draw(st.integers(2, n - 1))
        l = data.draw(st.integers(1, k - 1))
        members = data.draw(st.permutations(materialize(LevelGraphSpec(n, k, l)).masks))
        contains = [sum(1 << i for i, m in enumerate(members) if m >> e & 1) for e in range(n)]
        return n, members, contains, (1 << len(members)) - 1

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_match_permutation_orbits(self, data):
        n, members, contains, every = self.draw_members(data, 6)
        chosen = data.draw(st.lists(st.sampled_from(members), min_size=1, max_size=4,
                                    unique=True))
        atoms = [((1 << n) - 1, [])]
        for c in chosen:
            atoms = cubedom.solver._split_atoms(atoms, c, contains, every, {})
        for a, table in atoms:
            assert len(table) == a.bit_count() + 1
            for count, positions in enumerate(table):
                assert positions == sum(1 << i for i, m in enumerate(members)
                                        if (m & a).bit_count() == count)
        orbits = table_orbits(atoms, members)
        assert all(orbit >> i & 1 for i, orbit in enumerate(orbits))
        assert set(orbits) == young_orbits(n, chosen, members)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_family_grown_one_member_at_a_time(self, data):
        # As branch and bound grows a family: each size's atoms are its
        # parent's split by the newest member, with the tables of one cache,
        # and at every size they give the atoms and orbits found from
        # scratch.  An atom that no member splits keeps its table.
        n, members, contains, every = self.draw_members(data, 5)
        family = data.draw(st.lists(st.sampled_from(members), min_size=1, max_size=5,
                                    unique=True))
        cache = {}
        atoms = [((1 << n) - 1, [])]
        for size in range(1, len(family) + 1):
            parent = dict(atoms)
            atoms = cubedom.solver._split_atoms(atoms, family[size - 1], contains, every, cache)
            assert {a for a, _ in atoms} == atoms_from_scratch(n, family[:size])
            assert all(cache[a] is table for a, table in atoms)
            assert all(parent[a] is table for a, table in atoms if a in parent)
            assert set(table_orbits(atoms, members)) == young_orbits(n, family[:size], members)


class TestPinnedReport:
    """sha256 of the report JSON without ``elapsed_seconds``, fixed so a
    rewrite of how witnesses are built cannot silently change what the
    ``exact`` and ``greedy`` commands print, and of the certificate JSON
    of the brute-force oracle's witness.  The four l >= 2 ``exact``
    digests were re-taken with the two-level cap bound, and again with
    orbits below the root; both changed only ``nodes_explored``.  The
    pair-graph root bound re-took both (6,3,2) digests: ``exact``'s
    ``nodes_explored`` went 3,843 -> 3,805, and greedy's ``lower_bound``
    8 -> 9.  The forced-vertex rule re-took the four l >= 2 ``exact``
    digests, changing only ``nodes_explored``: (6,3,2) 3,805 -> 807,
    (7,4,2) 3,419 -> 1,107, (8,6,2) 205 -> 169 and (6,4,3) 6,867 ->
    3,193.  Orbits to five members and forced vertices to eight (four
    and seven before) re-took three, changing only ``nodes_explored``:
    (6,3,2) 807 -> 625, (7,4,2) 1,107 -> 1,065 and (6,4,3) 3,193 ->
    1,859.  The root bound of both sides of the complement map re-took
    both (6,4,3) digests, with the same witnesses: it is the pair-graph
    bound of (6,3,2), 9, where the counting bound read 8, so greedy's
    ``lower_bound`` went 8 -> 9 and ``exact``'s ``nodes_explored``
    1,859 -> 1,847.  The duality bound, 6 at (8,6,2) where the pair-graph
    bound read 4, re-took both (8,6,2) digests, with the same witness:
    greedy's ``lower_bound`` went 4 -> 6 (``proven_optimal`` false ->
    true), and ``exact``'s ``nodes_explored`` 169 -> 0.  The brute-force
    digests were of reports until the oracle returned its certificate; the
    new ones were taken from the witnesses it found before, so they pin
    the same witnesses."""

    @pytest.mark.parametrize("solve, spec, digest", [
        (seeded_search, (6, 3, 2),
         "ab1c7e5879fe2f9aad33c354dc267e1794daf50993043cdb1fdbf57cc9e56df1"),
        (seeded_search, (7, 4, 2),
         "f09357329c3f46ec386231b84898fbd129b4e14c4968be4ab1c96cc6c96b129c"),
        (seeded_search, (8, 6, 2),
         "b3e56b1ebded8c2a11e9c881d70fb9ef1902dd615d6ae70a3ba31fd5c1db8030"),
        (seeded_search, (6, 4, 3),
         "4e3280e4ec019c7b6bc05e31754c5ba70407b87a5b4cc2f1d67f47d233cc055a"),
        (seeded_search, (7, 3, 1),
         "df7a1b52ac0ba24fa8eb25069e69e6ed0a96de4070bf23e710dbeb97fa264b41"),
        (greedy_dominate, (6, 3, 2),
         "d560a318a0189334a8ffb30669f5463de95b19dc88a1d564c6ba716fd240272f"),
        (greedy_dominate, (7, 4, 2),
         "32b75b9367696c5496a8d398576365cc9cb3aae279d9ddf4d720f9b59b411aee"),
        (greedy_dominate, (8, 6, 2),
         "5b14e86040857b93a4b9e0a4719743d6b05c206f67c6a8403d052183347e3994"),
        (greedy_dominate, (6, 4, 3),
         "1b6f2333d1780763beb07750324dda2d97751809dbb5cb5d23318a8b52d7dcf4"),
        (greedy_dominate, (7, 3, 1),
         "735fe0a0fb2b00fdcb21176953a82420f88fa808089cf96c06e2de9c14d373e1"),
        (brute_force_gamma, (5, 3, 2),
         "8bc56f30d499e268b5a7f88ad1e99bd245f5210cbcb9868b883a4f7458583663"),
        (brute_force_gamma, (6, 4, 2),
         "3b0b2eda11374212972cbf573940475442ecfc81dce6497440b3db3ca6aecb5e"),
        (brute_force_gamma, (5, 2, 1),
         "dfc030c022f3778508ac60af7d08af69f4bfeb3724d2dd863f05f9c52477a58f"),
    ], ids=[f"{m}-{n}-{k}-{l}" for m in ("exact", "greedy")
            for n, k, l in [(6, 3, 2), (7, 4, 2), (8, 6, 2), (6, 4, 3), (7, 3, 1)]]
        + ["brute-5-3-2", "brute-6-4-2", "brute-5-2-1"])
    def test_report_json_digest(self, solve, spec, digest):
        result = solve(materialize(LevelGraphSpec(*spec)))
        if isinstance(result, SolveReport):
            data = result.to_json()
            del data["elapsed_seconds"]
        else:
            data = certificate_to_json(result)
        text = json.dumps(data, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # Budget-bound searches, taken at the commit before deep nodes walked
    # their include children in one run: (9,3,2) crosses the level border,
    # the lower side of (10,5,2) stays near the root and (12,6,2) makes
    # long runs; (9,4,2) stops at and one past the first slice's edge;
    # (8,4,2) stops at eleven nodes in a row.
    BUDGET_BOUND = [
        ((9, 3, 2), 200_000, "7a6836709d301b8337e62f69a6a331fe27ae7082e91291fd79a3c33cc184c051"),
        ((10, 5, 2), 200_000, "710facd49ea2659b43e5f42d43f17a2e6cbfa1b8716c762f6bb0181c3680c897"),
        ((12, 6, 2), 200_000, "f8921a4452f172373560112ec460ffaeb03057474015f38847ce283d7191f998"),
        ((9, 4, 2), 50_000, "3f7527412928495166b867b2784c69220cd5e3f6295c33b05e781b071c95fa56"),
        ((9, 4, 2), 50_001, "a1503c6a43cfc4e0e4e3a37ace6441a56df1a059ced82083063730c071f4bcd4"),
        ((8, 4, 2), 1_000, "70e38aa67c545a8f19fffb1e0bb46227721b5c99ff9b35e4ceae6eac99c4d55b"),
        ((8, 4, 2), 1_001, "8c223e9ed8f782b028c3f9bf6e8a237b1d78e96c661223495bfe655b1a016bf8"),
        ((8, 4, 2), 1_002, "8dc010a1c3b8796dc43809d24a269241ef7e2515b04631967552c8d8fd5831c0"),
        ((8, 4, 2), 1_003, "d7cdd381ae06af8bb980912b544ae87b135c1f4026f09e0992666810be5137d3"),
        ((8, 4, 2), 1_004, "2887b6d90f4896b57af56af08015fd4f9dbed850b2330db90a3734b4e5ce3164"),
        ((8, 4, 2), 1_005, "e0556e80e9082fff84cc954ccfc36c860e79454b2893f5d0935661a5dcd0c5ca"),
        ((8, 4, 2), 1_006, "b0d0d1658b36b342ef1d285d039f9893b20164317a543bf324be74a7782abaf8"),
        ((8, 4, 2), 1_007, "945c85688de98f3a5b5e73d2a19816fea776fa7d2bd81eb740e41b38efafca58"),
        ((8, 4, 2), 1_008, "ba0d75a95e7815f9bc51b4144f5e3e3c82f113ac97fd954696f596067fbebaf4"),
        ((8, 4, 2), 1_009, "f0b5fe5d8d3976c210e1a10e279a40fab367a66621293dae84c92e23bec8f94e"),
        ((8, 4, 2), 1_010, "d50cde6396e35f7f6eca3e2db4872a2c6905132e21c0e410fbc0f576d3532872"),
    ]

    @pytest.mark.parametrize("spec, budget, digest", BUDGET_BOUND,
                             ids=[f"{n}-{k}-{l}-{b}" for (n, k, l), b, _ in BUDGET_BOUND])
    def test_budget_bound_report_digest(self, spec, budget, digest):
        data = seeded_search(materialize(LevelGraphSpec(*spec)), node_budget=budget).to_json()
        assert data["nodes_explored"] == budget + 1
        del data["elapsed_seconds"]
        text = json.dumps(data, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # Each side of (10,5,2) sent 3,000 slices of 1 to 3 nodes: every yield
    # falls on the node where it fell before the run, whose siblings go
    # back to the general loop when they would pass the slice.
    @pytest.mark.parametrize("last, digest", [
        (False, "da8fb9e3ccbc3f6a7951214adb99bcbb2871b34f0e6881879693be02d05ef715"),
        (True, "47cf68ce294c5e632657eaa821589be21a545fdae4c2752e3ada35d46f65bcff"),
    ], ids=["k-side", "lower-side"])
    def test_slice_edges_pinned(self, last, digest):
        graph = materialize(LevelGraphSpec(10, 5, 2))
        best = [family_of(greedy_dominate(graph), graph)]
        side = cubedom.solver._search(graph, graph.vertex_count - 1 if last else 0, best,
                                      spec_lower_bound(graph.spec), {})
        counts = [next(side)]
        for i in range(3000):
            counts.append(side.send((counts[-1] + 1 + i % 3, 10**9)))
        assert hashlib.sha256(str(counts).encode()).hexdigest() == digest

    def test_report_stores_witness_and_bound_only(self):
        assert [f.name for f in fields(SolveReport)] == [
            "method", "witness", "lower_bound", "nodes_explored", "elapsed"]
        report = seeded_search(materialize(LevelGraphSpec(8, 4, 2)), node_budget=1000)
        assert report.spec == report.witness.spec
        assert report.value == report.witness.size
        assert report.lower_bound < report.value and not report.proven_optimal


class TestSandwich:
    def test_bounds_nest(self):
        for n in range(4, 7):
            for k in range(ceil(n / 2) + 1, n):
                spec = LevelGraphSpec(n, k, 2)
                lb = counting_lower_bound(spec)
                exact = brute_force_gamma(materialize(spec)).size
                greedy = greedy_dominate(materialize(spec)).value
                size = theorem1_construct(n, k).size
                assert lb <= exact <= greedy
                assert exact <= size


class TestReportRecheck:
    def test_l2_witness_is_rechecked_without_the_scan(self):
        # An l = 2 witness is re-checked structurally, from its masks alone:
        # neither the graph's bitsets nor a vertex scan, which the package
        # no longer has, decide it.
        assert not hasattr(cubedom.constructions, "scan_certificate")
        graph = materialize(LevelGraphSpec(6, 4, 2))
        chosen = sorted(graph.masks.index(m) for m in theorem1_construct(6, 4).uppers)
        with pytest.raises(CheckFailedError, match="non-dominating witness"):
            cubedom.solver._report(graph, Method.GREEDY, chosen, 0, 0, time.perf_counter())
        chosen += [graph.masks.index(m) for m in theorem1_construct(6, 4).lowers]
        report = cubedom.solver._report(graph, Method.GREEDY, chosen, 0, 0, time.perf_counter())
        assert report.value == 6


    @staticmethod
    def count_verify_calls(monkeypatch):
        calls = []
        verify = cubedom.solver.verify_certificate
        monkeypatch.setattr(cubedom.solver, "verify_certificate",
                            lambda cert: calls.append(cert) or verify(cert))
        return calls

    @staticmethod
    def count_report_calls(monkeypatch):
        reports = []
        report = cubedom.solver._report
        monkeypatch.setattr(cubedom.solver, "_report",
                            lambda *args: reports.append(report(*args)) or reports[-1])
        return reports

    @pytest.mark.parametrize("argv", [
        ["--n", "9", "--k", "6"],
        ["--n", "8", "--k", "4", "--node-budget", "1"],
        ["--n", "6", "--k", "3"],
    ], ids=["greedy-meets-bound", "budget-keeps-greedy", "search-improves"])
    def test_unchanged_witness_is_verified_once(self, argv, monkeypatch, capsys):
        # Each _report call verifies its own witness, once, whoever built
        # the incumbent: exact makes two calls on each of its paths.  At
        # (9,6,2) greedy meets the bound, at (8,4,2) one node keeps
        # greedy's 12, and at (6,3,2) the search finds 9 where greedy
        # found 11.
        calls = self.count_verify_calls(monkeypatch)
        reports = self.count_report_calls(monkeypatch)
        main(["exact", *argv, "--l", "2"])
        assert len(reports) == 2
        assert calls == [r.witness for r in reports]

    def test_hand_built_report_is_verified_again(self, monkeypatch):
        # A report that _report did not build takes the same path as one it
        # did: branch and bound verifies the family it keeps once, for an
        # equal copy of greedy's report as for greedy's own, and a family
        # as large as greedy's that leaves a vertex undominated raises.
        graph = materialize(LevelGraphSpec(7, 4, 2))
        greedy = greedy_dominate(graph)

        def report_on(members):
            witness = replace(greedy.witness,
                              uppers=frozenset(m for m in members if m.bit_count() == 4),
                              lowers=frozenset(m for m in members if m.bit_count() == 2))
            return replace(greedy, witness=witness)

        # Greedy's family with one member swapped for another vertex.
        members = sorted(greedy.witness.uppers | greedy.witness.lowers)
        swapped = (report_on(members[1:] + [m]) for m in graph.masks if m not in members)
        broken = next(r for r in swapped if not verify_certificate(r.witness).verified)
        calls = self.count_verify_calls(monkeypatch)
        kept = branch_and_bound_gamma(graph, greedy, node_budget=1)
        copied = branch_and_bound_gamma(graph, report_on(members), node_budget=1)
        assert calls == [kept.witness, copied.witness]
        assert kept.witness == copied.witness
        with pytest.raises(CheckFailedError, match="non-dominating witness"):
            branch_and_bound_gamma(graph, broken, node_budget=1)


class TestInvariantsUnderOptimize:
    def test_report_checks_survive_python_O(self):
        # Under -O every assert statement is stripped; these checks must
        # still raise, since the witness re-check is the only guard on what
        # a solver reports.
        script = textwrap.dedent("""
            import time

            from cubedom.constructions import DominationCertificate, Provenance
            from cubedom.errors import CheckFailedError
            from cubedom.experiments import ExperimentRow
            from cubedom.levelgraph import LevelGraphSpec, materialize
            from cubedom.solver import Method, SolveReport, _report

            assert False, "assert statements must be stripped under -O"
            spec = LevelGraphSpec(6, 4, 2)
            empty = DominationCertificate(
                spec=spec, uppers=frozenset(), lowers=frozenset(),
                provenance=Provenance.EXACT,
            )
            try:
                SolveReport(Method.BRANCH_AND_BOUND, empty, lower_bound=5,
                            nodes_explored=0, elapsed=0.0)
            except CheckFailedError:
                pass
            else:
                raise SystemExit("accepted a lower bound above the value")
            try:
                ExperimentRow(n=6, k=4, gamma_exact=6, proven=True,
                              greedy_value=7, construction_size=None,
                              lower_bound=7, conjecture_main_term=None)
            except CheckFailedError:
                pass
            else:
                raise SystemExit("accepted an experiment row with lower > gamma")
            try:
                _report(materialize(spec), Method.BRANCH_AND_BOUND, [], 0, 0,
                        time.perf_counter())
            except CheckFailedError:
                pass
            else:
                raise SystemExit("accepted a non-dominating witness")
            print("ok")
        """)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.strip() == "ok"

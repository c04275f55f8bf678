import itertools
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from math import ceil

import pytest

from cubedom.constructions import theorem1_construct, verify_certificate
from cubedom.errors import BudgetExceededError
from cubedom.levelgraph import LevelGraphSpec, materialize
from cubedom.solver import (
    Method,
    branch_and_bound_gamma,
    brute_force_gamma,
    counting_lower_bound,
    greedy_dominate,
)
from cubedom.subsets import binomial


def oracle_counting_bound(n, k, l):
    """Direct enumeration of the two-constraint program, no scanning tricks."""
    lowers, uppers = binomial(n, l), binomial(n, k)
    cov_low, cov_up = binomial(k, l), binomial(n - l, k - l)
    best = None
    for a in range(lowers + 1):
        for b in range(lowers + uppers + 1):
            if a * cov_low + b >= lowers and b * cov_up + a >= uppers:
                if best is None or a + b < best:
                    best = a + b
                break
    return best


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
                    assert counting_lower_bound(spec) <= brute_force_gamma(spec).value


class TestBruteForce:
    def test_theorem2_value_n4(self):
        report = brute_force_gamma(LevelGraphSpec(4, 3, 2))
        assert report.value == 3
        assert report.proven_optimal
        assert report.method is Method.BRUTE_FORCE

    def test_gk1_value(self):
        assert brute_force_gamma(LevelGraphSpec(5, 2, 1)).value == 4

    def test_frozen_regression_values(self):
        # Ground-truth constants computed by this oracle and frozen.
        assert brute_force_gamma(LevelGraphSpec(6, 4, 2)).value == 6
        assert brute_force_gamma(LevelGraphSpec(6, 3, 2)).value == 9
        assert brute_force_gamma(LevelGraphSpec(6, 4, 3)).value == 9
        assert brute_force_gamma(LevelGraphSpec(5, 3, 2)).value == 6

    def test_witness_verifies_and_is_lex_least(self):
        spec = LevelGraphSpec(4, 3, 2)
        report = brute_force_gamma(spec)
        assert verify_certificate(report.witness).verified
        # Independent check of lex-leastness over all 3-subsets of vertices.
        from cubedom.levelgraph import materialize

        g = materialize(spec)
        masks = g.closed
        full = (1 << g.vertex_count) - 1
        dominating = [
            c
            for c in itertools.combinations(range(g.vertex_count), 3)
            if masks[c[0]] | masks[c[1]] | masks[c[2]] == full
        ]
        least = min(dominating)
        got = sorted(g.masks.index(m.mask) for m in report.witness.members)
        assert tuple(got) == least

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            brute_force_gamma(LevelGraphSpec(6, 3, 2), node_budget=50)

    def test_max_size_too_small(self):
        with pytest.raises(BudgetExceededError):
            brute_force_gamma(LevelGraphSpec(4, 3, 2), max_size=2)


class TestGreedy:
    def test_upper_bound_and_verified_witness(self):
        spec = LevelGraphSpec(4, 3, 2)
        report = greedy_dominate(spec)
        assert report.value <= 4
        assert report.value >= 3  # exact gamma here is 3
        assert verify_certificate(report.witness).verified

    def test_value_at_least_two(self):
        for n in range(3, 8):
            for k in range(2, n):
                for l in range(1, k):
                    assert greedy_dominate(LevelGraphSpec(n, k, l)).value >= 2

    def test_deterministic(self):
        spec = LevelGraphSpec(7, 4, 2)
        a = greedy_dominate(spec)
        b = greedy_dominate(spec)
        assert a.value == b.value
        assert a.witness == b.witness


class TestBranchAndBound:
    def test_matches_brute_force_n_le_6(self):
        for n in range(3, 7):
            for k in range(2, n):
                for l in range(1, k):
                    spec = LevelGraphSpec(n, k, l)
                    bf = brute_force_gamma(spec)
                    bb = branch_and_bound_gamma(spec)
                    assert bb.proven_optimal
                    assert bb.value == bf.value, (n, k, l)

    def test_theorem2_at_n9(self):
        report = branch_and_bound_gamma(LevelGraphSpec(9, 8, 2))
        assert report.value == 3
        assert report.proven_optimal

    def test_frozen_n7_k4(self):
        # Frozen from this solver; also below the ceil(7/2)+6 = 10 bound.
        # Fixing [k] in the set cut the search from 2,518,311 nodes to
        # 406,101, and skipping whole orbits of its stabilizer at the root
        # cut it to 111,757.  The node count is deterministic and pins the
        # search tree.
        report = branch_and_bound_gamma(LevelGraphSpec(7, 4, 2))
        assert report.proven_optimal
        assert report.value == 9
        assert report.value <= 10
        assert report.nodes_explored == 111_757

    def test_frozen_n8_k5(self):
        # 1,249,137 nodes with [k] fixed; 234,897 with the root orbits
        # skipped.  The count fails if the orbit rule is lost.
        report = branch_and_bound_gamma(LevelGraphSpec(8, 5, 2))
        assert report.proven_optimal
        assert report.value == 8
        assert report.nodes_explored == 234_897

    @pytest.mark.parametrize("n,k,gamma,nodes", [(6, 3, 9, 27_143), (8, 6, 6, 24_061)])
    def test_search_tree_pinned(self, n, k, gamma, nodes):
        report = branch_and_bound_gamma(LevelGraphSpec(n, k, 2))
        assert report.proven_optimal
        assert (report.value, report.nodes_explored) == (gamma, nodes)

    def test_search_tree_pinned_at_budget(self):
        # (8,4,2) spends the whole budget: the node that exceeds it is
        # counted, and the report keeps the incumbent and the root bound.
        report = branch_and_bound_gamma(LevelGraphSpec(8, 4, 2), node_budget=3_000_000)
        assert not report.proven_optimal
        assert (report.nodes_explored, report.value, report.lower_bound) == (3_000_001, 12, 9)

    def test_search_depth_is_not_bounded_by_recursion(self):
        # A recursive search needs about 124 frames here; 40 frames above
        # the caller leave room only for the calls around the loop.
        spec = LevelGraphSpec(16, 8, 2)
        free = branch_and_bound_gamma(spec, node_budget=20_000)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            bounded = branch_and_bound_gamma(spec, node_budget=20_000)
        finally:
            sys.setrecursionlimit(limit)
        assert replace(bounded, elapsed=0.0) == replace(free, elapsed=0.0)

    def test_accepts_a_materialized_graph(self):
        spec = LevelGraphSpec(6, 4, 2)
        graph = materialize(spec)
        for solve in (greedy_dominate, branch_and_bound_gamma):
            from_spec, from_graph = solve(spec), solve(graph)
            assert replace(from_graph, elapsed=0.0) == replace(from_spec, elapsed=0.0)

    @pytest.mark.parametrize("n,k,gamma", [(7, 4, 9), (8, 5, 8), (8, 6, 6)])
    def test_agrees_with_milp(self, n, k, gamma):
        # A second, independent method for the frozen l=2 values: the
        # covering program min sum(x) s.t. N[v] . x >= 1 for every vertex v,
        # solved by HiGHS on the same closed-neighbourhood bitsets.
        pytest.importorskip("scipy")
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint, milp

        spec = LevelGraphSpec(n, k, 2)
        closed = materialize(spec).closed
        nv = len(closed)
        a = np.array([[c >> j & 1 for j in range(nv)] for c in closed])
        res = milp(np.ones(nv), integrality=np.ones(nv), bounds=Bounds(0, 1),
                   constraints=LinearConstraint(a, lb=1))
        assert res.status == 0  # proven optimal
        x = np.round(res.x)
        assert (a @ x >= 1).all()
        assert round(res.fun) == x.sum() == gamma
        report = branch_and_bound_gamma(spec)
        assert report.proven_optimal
        assert report.value == gamma

    def test_budget_returns_heuristic_report(self):
        report = branch_and_bound_gamma(LevelGraphSpec(7, 4, 2), node_budget=100)
        assert not report.proven_optimal
        assert report.lower_bound <= report.value
        assert verify_certificate(report.witness).verified

    def test_deterministic(self):
        spec = LevelGraphSpec(6, 3, 2)
        a = branch_and_bound_gamma(spec, node_budget=5000)
        b = branch_and_bound_gamma(spec, node_budget=5000)
        assert (a.value, a.lower_bound, a.proven_optimal, a.nodes_explored) == (
            b.value,
            b.lower_bound,
            b.proven_optimal,
            b.nodes_explored,
        )
        assert a.witness == b.witness


class TestSandwich:
    def test_bounds_nest(self):
        for n in range(4, 7):
            for k in range(ceil(n / 2) + 1, n):
                spec = LevelGraphSpec(n, k, 2)
                lb = counting_lower_bound(spec)
                exact = brute_force_gamma(spec).value
                greedy = greedy_dominate(spec).value
                size = theorem1_construct(n, k).size
                assert lb <= exact <= greedy
                assert exact <= size


class TestInvariantsUnderOptimize:
    def test_report_checks_survive_python_O(self):
        # Under -O every assert statement is stripped; these checks must
        # still raise, since the witness re-check is the only guard on what
        # a solver reports.
        script = textwrap.dedent("""
            from cubedom.constructions import DominationCertificate, Provenance
            from cubedom.errors import CheckFailedError
            from cubedom.experiments import ExperimentRow
            from cubedom.levelgraph import LevelGraphSpec, materialize
            from cubedom.solver import Method, SolveReport, _checked_report

            assert False, "assert statements must be stripped under -O"
            spec = LevelGraphSpec(6, 4, 2)
            empty = DominationCertificate(
                spec=spec, members=frozenset(), provenance=Provenance.EXACT
            )
            fields = dict(spec=spec, method=Method.BRANCH_AND_BOUND,
                          witness=empty, nodes_explored=0, elapsed=0.0)
            for bad in (dict(value=0, lower_bound=5, proven_optimal=False),
                        dict(value=6, lower_bound=5, proven_optimal=True)):
                try:
                    SolveReport(**fields, **bad)
                except ValueError:
                    pass
                else:
                    raise SystemExit(f"accepted {bad}")
            try:
                ExperimentRow(n=6, k=4, gamma_exact=6, proven=True,
                              greedy_value=7, construction_size=None,
                              lower_bound=7, conjecture_main_term=None)
            except ValueError:
                pass
            else:
                raise SystemExit("accepted an experiment row with lower > gamma")
            report = SolveReport(**fields, value=0, lower_bound=0,
                                 proven_optimal=True)
            try:
                _checked_report(report)
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

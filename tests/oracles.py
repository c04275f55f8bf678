"""Independent oracles for exact values and for verification, kept out of
the package, and the package's search as the ``exact`` command runs it.

``brute_force_gamma`` shares no search code with branch and bound and
serves every spec with n <= 6; ``milp_gamma`` hands the covering program
to HiGHS and serves the larger ones.  ``scan_certificate`` walks every
vertex, the reference for ``verify_certificate``.  ``seeded_search`` runs
branch and bound from greedy's report.
"""

from itertools import count
from math import comb

from cubedom.constructions import (
    VERIFY_CAP,
    DominationCertificate,
    Provenance,
    VerificationResult,
    _result,
)
from cubedom.errors import TooLargeError
from cubedom.levelgraph import MaterializedGraph
from cubedom.subsets import enumerate_k_subsets
from cubedom.solver import (
    DEFAULT_NODE_BUDGET,
    SolveReport,
    branch_and_bound_gamma,
    greedy_dominate,
)

BRUTE_FORCE_NODE_BUDGET = 100_000_000


def scan_certificate(cert: DominationCertificate) -> VerificationResult:
    """Walk every vertex, each level in colex order, to its first undominated one.

    The witness, when verification fails, is the colex-least (smallest mask)
    undominated vertex over both levels.
    """
    spec = cert.spec
    n, k, l = spec.n, spec.k, spec.l
    total = comb(n, k) + comb(n, l)
    if total > VERIFY_CAP:
        raise TooLargeError(f"{total} vertex checks exceed the cap of {VERIFY_CAP}")
    uppers, lowers = cert.uppers, cert.lowers

    # for-else instead of any(): no generator is built per vertex.
    bad_lower = None
    for v in enumerate_k_subsets(n, l):
        if v in lowers:
            continue
        for u in uppers:
            if v & u == v:
                break
        else:
            bad_lower = v
            break
    bad_upper = None
    for u in enumerate_k_subsets(n, k):
        if u in uppers:
            continue
        for b in lowers:
            if b & u == b:
                break
        else:
            bad_upper = u
            break
    return _result(bad_lower, bad_upper)


def seeded_search(graph: MaterializedGraph, node_budget: int = DEFAULT_NODE_BUDGET) -> SolveReport:
    """Branch and bound from greedy's report, as the ``exact`` command runs it."""
    return branch_and_bound_gamma(graph, greedy_dominate(graph), node_budget)


def brute_force_gamma(graph: MaterializedGraph) -> DominationCertificate:
    """A least dominating family, found by iterative deepening over vertex
    subsets, as a verified certificate; its size is gamma by exhaustion.

    Level s enumerates s-subsets of the vertex indices in lexicographic
    order; the whole vertex set dominates, so some level s <= nv succeeds.
    Two admissible prunes keep this tractable: a branch dies when the
    vertices still available cannot jointly cover the gap, or when the
    remaining picks times the best remaining coverage fall short of the
    uncovered count.  Neither prune can skip a feasible completion, so the
    first dominating set found is the lexicographically least at its size.
    More than BRUTE_FORCE_NODE_BUDGET nodes raise TooLargeError.
    """
    node_budget = BRUTE_FORCE_NODE_BUDGET
    masks = graph.closed
    nv = graph.vertex_count
    full = (1 << nv) - 1
    suffix_or = [0] * (nv + 1)
    suffix_cov = [0] * (nv + 1)
    for i in range(nv - 1, -1, -1):
        suffix_or[i] = suffix_or[i + 1] | masks[i]
        suffix_cov[i] = max(suffix_cov[i + 1], masks[i].bit_count())

    nodes = 0
    chosen: list[int] = []

    def level(s: int) -> bool:
        def rec(lo: int, depth: int, cover: int) -> bool:
            nonlocal nodes
            nodes += 1
            if nodes > node_budget:
                raise TooLargeError(
                    f"brute force exceeded {node_budget} nodes at level {s}"
                )
            if cover == full:
                return True
            if depth == s:
                return False
            remaining = s - depth
            uncovered = (full & ~cover).bit_count()
            if remaining * suffix_cov[lo] < uncovered:
                return False
            if cover | suffix_or[lo] != full:
                return False
            for i in range(lo, nv - remaining + 1):
                chosen.append(i)
                if rec(i + 1, depth + 1, cover | masks[i]):
                    return True
                chosen.pop()
            return False

        return rec(0, 0, 0)

    for s in count(1):
        chosen.clear()
        if level(s):
            nu, vertex_masks = graph.upper_count, graph.masks
            witness = DominationCertificate(
                spec=graph.spec,
                uppers=frozenset(vertex_masks[i] for i in chosen if i < nu),
                lowers=frozenset(vertex_masks[i] for i in chosen if i >= nu),
                provenance=Provenance.EXACT,
            )
            assert scan_certificate(witness).verified
            return witness


def milp_gamma(graph: MaterializedGraph) -> int:
    """gamma by HiGHS on the covering program min sum(x) s.t. N[v] . x >= 1
    for every vertex v, on the same closed-neighbourhood bitsets; the
    solution is re-checked.  scipy is in the ``test`` extra, so a missing
    install fails here rather than skipping the comparison.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    closed = graph.closed
    nv = len(closed)
    a = np.array([[c >> j & 1 for j in range(nv)] for c in closed])
    res = milp(np.ones(nv), integrality=np.ones(nv), bounds=Bounds(0, 1),
               constraints=LinearConstraint(a, lb=1))
    assert res.status == 0  # proven optimal
    x = np.round(res.x)
    assert (a @ x >= 1).all()
    assert round(res.fun) == x.sum()
    return round(res.fun)

"""Independent oracles for exact values, kept out of the package.

``brute_force_gamma`` shares no search code with branch and bound and
serves every spec with n <= 6; ``milp_gamma`` hands the covering program
to HiGHS and serves the larger ones.
"""

import time
from itertools import count

from cubedom.errors import TooLargeError
from cubedom.levelgraph import MaterializedGraph
from cubedom.solver import Method, SolveReport, _report

BRUTE_FORCE_NODE_BUDGET = 100_000_000


def brute_force_gamma(graph: MaterializedGraph) -> SolveReport:
    """Iterative deepening over vertex subsets; proven optimal by exhaustion.

    Level s enumerates s-subsets of the vertex indices in lexicographic
    order; the whole vertex set dominates, so some level s <= nv succeeds.
    Two admissible prunes keep this tractable: a branch dies when the
    vertices still available cannot jointly cover the gap, or when the
    remaining picks times the best remaining coverage fall short of the
    uncovered count.  Neither prune can skip a feasible completion, so the
    first dominating set found is the lexicographically least at its size.
    More than BRUTE_FORCE_NODE_BUDGET nodes raise TooLargeError.
    """
    start = time.perf_counter()
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
            return _report(graph, Method.BRUTE_FORCE, chosen, s, nodes, start)


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

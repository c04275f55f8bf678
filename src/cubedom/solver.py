"""Exact and heuristic minimum dominating set computation.

All solvers read the closed-neighbourhood bitsets of a materialized
graph, one Python int per vertex, so a domination test is one OR/compare.
``brute_force_gamma`` is the independent oracle: iterative deepening over
vertex subsets in lexicographic index order, with only admissible
feasibility pruning, so the first set found at the optimal size is the
lexicographically least one.  ``branch_and_bound_gamma`` is the workhorse:
include/exclude search over coverage-ordered candidates with the upper
vertex [k] fixed in the set and whole orbits of its stabilizer skipped at
the root, seeded by the greedy solution and bounded below by a
two-constraint counting relaxation.  It runs as one loop over an explicit
stack of open exclude branches, so its depth is not bounded by Python's
recursion limit; every position visited counts as one search node.
Greedy and branch and bound take a spec or a graph materialized once by
the caller.
"""

from __future__ import annotations

import enum
import heapq
import time
from dataclasses import dataclass

from .constructions import (
    DominationCertificate,
    Provenance,
    verify_certificate,
)
from .errors import BudgetExceededError, CheckFailedError, InvalidParametersError
from .levelgraph import LevelGraphSpec, MaterializedGraph, materialize
from .subsets import binomial

DEFAULT_NODE_BUDGET = 10_000_000
DEFAULT_BRUTE_FORCE_BUDGET = 100_000_000


class Method(enum.Enum):
    BRUTE_FORCE = "brute_force"
    GREEDY = "greedy"
    BRANCH_AND_BOUND = "branch_and_bound"


@dataclass(frozen=True)
class SolveReport:
    spec: LevelGraphSpec
    method: Method
    value: int
    witness: DominationCertificate
    proven_optimal: bool
    lower_bound: int
    nodes_explored: int
    elapsed: float

    def __post_init__(self) -> None:
        if self.lower_bound > self.value:
            raise ValueError(
                f"lower bound {self.lower_bound} exceeds value {self.value}"
            )
        if self.proven_optimal and self.lower_bound != self.value:
            raise ValueError(
                f"proven optimal, but lower bound {self.lower_bound} "
                f"!= value {self.value}"
            )

    def to_json(self) -> dict:
        from .constructions import certificate_to_json

        return {
            "n": self.spec.n,
            "k": self.spec.k,
            "l": self.spec.l,
            "method": self.method.value,
            "value": self.value,
            "proven_optimal": self.proven_optimal,
            "lower_bound": self.lower_bound,
            "nodes_explored": self.nodes_explored,
            "elapsed_seconds": self.elapsed,
            "witness": certificate_to_json(self.witness),
        }


def counting_lower_bound(spec: LevelGraphSpec) -> int:
    """Minimum of a + b over the two-constraint covering relaxation.

    a upper members cover at most a * C(k,l) lower vertices, plus b lower
    members covering themselves; symmetrically b lower members cover at
    most b * C(n-l, k-l) upper vertices, plus a upper members covering
    themselves.  Scanning a over [0, ceil(C(n,l)/C(k,l))] is exhaustive:
    beyond that range the first constraint is slack and growing a can only
    trade 1:1 against b.
    """
    n, k, l = spec.n, spec.k, spec.l
    lowers = binomial(n, l)
    uppers = binomial(n, k)
    cov_low = binomial(k, l)
    cov_up = binomial(n - l, k - l)
    best = lowers + uppers
    for a in range(-(-lowers // cov_low) + 1):
        b_low = lowers - a * cov_low
        b_up = -(-(uppers - a) // cov_up)
        b = max(0, b_low, b_up)
        best = min(best, a + b)
    return best


def _certificate(graph: MaterializedGraph, chosen, provenance: Provenance):
    members = frozenset(graph.vertex(i) for i in chosen)
    return DominationCertificate(
        spec=graph.spec, members=members, provenance=provenance
    )


def _checked_report(report: SolveReport) -> SolveReport:
    result = verify_certificate(report.witness)
    if not result.verified:
        raise CheckFailedError(
            f"{report.method.value} produced a non-dominating witness for "
            f"{report.spec}"
        )
    return report


def _greedy_cover(masks: tuple[int, ...]) -> list[int]:
    """Indices picked by lazy largest-new-coverage-first greedy, in pick order.

    ``masks`` are closed-neighbourhood bitsets over their own indices.  Ties
    break toward the smallest index, so runs are deterministic.
    """
    full = (1 << len(masks)) - 1
    heap = [(-m.bit_count(), i) for i, m in enumerate(masks)]
    heapq.heapify(heap)
    cover = 0
    chosen: list[int] = []
    while cover != full:
        neg_gain, i = heapq.heappop(heap)
        gain = (masks[i] & ~cover).bit_count()
        if gain != -neg_gain:
            heapq.heappush(heap, (-gain, i))
            continue
        chosen.append(i)
        cover |= masks[i]
    return chosen


def _graph(problem: LevelGraphSpec | MaterializedGraph) -> MaterializedGraph:
    """The graph itself, or the graph of a spec, materialized here."""
    return problem if isinstance(problem, MaterializedGraph) else materialize(problem)


def greedy_dominate(problem: LevelGraphSpec | MaterializedGraph) -> SolveReport:
    """Largest-new-coverage-first greedy, lazy-evaluated on a max-heap.

    Takes a spec, or a graph already materialized from one.  Ties break
    toward the smallest vertex index, i.e. upper level first and then colex
    rank, so runs are deterministic.
    """
    start = time.perf_counter()
    graph = _graph(problem)
    spec = graph.spec
    chosen = _greedy_cover(graph.closed)
    lb = counting_lower_bound(spec)
    value = len(chosen)
    return _checked_report(
        SolveReport(
            spec=spec,
            method=Method.GREEDY,
            value=value,
            witness=_certificate(graph, chosen, Provenance.GREEDY),
            proven_optimal=value == lb,
            lower_bound=lb,
            nodes_explored=value,
            elapsed=time.perf_counter() - start,
        )
    )


def brute_force_gamma(
    spec: LevelGraphSpec,
    max_size: int | None = None,
    node_budget: int = DEFAULT_BRUTE_FORCE_BUDGET,
) -> SolveReport:
    """Iterative deepening over vertex subsets; proven optimal by exhaustion.

    Level s enumerates s-subsets of the vertex indices in lexicographic
    order.  Two admissible prunes keep this tractable: a branch dies when
    the vertices still available cannot jointly cover the gap, or when the
    remaining picks times the best remaining coverage fall short of the
    uncovered count.  Neither prune can skip a feasible completion, so the
    first dominating set found is the lexicographically least at its size.
    """
    start = time.perf_counter()
    graph = materialize(spec)
    masks = graph.closed
    nv = graph.vertex_count
    full = (1 << nv) - 1
    if max_size is None:
        max_size = nv
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
                raise BudgetExceededError(
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

    for s in range(1, max_size + 1):
        chosen.clear()
        if level(s):
            return _checked_report(
                SolveReport(
                    spec=spec,
                    method=Method.BRUTE_FORCE,
                    value=s,
                    witness=_certificate(graph, chosen, Provenance.EXACT),
                    proven_optimal=True,
                    lower_bound=s,
                    nodes_explored=nodes,
                    elapsed=time.perf_counter() - start,
                )
            )
    raise BudgetExceededError(
        f"no dominating set of size <= {max_size} found for {spec}"
    )


def branch_and_bound_gamma(
    problem: LevelGraphSpec | MaterializedGraph,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SolveReport:
    """Exact search via include/exclude on coverage-ordered candidates.

    Takes a spec, or a graph already materialized from one.

    Only families containing the upper vertex [k] = {1..k} (vertex 0, colex
    rank 0) are searched: the search starts with [k] chosen and branches on
    the other vertices.  This loses no optimum for any n > k > l >= 1.
    Lower vertices are adjacent only to upper ones, so a family with no
    upper member must contain all C(n,l) lower vertices; but [k] plus every
    l-set not inside [k] dominates with 1 + C(n,l) - C(k,l) < C(n,l)
    members (any other k-set has an element outside [k], and so contains an
    l-set through it).  Hence every minimum family has an upper member, and
    since S_n acts transitively on k-sets by automorphisms of the graph,
    some minimum family contains [k].

    At the root the search also branches on orbits of the stabilizer
    S_k x S_{n-k} of [k], which permutes the other vertices transitively
    within each class (level, |v & [k]|).  Candidates are sorted by
    (-degree, -|v & [k]|, index): this keeps the coverage order, and since
    degree is fixed within a level and upper indices come first, each
    orbit is a run of positions.  While nothing besides [k] is chosen,
    excluding an orbit's first vertex excludes the whole orbit.  This
    loses no optimum: let D be a minimum family containing [k] and O the
    first orbit that D meets.  Some g in the stabilizer maps a member of D
    in O to the first vertex of O, and g(D) is a minimum family that
    contains [k] and that vertex and misses every earlier orbit.  The
    argument holds for every l.

    Initialized with the greedy solution; pruned by size +
    ceil(uncovered / best-remaining-coverage) against the incumbent and by
    the counting relaxation at the root.  The search is one loop over an
    explicit stack, not a recursion.  A node that passes both prunes pushes
    its exclude branch and descends into its include branch; a pruned node
    resumes the most recent exclude branch.  An exclude branch keeps the
    size and cover of its node, so the uncovered count is computed once per
    include, and a run of excludes advances the position in place, counting
    one node per position visited.  An include child that dominates is
    settled as a leaf (one node) without a push.

    Exceeding the node budget is a normal outcome: the report then carries
    the incumbent and the root lower bound with proven_optimal=False.  A
    budget below one node is rejected with InvalidParametersError.
    """
    if node_budget < 1:
        raise InvalidParametersError(f"node budget must be at least 1, got {node_budget}")
    start = time.perf_counter()
    graph = _graph(problem)
    spec = graph.spec
    masks = graph.closed
    nv = graph.vertex_count
    full = (1 << nv) - 1
    root_lb = counting_lower_bound(spec)

    best_set = sorted(_greedy_cover(masks))
    best_size = len(best_set)

    # Vertex 0 is [k]; the orbits of its stabilizer are (level, overlap).
    nu, kmask = graph.upper_count, graph.masks[0]
    orbit = [(i >= nu, (m & kmask).bit_count()) for i, m in enumerate(graph.masks)]
    order = sorted(range(1, nv), key=lambda i: (-masks[i].bit_count(), -orbit[i][1], i))
    ordered_masks = [masks[i] for i in order]
    ncand = len(order)
    # next_orbit[p]: the first position past the run of p's orbit.
    next_orbit = [ncand] * ncand
    for p in range(ncand - 2, -1, -1):
        same = orbit[order[p]] == orbit[order[p + 1]]
        next_orbit[p] = next_orbit[p + 1] if same else p + 1
    suffix_or = [0] * (ncand + 1)
    suffix_cov = [1] * (ncand + 1)
    for i in range(ncand - 1, -1, -1):
        suffix_or[i] = suffix_or[i + 1] | ordered_masks[i]
        suffix_cov[i] = max(suffix_cov[i + 1], ordered_masks[i].bit_count())

    nodes = 0
    exhausted = True
    # path[:size - 1] holds the positions chosen besides the fixed vertex 0.
    path = [0] * ncand
    # Open exclude branches, each the (pos, size, cover, uncovered) of the
    # node it resumes at; the loop is at the node (pos, size, cover).
    stack: list[tuple[int, int, int, int]] = []
    push, pop = stack.append, stack.pop
    # The root: [k] alone never dominates, since no two uppers are adjacent.
    pos, size, cover = 0, 1, masks[0]
    # cover has no bits outside full, so this is (full & ~cover).bit_count().
    uncovered = nv - cover.bit_count()
    while best_size > root_lb:
        nodes += 1
        if nodes > node_budget:
            exhausted = False
            break
        # suffix_or[ncand] is 0, so the last test also ends a run at ncand.
        if (size + -(-uncovered // suffix_cov[pos]) >= best_size
                or cover | suffix_or[pos] != full):
            if not stack:
                break
            pos, size, cover, uncovered = pop()
            continue
        # Open the exclude branch; with only [k] chosen, pos starts its
        # orbit and the branch skips the whole orbit.
        push((pos + 1 if size > 1 else next_orbit[pos], size, cover, uncovered))
        # Descend into the include branch.
        path[size - 1] = pos
        cover |= ordered_masks[pos]
        size += 1
        pos += 1
        if cover != full:
            uncovered = nv - cover.bit_count()
            continue
        # The include child dominates: settle it as a leaf without a push.
        nodes += 1
        if nodes > node_budget:
            exhausted = False
            break
        if size < best_size:
            best_size = size
            best_set = [0] + sorted(order[p] for p in path[:size - 1])
        pos, size, cover, uncovered = pop()
    proven = exhausted or best_size == root_lb
    return _checked_report(
        SolveReport(
            spec=spec,
            method=Method.BRANCH_AND_BOUND,
            value=best_size,
            witness=_certificate(graph, best_set, Provenance.EXACT),
            proven_optimal=proven,
            lower_bound=best_size if proven else root_lb,
            nodes_explored=nodes,
            elapsed=time.perf_counter() - start,
        )
    )

"""Exact and heuristic minimum dominating set computation.

All solvers read the closed-neighbourhood bitsets of a materialized
graph, one Python int per vertex, so a domination test is one OR/compare.
``brute_force_gamma`` is the independent oracle: iterative deepening over
vertex subsets in lexicographic index order, with only admissible
feasibility pruning, so the first set found at the optimal size is the
lexicographically least one.  ``branch_and_bound_gamma`` is the workhorse:
include/exclude search over coverage-ordered candidates with the upper
vertex [k] fixed in the set and whole orbits of its stabilizer skipped at
the root, seeded by the greedy solution and pruned by the two-level
covering bound: an upper pick dominates one upper vertex (itself) and
C(k,l) lower ones, a lower pick one lower vertex and C(n-l,k-l) upper
ones, so the picks left over cannot beat the incumbent once the uncovered
vertices of either level outrun what they can reach.  It runs as one loop
over an explicit stack of open exclude branches, so its depth is not
bounded by Python's recursion limit; every position visited counts as one
search node.
Every solver takes a graph materialized by the caller, and its report's
``elapsed`` is the solve time alone.
"""

from __future__ import annotations

import enum
import heapq
import time
from dataclasses import dataclass
from itertools import chain, count, repeat
from math import comb

from .constructions import (
    DominationCertificate,
    Provenance,
    certificate_to_json,
    verify_certificate,
)
from .errors import CheckFailedError, InvalidParametersError, TooLargeError
from .levelgraph import LevelGraphSpec, MaterializedGraph

DEFAULT_NODE_BUDGET = 10_000_000
BRUTE_FORCE_NODE_BUDGET = 100_000_000


class Method(enum.Enum):
    BRUTE_FORCE = "brute_force"
    GREEDY = "greedy"
    BRANCH_AND_BOUND = "branch_and_bound"


@dataclass(frozen=True)
class SolveReport:
    """A re-verified witness and a lower bound; proven when they meet."""

    method: Method
    witness: DominationCertificate
    lower_bound: int
    nodes_explored: int
    elapsed: float

    def __post_init__(self) -> None:
        if self.lower_bound > self.value:
            raise CheckFailedError(
                f"lower bound {self.lower_bound} exceeds value {self.value}"
            )

    @property
    def spec(self) -> LevelGraphSpec:
        return self.witness.spec

    @property
    def value(self) -> int:
        return self.witness.size

    @property
    def proven_optimal(self) -> bool:
        return self.lower_bound == self.value

    def to_json(self) -> dict:
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
    lowers = comb(n, l)
    uppers = comb(n, k)
    cov_low = comb(k, l)
    cov_up = comb(n - l, k - l)
    best = lowers + uppers
    for a in range(-(-lowers // cov_low) + 1):
        b_low = lowers - a * cov_low
        b_up = -(-(uppers - a) // cov_up)
        b = max(0, b_low, b_up)
        best = min(best, a + b)
    return best


def _report(
    graph: MaterializedGraph, method: Method, chosen, lower_bound: int, nodes: int, start: float
) -> SolveReport:
    """The report on the chosen vertex indices, its witness re-verified."""
    nu, masks = graph.upper_count, graph.masks
    witness = DominationCertificate(
        spec=graph.spec,
        uppers=frozenset(masks[i] for i in chosen if i < nu),
        lowers=frozenset(masks[i] for i in chosen if i >= nu),
        provenance=Provenance.GREEDY if method is Method.GREEDY else Provenance.EXACT,
    )
    report = SolveReport(method, witness, lower_bound, nodes, time.perf_counter() - start)
    if not verify_certificate(witness).verified:
        raise CheckFailedError(
            f"{method.value} produced a non-dominating witness for {graph.spec}"
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


def greedy_dominate(graph: MaterializedGraph) -> SolveReport:
    """Largest-new-coverage-first greedy, lazy-evaluated on a max-heap.

    Ties break toward the smallest vertex index, i.e. upper level first and
    then colex rank, so runs are deterministic.
    """
    start = time.perf_counter()
    chosen = _greedy_cover(graph.closed)
    lb = counting_lower_bound(graph.spec)
    return _report(graph, Method.GREEDY, chosen, lb, len(chosen), start)


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


def _cap_table(
    rows: int, nl: int, cu: int, cl: int, uppers: bool, lowers: bool
) -> list[list[int]]:
    """``table[r + 1][L]`` = cap(r, L) for r in [-1, rows - 2], L in [0, nl].

    cap(r, L) is the most upper vertices that r picks can dominate while
    they also dominate L lower vertices, or -1 if they cannot.  a upper
    and r - a lower picks dominate at most a*cu + (r - a) lower and
    a + (r - a)*cl upper vertices, where an upper pick dominates cu lower
    vertices and a lower pick cl upper ones; a ranges over [0, r] when
    both levels have candidates, and is r (uppers only) or 0 (lowers
    only) otherwise.  Both totals grow with each pick, so exactly r picks
    cover the most.  As a grows by one, the lower reach rises by cu - 1
    and the upper reach falls by cl - 1 (cu, cl >= 2), so the least a that
    reaches L gives the cap: each row is a run of r + lo*(cu - 1) + 1
    entries for the least a, lo, then runs of cu - 1 entries, one per
    further a, cut at nl, then -1 where no a reaches L.  The runs are
    built in C, since a row can take about nl/(cu - 1) of them.
    """
    table = [[-1] * (nl + 1)]
    for r in range(rows - 1):
        lo, hi = (0 if lowers else r), (r if uppers else 0)
        top = lo + (r - lo) * cl
        row = [top] * (r + lo * (cu - 1) + 1)
        # The further a that still meet an L <= nl.
        more = min(hi - lo, -(-(nl + 1 - len(row)) // (cu - 1)))
        caps = range(top - (cl - 1), top - (more + 1) * (cl - 1), 1 - cl)
        row += chain.from_iterable(map(repeat, caps, repeat(cu - 1)))
        del row[nl + 1:]
        row += [-1] * (nl + 1 - len(row))
        table.append(row)
    return table


def branch_and_bound_gamma(
    graph: MaterializedGraph, node_budget: int = DEFAULT_NODE_BUDGET
) -> SolveReport:
    """Exact search via include/exclude on coverage-ordered candidates.

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

    Initialized with the greedy solution and stopped early when it meets
    the counting relaxation at the root.  A node with s vertices chosen,
    U upper and L lower vertices uncovered, can lead to a family smaller
    than the incumbent's size b only by r = b - s - 1 more picks from the
    candidates at or after its position.  It is pruned when r < 0, when
    U > cap(r, L) (see ``_cap_table``; the level classes are those of its
    remaining candidates), or when those candidates together miss a
    vertex.  The cap bound is sound for every l: any r such picks with a
    uppers dominate at most a*C(k,l) + (r - a) of the lower vertices and
    a + (r - a)*C(n-l,k-l) of the upper ones, and a dominating completion
    must reach L and U.  It prunes wherever uncovered > r * (the largest
    remaining closed neighbourhood) does, since U + L is at most
    a*(C(k,l) + 1) + (r - a)*(C(n-l,k-l) + 1).  A sound prune removes no
    family smaller than the incumbent, so the incumbents found, and an
    exhausted search's witness, do not depend on which sound bound runs.

    The search is one loop over an explicit stack, not a recursion.  A
    node that passes the prunes pushes its exclude branch and descends
    into its include branch; a pruned node resumes the most recent exclude
    branch.  An exclude branch keeps the size and cover of its node, so U
    and L are computed once per include, and a run of excludes advances
    the position in place, counting one node per position visited.  An
    include child that dominates is settled as a leaf (one node) without
    a push.

    Exceeding the node budget is a normal outcome: the report then carries
    the incumbent and the root lower bound with proven_optimal=False.  A
    budget below one node is rejected with InvalidParametersError.
    """
    if node_budget < 1:
        raise InvalidParametersError(f"node budget must be at least 1, got {node_budget}")
    start = time.perf_counter()
    masks = graph.closed
    nv = graph.vertex_count
    full = (1 << nv) - 1
    root_lb = counting_lower_bound(graph.spec)

    best_set = _greedy_cover(masks)
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
    for i in range(ncand - 1, -1, -1):
        suffix_or[i] = suffix_or[i + 1] | ordered_masks[i]
    # cap_at[p]: the cap table of the levels with candidates at or after p,
    # indexed [best_size - size][L].  Rows run to the greedy size, the
    # largest best_size - size + 1 the search meets.
    spec = graph.spec
    nl = nv - nu
    cu, cl = comb(spec.k, spec.l), comb(spec.n - spec.l, spec.k - spec.l)
    tables: dict[tuple[bool, bool], list[list[int]]] = {}
    cap_at = []
    uppers = lowers = False
    for p in range(ncand - 1, -1, -1):
        uppers |= order[p] < nu
        lowers |= order[p] >= nu
        if (uppers, lowers) not in tables:
            tables[uppers, lowers] = _cap_table(best_size, nl, cu, cl, uppers, lowers)
        cap_at.append(tables[uppers, lowers])
    cap_at.reverse()
    # No candidate is left at ncand, where the feasibility test prunes.
    cap_at.append(cap_at[-1])

    nodes = 0
    exhausted = True
    # path[:size - 1] holds the positions chosen besides the fixed vertex 0.
    path = [0] * ncand
    # Open exclude branches, each the (pos, size, cover, U, L) of the node
    # it resumes at; the loop is at the node (pos, size, cover).
    stack: list[tuple[int, int, int, int, int]] = []
    push, pop = stack.append, stack.pop
    # The root: [k] alone never dominates, since no two uppers are adjacent.
    pos, size, cover = 0, 1, masks[0]
    # Uncovered lowers and uppers; cover has no bits outside full.
    low = nl - (cover >> nu).bit_count()
    up = nv - cover.bit_count() - low
    while best_size > root_lb:
        nodes += 1
        if nodes > node_budget:
            exhausted = False
            break
        # Row 0 of every table is -1, which prunes r = best_size - size - 1
        # < 0.  suffix_or[ncand] is 0, so the last test also ends a run at
        # ncand.
        if (up > cap_at[pos][best_size - size][low]
                or cover | suffix_or[pos] != full):
            if not stack:
                break
            pos, size, cover, up, low = pop()
            continue
        # Open the exclude branch; with only [k] chosen, pos starts its
        # orbit and the branch skips the whole orbit.
        push((pos + 1 if size > 1 else next_orbit[pos], size, cover, up, low))
        # Descend into the include branch.
        path[size - 1] = pos
        cover |= ordered_masks[pos]
        size += 1
        pos += 1
        if cover != full:
            low = nl - (cover >> nu).bit_count()
            up = nv - cover.bit_count() - low
            continue
        # The include child dominates: settle it as a leaf without a push.
        nodes += 1
        if nodes > node_budget:
            exhausted = False
            break
        if size < best_size:
            best_size = size
            best_set = [0] + [order[p] for p in path[:size - 1]]
        pos, size, cover, up, low = pop()
    lower_bound = best_size if exhausted else root_lb
    return _report(graph, Method.BRANCH_AND_BOUND, best_set, lower_bound, nodes, start)

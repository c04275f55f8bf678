"""Exact and heuristic minimum dominating set computation.

All solvers read the closed-neighbourhood bitsets of a materialized
graph, one Python int per vertex, so a domination test is one OR/compare.
``branch_and_bound_gamma`` is the exact solver and ``greedy_dominate`` the
heuristic.  Both take a graph materialized by the caller, and a report's
``elapsed`` is the solve time alone.  Branch and bound starts from its
caller's report, greedy's at every call in the package, and improves it
once by iterated greedy (``_improve``) if the search runs long; from
then on it searches from two anchors in turn.
"""

from __future__ import annotations

import enum
import heapq
import random
import time
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, chain, repeat
from math import comb, factorial, prod
from operator import or_

from .constructions import (
    DominationCertificate,
    Provenance,
    certificate_to_json,
    verify_certificate,
)
from .errors import CheckFailedError, InvalidParametersError
from .levelgraph import LevelGraphSpec, MaterializedGraph

DEFAULT_NODE_BUDGET = 10_000_000
# Branch and bound branches on orbits at nodes with at most this many
# members chosen, the anchor included; 1 is the root alone.  Deeper caps cut
# nodes but cost time: each such node that branches reads one table per
# atom, and copies two lists unless its orbit is its candidate alone.
# README has the depth-by-time table behind 5.
ORBIT_DEPTH = 5
# Nodes with at most this many members chosen, the anchor included, check for
# forced vertices before they branch; deeper nodes skip the check, so the
# budget-bound searches, nearly all of whose nodes are deep, do not pay
# for it.  README has the depth-by-time table behind 8.  The orbit step
# sits inside the check's branch, so this is at least ORBIT_DEPTH.
FORCED_DEPTH = 8
# Branch and bound runs ``_improve`` on its incumbent once, when the search
# passes IMPROVE_AT nodes without a proof: above every search that proves
# quickly, so those keep their trees, and well inside the conjecture
# table's 200,000; then its two sides take turns in slices of as many
# nodes.  The improver runs IMPROVE_ITERATIONS iterations from
# a fixed seed, each dropping IMPROVE_SHARE of the members, so its result
# is the same on every run.  README has the measurements behind them.
IMPROVE_AT = 50_000
IMPROVE_ITERATIONS = 100
IMPROVE_SHARE = 0.35
IMPROVE_SEED = 0


class Method(enum.Enum):
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


def _clique_floor(n: int, k: int, m: int) -> int:
    """A lower bound on the number of k-cliques of any graph with n
    vertices and m edges, from the Moon-Moser chain (Moon and Moser 1962;
    Khadzhiivanov and Nikiforov 1978).

    With N_s the number of s-cliques, N_{s+1}/N_s >= (s^2 N_s/N_{s-1} - n)
    / (s^2 - 1) for s >= 2 while N_s > 0.  Started at N_2/N_1 = m/n, the
    chain's bounds on N_s/N_{s-1} are x_s = b_s/(s n), by induction, with
    b_s = 2(s-1)m - (s-2)n^2, which falls as s grows.  So if b_k > 0 then
    N_k >= n x_2 ... x_k = b_2 ... b_k / (k! n^(k-2)), and otherwise the
    bound is 0.
    """
    step = n * n - 2 * m
    if 2 * m <= (k - 2) * step:
        return 0
    factors = range(2 * m, 2 * m - (k - 1) * step, -step)
    return -(-prod(factors) // (factorial(k) * n ** (k - 2)))


@lru_cache(maxsize=None)
def pair_graph_lower_bound(n: int, k: int) -> int:
    """The pair-graph lower bound on gamma(G_{k,2}), scanned once per (n, k).

    Write a dominating family as A, its k-set members, and H, its e pair
    members read as a graph on [n].  The C(n,2) - e pairs outside H each
    lie in a member of A, which holds C(k,2) pairs, and every k-set
    independent in H, a k-clique of H's complement, is in A.  So the
    family has at least e + max(ceil((C(n,2) - e)/C(k,2)), c) members,
    where c is ``_clique_floor`` of the complement's C(n,2) - e edges;
    the bound is the least of these over e.  e plus the cover term never
    falls as e grows, so the scan ends once it reaches the least value so
    far.  README has the full proof.
    """
    LevelGraphSpec(n, k, 2)  # rejects what is not an l = 2 spec
    pairs, per = comb(n, 2), comb(k, 2)
    best = pairs
    for e in range(pairs + 1):
        covered = e - (e - pairs) // per
        if covered >= best:
            break
        best = min(best, max(covered, e + _clique_floor(n, k, pairs - e)))
    return best


def duality_lower_bound(spec: LevelGraphSpec) -> int:
    """With c = n - k: c + 1 for l = 1, l + 1 for c = 1, and min(n, c + l + 2)
    otherwise.  Symmetric in c and l, so equal on G_{k,l} and on its image
    G_{n-l,n-k}.  README has the proof, from the duality of ``constructions``."""
    c, l = spec.n - spec.k, spec.l
    return max(c, l) + 1 if min(c, l) == 1 else min(spec.n, c + l + 2)


def spec_lower_bound(spec: LevelGraphSpec) -> int:
    """The lower bound known from the spec alone, branch and bound's root
    bound: the largest of the duality bound and the bounds of G_{k,l} and
    of G_{n-l,n-k}, its image under S -> [n] \\ S, each the pair-graph
    bound for l = 2 and the counting bound otherwise.  The counting bound
    is the same on both, so only k = n - 2 gains: its image has l = 2."""
    n, k, l = spec.n, spec.k, spec.l
    if l == 2 or k == n - 2:
        side = pair_graph_lower_bound(n, k if l == 2 else n - l)
    else:
        side = counting_lower_bound(spec)
    return max(side, duality_lower_bound(spec))


def _report(
    graph: MaterializedGraph, method: Method, chosen, lower_bound: int, nodes: int, start: float
) -> SolveReport:
    """The report on the chosen vertex indices, its witness re-verified from
    its masks alone, by a check that shares no code with ``materialize``."""
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


def greedy_dominate(graph: MaterializedGraph) -> SolveReport:
    """Largest-new-coverage-first greedy, lazy-evaluated on a max-heap,
    less the picks that the others make redundant (``_irredundant``,
    latest first), so no member of the witness can be left out.

    Ties break toward the smallest vertex index, i.e. upper level first
    and then colex rank, so runs are deterministic.
    """
    start = time.perf_counter()
    masks = graph.closed
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
    chosen = _irredundant(masks, chosen, full)
    lb = spec_lower_bound(graph.spec)
    return _report(graph, Method.GREEDY, chosen, lb, len(chosen), start)


def _irredundant(masks, picks: list[int], full: int) -> list[int]:
    """``picks``, a dominating list of vertices, less those that the others
    make redundant, dropped latest first.  Pick j goes when the picks
    before it and the later picks kept so far cover everything; a kept
    pick stays needed, since dropping earlier picks only shrinks what
    covers for it.  So no member of the result can be left out."""
    # prefix[j]: what the picks before pick j cover.
    prefix = list(accumulate(map(masks.__getitem__, picks), or_, initial=0))
    prefix.pop()
    kept = 0
    out = []
    for v, before in zip(reversed(picks), reversed(prefix)):
        if before | kept != full:
            kept |= masks[v]
            out.append(v)
    out.reverse()
    return out


def _improve(graph: MaterializedGraph, chosen: list[int], bound: int) -> list[int]:
    """A dominating family no larger than ``chosen``, by iterated greedy
    (Ruiz and Stuetzle, EJOR 2007): ``chosen`` itself unless a smaller
    family turns up.

    Each of IMPROVE_ITERATIONS iterations drops IMPROVE_SHARE of the
    current family's members, drawn by a ``random.Random`` seeded with
    IMPROVE_SEED, and repairs the rest: while a vertex is undominated, it
    adds the dominator of one undominated vertex u that dominates the
    most undominated vertices (``_best_dominator``).  u is the least
    undominated vertex of the level whose vertices have fewer dominators,
    while that level has one, so that few candidates are weighed.  The
    repaired family then loses its redundant members, the kept ones first
    (``_irredundant``), and becomes the current family if it is no
    larger.  The loop also ends once a family meets ``bound``, a lower
    bound on every dominating family.
    """
    masks = graph.closed
    full = (1 << len(masks)) - 1
    n, k, l = graph.spec.n, graph.spec.k, graph.spec.l
    uppers = (1 << graph.upper_count) - 1
    # An upper vertex has 1 + C(k,l) dominators and a lower one 1 + C(n-l,k-l).
    first = uppers if comb(k, l) <= comb(n - l, k - l) else full ^ uppers
    rng = random.Random(IMPROVE_SEED)
    lists: dict[int, list[tuple[int, int]]] = {}
    best = chosen
    current = sorted(chosen)
    for _ in range(IMPROVE_ITERATIONS):
        if len(best) <= bound:
            break
        dropped = set(rng.sample(current, round(IMPROVE_SHARE * len(current))))
        kept = [v for v in current if v not in dropped]
        missing = full ^ reduce(or_, map(masks.__getitem__, kept), 0)
        added = []
        while missing:
            u = missing & first or missing
            v = _best_dominator(masks, (u & -u).bit_length() - 1, missing, lists)
            added.append(v)
            missing &= ~masks[v]
        family = _irredundant(masks, added + kept, full)
        if len(family) <= len(current):
            current = family
            if len(family) < len(best):
                best = family
    return best


def _best_dominator(masks, u: int, missing: int, lists: dict) -> int:
    """The least vertex v of N[u] with the most vertices of ``missing`` in
    N[v], ``masks`` being the closed neighbourhoods.

    v is in N[w] iff w is in N[v], so v's count is also the number of w in
    ``missing`` with v in N[w].  When ``missing`` has under an eighth as
    many vertices as N[u] (one of them costs about as much as eight
    dominators counted in turn), the counts are summed over its vertices
    w, as bitsets N[w] & N[u], in bit-sliced binary: ``digits[i]`` holds
    bit i of every count.  Otherwise each v in N[u] is counted in turn,
    from u's list of dominators and their masks, cached in ``lists`` when
    first built.
    """
    candidates = masks[u]
    if 8 * missing.bit_count() < candidates.bit_count():
        digits: list[int] = []
        while missing:
            w = missing & -missing
            missing ^= w
            carry = masks[w.bit_length() - 1] & candidates
            for i, d in enumerate(digits):
                digits[i] = d ^ carry
                carry &= d
                if not carry:
                    break
            else:
                digits.append(carry)
        # Those with the largest count, read from its top bit down.
        for d in reversed(digits):
            if candidates & d:
                candidates &= d
        return (candidates & -candidates).bit_length() - 1
    dominators = lists.get(u)
    if dominators is None:
        dominators, m = [], candidates
        while m:
            v = (m & -m).bit_length() - 1
            dominators.append((v, masks[v]))
            m ^= 1 << v
        lists[u] = dominators
    best = most = -1
    for v, reach in dominators:
        count = (reach & missing).bit_count()
        if count > most:
            best, most = v, count
    return best


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


def _atom_table(atom: int, contains: list[int], every: int) -> list[int]:
    """``table[c]``: the mask of the candidate positions whose subset
    meets ``atom`` in exactly c elements, for c in [0, |atom|].  Bit p of
    ``contains[e]`` is set iff the subset at position p contains element e
    (0-based), and ``every`` has a bit for each position.  It is grown one
    element e at a time: a position meets the elements so far in c iff it
    met the earlier ones in c and misses e, or in c - 1 and contains e."""
    table = [every]
    while atom:
        e = atom.bit_length() - 1
        atom ^= 1 << e
        has = contains[e]
        table = [t & ~has | u & has for t, u in zip(table + [0], [0] + table)]
    return table


def _split_atoms(atoms, member: int, contains: list[int], every: int, tables: dict):
    """The (atom, ``_atom_table``) pairs of a family with ``member`` added,
    from the family's ``atoms``, each split by ``member``; cached in ``tables``."""
    parts = [part for a, _ in atoms for part in (a & member, a & ~member) if part]
    for part in parts:
        if part not in tables:
            tables[part] = _atom_table(part, contains, every)
    return [(part, tables[part]) for part in parts]


def branch_and_bound_gamma(
    graph: MaterializedGraph,
    incumbent: SolveReport,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SolveReport:
    """Exact search via include/exclude on coverage-ordered candidates,
    from two anchors in turn; README "Notes" has the proofs.

    Each side (``_search``) searches only the families that contain its
    anchor: the upper vertex [k] (vertex 0), or the lower vertex
    {n-l+1, ..., n} (the last vertex).  Some minimum family contains [k]:
    [k] plus every l-set not inside it dominates with fewer members than
    the whole lower level, so a minimum family has an upper member, and
    S_n permutes the k-sets transitively.  S -> [n] \\ S maps G_{k,l} onto
    G_{n-l,n-k} and {n-l+1, ..., n} to [n-l], so the same argument there
    covers the lower anchor.

    The [k] side runs alone until IMPROVE_AT nodes.  Then ``_improve``
    runs once on the incumbent, and the sides take turns in
    IMPROVE_AT-node slices, the lower side first, its tables built then;
    where k + l = n, the map sends the graph onto itself and the lower
    side's tree onto the [k] side's, so the [k] side goes on alone.
    The sides share the incumbent, started from ``incumbent``'s witness, and
    the node budget: ``nodes_explored`` is their sum.  The search stops
    when the incumbent meets the root bound ``spec_lower_bound``, at once
    if ``incumbent`` does, or when either side exhausts its tree: no
    family smaller than the incumbent then exists, and its size is proven.

    Exceeding the node budget is a normal outcome: the report then carries
    the incumbent and the root lower bound with proven_optimal=False.  A
    budget below one node is rejected with InvalidParametersError.
    """
    if node_budget < 1:
        raise InvalidParametersError(f"node budget must be at least 1, got {node_budget}")
    start = time.perf_counter()
    # The root bound, raised to the incumbent's size when a side is done.
    spec = graph.spec
    lower_bound = spec_lower_bound(spec)
    if incumbent.spec != spec:
        raise InvalidParametersError(f"incumbent is for {incumbent.spec}, not {spec}")
    index = {m: i for i, m in enumerate(graph.masks)}
    # best[0]: the incumbent's vertices, shared by the sides.
    best = [sorted(index[m] for m in incumbent.witness.uppers | incumbent.witness.lowers)]
    nodes = [0]
    if len(best[0]) > lower_bound:
        tables: dict[tuple[bool, bool], list[list[int]]] = {}
        sides = [_search(graph, 0, best, lower_bound, tables)]
        next(sides[0])
        turn, improved = 0, False
        while True:
            hard = nodes[turn] + node_budget - sum(nodes)
            try:
                nodes[turn] = sides[turn].send((min(nodes[turn] + IMPROVE_AT, hard), hard))
            except StopIteration as stop:
                done, nodes[turn] = stop.value
                break
            if not improved:
                # Once: the improver's family is the incumbent from here on.
                improved = True
                best[0] = _improve(graph, best[0], lower_bound)
                done = len(best[0]) <= lower_bound
                if done:
                    break
                if spec.k + spec.l != spec.n:
                    sides.append(_search(graph, graph.vertex_count - 1, best, lower_bound,
                                         tables))
                    nodes.append(next(sides[1]))
            turn = (turn + 1) % len(sides)
        if done:
            lower_bound = len(best[0])
    return _report(graph, Method.BRANCH_AND_BOUND, best[0], lower_bound, sum(nodes), start)


def _search(graph: MaterializedGraph, anchor: int, best: list, lower_bound: int, tables: dict):
    """One side of ``branch_and_bound_gamma``: a generator that searches
    the families containing vertex ``anchor``, 0 or the last vertex.

    The candidates, the other vertices, are sorted by (-degree, -overlap,
    index): on the [k] side the overlap is |v & [k]| and the index
    ascends; on the lower side the overlap is |[n] \\ (v | anchor)| and the
    index descends.  That is the [k] side's order on G_{n-l,n-k} read back
    through S -> [n] \\ S, which reverses the vertex order, and the cap
    tables bound the same (upper, lower) counts from either level, so the
    lower side visits the nodes of the [k] side on G_{n-l,n-k} one for one.

    A node is pruned when it can lead to no family smaller than the
    incumbent, ``best[0]``: by the cap bound (``_cap_table``) on its
    uncovered upper and lower vertices, with the level classes of the
    candidates at or after its position, or when those candidates miss a
    vertex.  A node with at most FORCED_DEPTH members chosen, the anchor
    included, first applies the forced-vertex rule (Fomin, Grandoni and
    Kratsch, J. ACM 2009): each uncovered vertex that no candidate at or
    after its position dominates but itself (``dead``) is chosen, and the
    rest must pass the cap test.  One with at most ORBIT_DEPTH members
    branches on orbits (Ostrowski, Linderoth, Rossi and Smriglio, Math.
    Program. 2011): the exclude branch drops its candidate's orbit under
    the pointwise stabilizer of the chosen members, the AND of their
    atoms' ``_atom_table`` entries at its counts, by unlinking the orbit
    from copies of the lists that link each free position to the next
    and the previous.  Every prune reads excluded candidates too, so it
    is sound, only looser.

    The search is one loop over an explicit stack of open exclude
    branches; a node carries ``need``, the vertices its members leave
    undominated.  An include child is counted and checked as it is made; a
    run of excludes advances the position in place, one node per position.
    Past FORCED_DEPTH members, a tight inner loop walks the include
    children and the exclude siblings of those that fail, the same nodes in
    the same order.  Primed by ``next``, the generator is sent (limit,
    hard) node counts.  At the first node past limit it yields its count;
    when resumed with a smaller ``best[0]``, from the improver or the other
    side, it drops the open branches, its node's included, with as many
    members.  Past hard it returns (False, count): the budget is spent.
    It returns (True, count) when its tree is exhausted or the incumbent
    meets ``lower_bound``, and ``best[0]`` is then optimal.
    """
    masks = graph.closed
    nv = graph.vertex_count
    full = (1 << nv) - 1
    spec = graph.spec
    amask = graph.masks[anchor]
    # The lower side reads subsets through the complement map.
    flip, sign = ((1 << spec.n) - 1, -1) if anchor else (0, 1)
    overlap = [((m ^ flip) & (amask ^ flip)).bit_count() for m in graph.masks]
    order = sorted((i for i in range(nv) if i != anchor),
                   key=lambda i: (-masks[i].bit_count(), -overlap[i], sign * i))
    # ordered_need[p]: the vertices that the candidate at p leaves undominated.
    ordered_need = [full ^ masks[i] for i in order]
    ncand = len(order)
    # miss[p]: the vertices that no candidate at or after p dominates;
    # dead[p]: those that none dominates but the vertex itself, which must
    # be chosen while it is uncovered.
    miss = [full] * (ncand + 1)
    dead = [full] * (ncand + 1)
    reach = 0
    for i in range(ncand - 1, -1, -1):
        miss[i] = miss[i + 1] & ordered_need[i]
        reach |= masks[order[i]] & ~(1 << order[i])
        dead[i] = full ^ reach
    # miss[p] only grows with p: it is 0 exactly before position gap.
    gap = miss.count(0)
    best_size = len(best[0])
    # cap_at[p]: the cap table of the levels with candidates at or after p,
    # indexed [best_size - size][L].  Rows run to the incumbent's size when
    # a table is first built, the largest best_size - size + 1 met since.
    nu = graph.upper_count
    nl = nv - nu
    cu, cl = comb(spec.k, spec.l), comb(spec.n - spec.l, spec.k - spec.l)
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

    # contains[e]: the positions whose subset contains element e, read off
    # the columns of the subsets in binary, the last position first.
    subsets = [graph.masks[i] for i in order]
    bits = [format(m, f"0{spec.n}b") for m in reversed(subsets)]
    contains = [int("".join(col), 2) for col in zip(*bits)][::-1]
    every = (1 << ncand) - 1
    atom_tables: dict[int, list[int]] = {}

    nodes = 0
    # path[:size - 1] holds the positions chosen besides the anchor.
    path = [0] * ncand
    # atoms_at[s]: the atoms of the s members chosen, with their tables,
    # once a node of size s has branched on them.
    atoms_at: list[list[tuple[int, list[int]]] | None] = [None] * (ORBIT_DEPTH + 2)
    atoms_at[1] = _split_atoms([((1 << spec.n) - 1, [])], amask, contains, every, atom_tables)
    # Open exclude branches, each the (pos, size, need, U, L, nxt) of the
    # node it resumes at; the loop is at the node (pos, size, need, nxt),
    # need being the vertices that its members leave undominated.
    # nxt[p] is the free position after the free position p; ncand, past
    # the last candidate, is never excluded.  For s up to ORBIT_DEPTH,
    # prv_at[s][q] is the free position before q, for each free q after
    # the position of the node of size s, on the stack or the loop's: the
    # stack holds at most one entry per size, each below the loop's size.
    stack: list[tuple[int, int, int, int, int, list[int]]] = []
    push, pop = stack.append, stack.pop
    prv_at = [list(range(-1, ncand))] * (ORBIT_DEPTH + 2)
    # The root: the anchor alone never dominates, since no two vertices of
    # a level are adjacent.
    pos, size, need, nxt = 0, 1, full ^ masks[anchor], list(range(1, ncand + 2))
    # Uncovered lowers and uppers.
    low = (need >> nu).bit_count()
    up = need.bit_count() - low
    limit, hard = yield nodes
    while best_size > lower_bound:
        nodes += 1
        if nodes > limit:
            if nodes > hard:
                return False, nodes
            limit, hard = yield nodes
            if len(best[0]) < best_size:
                # The open branches of the new size or more, the node's own
                # included, cannot beat it, and are dropped: they sit on
                # top of the stack, whose sizes rise.
                best_size = len(best[0])
                while stack and stack[-1][1] >= best_size:
                    pop()
                if size >= best_size:
                    if not stack:
                        break
                    pos, size, need, up, low, nxt = pop()
                if best_size <= lower_bound:
                    break
        # Row 0 of every table is -1, which prunes r = best_size - size - 1
        # < 0.  miss[ncand] is full, so the last test also ends a run at
        # ncand.
        if up > cap_at[pos][best_size - size][low] or need & miss[pos]:
            if not stack:
                break
            pos, size, need, up, low, nxt = pop()
            continue
        # The node passed: branch on it, and on each include child that
        # passes in turn.
        while True:
            if size > FORCED_DEPTH:
                # The run reads each include child against its own table:
                # a later one is never looser, so only a child that passes
                # across a border is read again.  A failed child's exclude
                # sibling has the need, size and table of a node that
                # passed, so only its feasibility test, empty before gap,
                # is left.  One that fails it, lies across a border or
                # would pass limit goes to the loop's top, which counts and
                # tests it, so every yield falls where it did.
                table = cap_at[pos]
                row = table[best_size - size - 1]
                while True:
                    path[size - 1] = pos
                    child = need & ordered_need[pos]
                    nodes += 1
                    if nodes > hard:
                        return False, nodes
                    pos = nxt[pos]
                    if not child:
                        if size + 1 < best_size:
                            best_size = size + 1
                            best[0] = [anchor] + [order[p] for p in path[:size]]
                        break
                    clow = (child >> nu).bit_count()
                    cup = child.bit_count() - clow
                    if cup > row[clow] or child & miss[pos]:
                        if (nodes >= limit or cap_at[pos] is not table
                                or pos >= gap and need & miss[pos]):
                            break
                        nodes += 1
                    elif cap_at[pos] is table or cup <= cap_at[pos][best_size - size - 1][clow]:
                        push((pos, size, need, up, low, nxt))
                        size += 1
                        need, up, low = child, cup, clow
                        table = cap_at[pos]
                        row = table[best_size - size - 1]
                    else:
                        break
                break
            # Every completion chooses the dead vertices still uncovered:
            # prune when they, with r - |F| picks after them, cannot
            # dominate.  rest indexes the cap row of r - |F| picks.
            forced = dead[pos] & need
            if forced:
                rest = best_size - size - forced.bit_count()
                fneed = need
                while forced:
                    v = forced & -forced
                    fneed &= ~masks[v.bit_length() - 1]
                    forced ^= v
                flow = (fneed >> nu).bit_count()
                if rest <= 0 or fneed.bit_count() - flow > cap_at[pos][rest][flow]:
                    if not stack:
                        return True, nodes
                    pos, size, need, up, low, nxt = pop()
                    break
            # The exclude branch (epos, size, need, up, low, enxt).
            if size > ORBIT_DEPTH:
                epos, enxt = nxt[pos], nxt
            else:
                # It drops pos's whole orbit, which is free and starts
                # at pos: the orbit's other positions, if any, are
                # unlinked from copies of nxt and prv, the last first.
                atoms = atoms_at[size]
                if atoms is None:
                    atoms = atoms_at[size] = _split_atoms(
                        atoms_at[size - 1], subsets[path[size - 2]], contains, every,
                        atom_tables)
                v = subsets[pos]
                orbit = every
                for a, table in atoms:
                    orbit &= table[(v & a).bit_count()]
                prv = eprv = prv_at[size]
                enxt = nxt
                q = orbit.bit_length() - 1
                if q > pos:
                    enxt, eprv = nxt.copy(), prv.copy()
                while q > pos:
                    a, b = eprv[q], enxt[q]
                    enxt[a], eprv[b] = b, a
                    orbit ^= 1 << q
                    q = orbit.bit_length() - 1
                epos = enxt[pos]
                # The include child keeps nxt and chooses a new set of
                # size + 1; the exclude branch takes enxt.
                prv_at[size + 1], prv_at[size] = prv, eprv
                atoms_at[size + 1] = None
            # The include child, counted and checked here.
            path[size - 1] = pos
            child = need & ordered_need[pos]
            nodes += 1
            if nodes > hard:
                return False, nodes
            if not child:
                # A leaf.
                if size + 1 < best_size:
                    best_size = size + 1
                    best[0] = [anchor] + [order[p] for p in path[:size]]
                pos, nxt = epos, enxt
                break
            cpos = nxt[pos]
            clow = (child >> nu).bit_count()
            cup = child.bit_count() - clow
            if cup > cap_at[cpos][best_size - size - 1][clow] or child & miss[cpos]:
                pos, nxt = epos, enxt
                break
            push((epos, size, need, up, low, enxt))
            pos, size, need, up, low = cpos, size + 1, child, cup, clow
    return True, nodes

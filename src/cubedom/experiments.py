"""Parameter sweeps reproducing the theorem checks, and the conjecture table.

Each sweep emits ExperimentRow records in deterministic (n, k) order; a
row that contradicts a theorem check raises CheckFailedError.  One rule,
``_row``, proves every row; both theorem sweeps and the gk1 check run
``_sweep``.  The conjectured quadratic main term is tabulated for
comparison only: no finite computation can confirm or refute an
asymptotic statement, so the table carries values and ratios, never a
verdict.
"""

from __future__ import annotations

import json
from dataclasses import asdict, astuple, dataclass, fields
from math import ceil
from typing import Iterable, Optional

from .constructions import (
    DominationCertificate,
    gk1_construct,
    theorem1_construct,
    theorem2_construct,
    verify_certificate,
)
from .errors import CheckFailedError, InvalidParametersError
from .levelgraph import LevelGraphSpec, MaterializedGraph, materialize
from .solver import SolveReport, branch_and_bound_gamma, greedy_dominate, spec_lower_bound
from .subsets import MAX_GROUND_SET

# Above this n, the sweeps build no graph.  Up to it each row is checked by
# two methods that share no code, the structural check and the members'
# closed neighbourhoods in the graph, so a fault in either fails the sweep;
# above it the structural check alone certifies the construction.
SWEEP_GRAPH_N_CAP = 12
CONJECTURE_NODE_BUDGET = 200_000


@dataclass(frozen=True)
class ExperimentRow:
    n: int
    k: int
    gamma_exact: Optional[int]
    proven: bool
    greedy_value: Optional[int]
    construction_size: Optional[int]
    lower_bound: int
    conjecture_main_term: Optional[float]

    def __post_init__(self) -> None:
        if self.gamma_exact is not None and self.greedy_value is not None:
            if not self.lower_bound <= self.gamma_exact <= self.greedy_value:
                raise CheckFailedError(
                    f"(n={self.n},k={self.k}): bounds do not nest: lower "
                    f"{self.lower_bound}, gamma {self.gamma_exact}, "
                    f"greedy {self.greedy_value}"
                )


CSV_HEADER = ",".join(f.name for f in fields(ExperimentRow))


def conjecture_main_term(n: int, k: int) -> float:
    """The conjectured quadratic main term (k+3) n^2 / (2 (k-1) (k+1))."""
    if k < 3:
        raise InvalidParametersError(f"main term is stated for k >= 3, got k={k}")
    return (k + 3) * n * n / (2 * (k - 1) * (k + 1))


def _row(spec: LevelGraphSpec, cert: Optional[DominationCertificate],
         greedy: Optional[SolveReport], report: Optional[SolveReport]) -> ExperimentRow:
    """The table row of one spec; every runner builds its rows here.

    The verified construction ``cert``, greedy's report and branch and
    bound's (from greedy's) may each be missing.  The row is proven when
    the least of their sizes equals its lower bound, the greatest of
    ``spec_lower_bound`` and the reports' bounds; a lower bound above a
    verified size raises CheckFailedError.  l = 2 rows get the main term.
    """
    found = [r for r in (greedy, report) if r is not None]
    upper = min([r.value for r in found] + ([cert.size] if cert is not None else []))
    lower = max([spec_lower_bound(spec)] + [r.lower_bound for r in found])
    if lower > upper:
        raise CheckFailedError(f"(n={spec.n},k={spec.k}): lower bound {lower} exceeds "
                               f"a verified family of {upper} members")
    return ExperimentRow(
        n=spec.n,
        k=spec.k,
        gamma_exact=upper if upper == lower else None,
        proven=upper == lower,
        greedy_value=None if greedy is None else greedy.value,
        construction_size=None if cert is None else cert.size,
        lower_bound=lower,
        conjecture_main_term=conjecture_main_term(spec.n, spec.k) if spec.l == 2 else None,
    )


def _covers(graph: MaterializedGraph, cert: DominationCertificate) -> bool:
    """Whether the members' closed neighbourhoods in the graph cover it."""
    index = {m: i for i, m in enumerate(graph.masks)}
    cover = 0
    for m in cert.uppers | cert.lowers:
        cover |= graph.closed[index[m]]
    return cover == (1 << graph.vertex_count) - 1


def _check_range(n_min: int, n_max: int) -> None:
    """Reject a range of n before any row runs: one that is empty, starts
    below 4 or ends past the ground-set cap."""
    if not 4 <= n_min <= n_max:
        raise InvalidParametersError(f"need 4 <= n_min <= n_max, got {n_min}..{n_max}")
    if n_max > MAX_GROUND_SET:
        raise InvalidParametersError(f"n={n_max} exceeds {MAX_GROUND_SET}")


def _sweep(items: Iterable[tuple[DominationCertificate, int]],
           tight: bool = False) -> list[ExperimentRow]:
    """The rows of a sweep, one per (construction, size bound).

    Every row checks the bound and verifies the construction.  Up to
    SWEEP_GRAPH_N_CAP the members' closed neighbourhoods in the built graph
    check it a second time, independently, and greedy runs.  No row
    searches: the construction or greedy against ``spec_lower_bound`` is
    the proof of every row proven.  With ``tight`` the size bound is gamma
    itself, and a row that does not prove it raises.
    """
    rows = []
    for cert, bound in items:
        spec = cert.spec
        where = f"(n={spec.n},k={spec.k})"
        if cert.size > bound:
            raise CheckFailedError(
                f"{where}: construction has {cert.size} members, bound is {bound}")
        if not verify_certificate(cert).verified:
            raise CheckFailedError(f"{where}: structural verification failed")
        greedy = None
        if spec.n <= SWEEP_GRAPH_N_CAP:
            graph = materialize(spec)
            if not _covers(graph, cert):
                raise CheckFailedError(f"{where}: certificate fails to dominate the built graph")
            greedy = greedy_dominate(graph)
        row = _row(spec, cert, greedy, None)
        if tight and row.gamma_exact != bound:
            raise CheckFailedError(f"n={spec.n}: lower bound {row.lower_bound} and construction "
                                   f"do not prove gamma = {bound} at k={spec.k}")
        rows.append(row)
    return rows


def run_theorem2_sweep(n_min: int, n_max: int) -> list[ExperimentRow]:
    """Per n: build the 3-member certificate, verify it, and prove gamma = 3
    from it and the lower bound of 3, whether or not greedy ran (see ``_sweep``)."""
    _check_range(n_min, n_max)
    return _sweep(((theorem2_construct(n), 3) for n in range(n_min, n_max + 1)), tight=True)


def run_theorem1_sweep(n_min: int, n_max: int) -> list[ExperimentRow]:
    """For each n and ceil(n/2) < k < n: construct, verify, record sizes,
    under the size bound ceil(n/2) + 6 (see ``_sweep``)."""
    _check_range(n_min, n_max)
    return _sweep((theorem1_construct(n, k), ceil(n / 2) + 6)
                  for n in range(n_min, n_max + 1) for k in range(ceil(n / 2) + 1, n))


def run_gk1_check(n_max: int) -> list[ExperimentRow]:
    """Prove gamma(G_{k,1}) = n - k + 1 for all 2 <= k < n <= n_max <= 64:
    the l = 1 construction meets the duality bound (see ``_sweep``)."""
    if not 3 <= n_max <= MAX_GROUND_SET:
        raise InvalidParametersError(f"need 3 <= n_max <= {MAX_GROUND_SET}, got {n_max}")
    return _sweep(((gk1_construct(n, k), n - k + 1)
                   for n in range(3, n_max + 1) for k in range(2, n)), tight=True)


def run_conjecture_table(n_min: int, n_max: int, k_min: int, k_max: int) -> list[ExperimentRow]:
    """Solver bounds next to the conjectured main term; report-only.

    One row per n_min <= n <= n_max and k_min <= k <= k_max with k < n.
    Only those rows are visited, so the work does not grow with bounds
    past them.  Where k > ceil(n/2) the verified theorem-1 construction
    counts in ``_row`` too.
    """
    if n_min > n_max or k_min > k_max:
        raise InvalidParametersError("conjecture table needs a non-empty n range and k range")
    if k_min < 3:
        raise InvalidParametersError("conjecture table requires k >= 3")
    if k_min >= n_max:
        raise InvalidParametersError(
            f"conjecture table has no row: no k in {k_min}..{k_max} is below "
            f"an n in {n_min}..{n_max}"
        )
    # The first n with a row; the checks above give 4 <= n_min <= n_max.
    n_min = max(n_min, k_min + 1)
    _check_range(n_min, n_max)
    rows = []
    for n in range(n_min, n_max + 1):
        for k in range(k_min, min(k_max, n - 1) + 1):
            spec = LevelGraphSpec(n, k, 2)
            graph = materialize(spec)
            greedy = greedy_dominate(graph)
            report = branch_and_bound_gamma(graph, greedy, CONJECTURE_NODE_BUDGET)
            cert = theorem1_construct(n, k) if k > ceil(n / 2) else None
            if cert is not None and not verify_certificate(cert).verified:
                raise CheckFailedError(f"(n={n},k={k}): structural verification failed")
            rows.append(_row(spec, cert, greedy, report))
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def rows_to_csv(rows: list[ExperimentRow]) -> str:
    lines = [CSV_HEADER] + [",".join(_cell(v) for v in astuple(r)) for r in rows]
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[ExperimentRow]) -> str:
    return json.dumps([asdict(r) for r in rows], indent=2) + "\n"

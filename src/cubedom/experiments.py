"""Parameter sweeps reproducing the theorem checks, and the conjecture table.

Each sweep emits ExperimentRow records in deterministic (n, k) order; a
row that contradicts a theorem check raises CheckFailedError.  The
conjectured quadratic main term is tabulated for comparison only: no
finite computation can confirm or refute an asymptotic statement, so the
table carries values and ratios, never a verdict.
"""

from __future__ import annotations

import json
from dataclasses import asdict, astuple, dataclass, fields
from math import ceil
from typing import Iterable, Optional

from .constructions import theorem1_construct, theorem2_construct, verify_certificate, verify_structural
from .errors import BudgetExceededError, CheckFailedError, InvalidParametersError
from .levelgraph import LevelGraphSpec, materialize
from .solver import DEFAULT_NODE_BUDGET, branch_and_bound_gamma, counting_lower_bound, greedy_dominate
from .subsets import binomial

# Above this n, theorem sweeps stop calling the exact solver; the
# structural argument still certifies the construction at any n <= 64.
THEOREM2_SOLVER_N_CAP = 12
THEOREM1_SOLVER_N_CAP = 7
THEOREM1_ENUM_N_CAP = 12
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
                raise ValueError(
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


def _main_term_or_none(n: int, k: int) -> Optional[float]:
    return conjecture_main_term(n, k) if k >= 3 else None


def run_theorem2_sweep(
    n_min: int,
    n_max: int,
    solver_n_cap: int = THEOREM2_SOLVER_N_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[ExperimentRow]:
    """Per n: build the 3-vertex certificate, verify it, confirm gamma = 3."""
    if not 4 <= n_min <= n_max:
        raise InvalidParametersError(f"need 4 <= n_min <= n_max, got {n_min}..{n_max}")
    rows = []
    for n in range(n_min, n_max + 1):
        cert = theorem2_construct(n)
        if cert.size != 3:
            raise CheckFailedError(f"n={n}: construction size {cert.size} != 3")
        if not verify_certificate(cert).verified:
            raise CheckFailedError(f"n={n}: theorem-2 certificate fails to dominate")
        spec = cert.spec
        graph = materialize(spec)
        greedy = greedy_dominate(graph)
        gamma = None
        proven = False
        if n <= solver_n_cap:
            report = branch_and_bound_gamma(graph, node_budget=node_budget)
            if report.proven_optimal:
                gamma, proven = report.value, True
                if gamma != 3:
                    raise CheckFailedError(f"n={n}: proven gamma {gamma} != 3")
        rows.append(
            ExperimentRow(
                n=n,
                k=n - 1,
                gamma_exact=gamma,
                proven=proven,
                greedy_value=greedy.value,
                construction_size=3,
                lower_bound=counting_lower_bound(spec),
                conjecture_main_term=_main_term_or_none(n, n - 1),
            )
        )
    return rows


def run_theorem1_sweep(
    n_min: int,
    n_max: int,
    enum_n_cap: int = THEOREM1_ENUM_N_CAP,
    exact_n_cap: int = THEOREM1_SOLVER_N_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[ExperimentRow]:
    """For each n and ceil(n/2) < k < n: construct, verify, record sizes.

    Enumerative verification and exact solving are skipped above their n
    caps; the structural verifier runs for every row.
    """
    if not 4 <= n_min <= n_max:
        raise InvalidParametersError(f"need 4 <= n_min <= n_max, got {n_min}..{n_max}")
    rows = []
    for n in range(n_min, n_max + 1):
        bound = ceil(n / 2) + 6
        for k in range(ceil(n / 2) + 1, n):
            cert = theorem1_construct(n, k)
            if not verify_structural(cert).verified:
                raise CheckFailedError(f"(n={n},k={k}): structural verification failed")
            if cert.size > bound:
                raise CheckFailedError(f"(n={n},k={k}): size {cert.size} > {bound}")
            if n <= enum_n_cap:
                if not verify_certificate(cert).verified:
                    raise CheckFailedError(
                        f"(n={n},k={k}): certificate fails enumerative verification"
                    )
            spec = cert.spec
            greedy_value = None
            gamma = None
            proven = False
            if n <= max(enum_n_cap, exact_n_cap):
                graph = materialize(spec)
            if n <= enum_n_cap:
                greedy_value = greedy_dominate(graph).value
            if n <= exact_n_cap:
                report = branch_and_bound_gamma(graph, node_budget=node_budget)
                if report.proven_optimal:
                    gamma, proven = report.value, True
                    if gamma > cert.size:
                        raise CheckFailedError(
                            f"(n={n},k={k}): gamma {gamma} exceeds construction"
                        )
            rows.append(
                ExperimentRow(
                    n=n,
                    k=k,
                    gamma_exact=gamma,
                    proven=proven,
                    greedy_value=greedy_value,
                    construction_size=cert.size,
                    lower_bound=counting_lower_bound(spec),
                    conjecture_main_term=_main_term_or_none(n, k),
                )
            )
    return rows


def run_gk1_check(n_max: int, node_budget: int = DEFAULT_NODE_BUDGET) -> list[ExperimentRow]:
    """Prove gamma(G_{k,1}) = n - k + 1 for all 2 <= k < n <= n_max."""
    if n_max > 8:
        raise BudgetExceededError(f"gk1 check is limited to n_max <= 8, got {n_max}")
    if n_max < 3:
        raise InvalidParametersError(f"need n_max >= 3, got {n_max}")
    rows = []
    for n in range(3, n_max + 1):
        for k in range(2, n):
            spec = LevelGraphSpec(n, k, 1)
            graph = materialize(spec)
            report = branch_and_bound_gamma(graph, node_budget=node_budget)
            expected = n - k + 1
            if not report.proven_optimal or report.value != expected:
                raise CheckFailedError(
                    f"(n={n},k={k},l=1): got {report.value} "
                    f"(proven={report.proven_optimal}), expected {expected}"
                )
            rows.append(
                ExperimentRow(
                    n=n,
                    k=k,
                    gamma_exact=report.value,
                    proven=True,
                    greedy_value=greedy_dominate(graph).value,
                    construction_size=None,
                    lower_bound=counting_lower_bound(spec),
                    conjecture_main_term=None,
                )
            )
    return rows


def run_conjecture_table(
    n_range: Iterable[int],
    k_range: Iterable[int],
    node_budget: int = CONJECTURE_NODE_BUDGET,
) -> list[ExperimentRow]:
    """Solver bounds next to the conjectured main term; report-only."""
    ks = sorted(set(k_range))
    ns = sorted(set(n_range))
    if not ns or not ks:
        raise InvalidParametersError("conjecture table needs a non-empty n range and k range")
    if any(k < 3 for k in ks):
        raise InvalidParametersError("conjecture table requires k >= 3")
    if ks[0] >= ns[-1]:
        raise InvalidParametersError(
            f"conjecture table has no row: no k in {ks[0]}..{ks[-1]} is below "
            f"an n in {ns[0]}..{ns[-1]}"
        )
    rows = []
    for n in ns:
        for k in ks:
            if k >= n:
                continue
            graph = materialize(LevelGraphSpec(n, k, 2))
            greedy = greedy_dominate(graph)
            report = branch_and_bound_gamma(graph, node_budget=node_budget)
            size = None
            if k > ceil(n / 2):
                size = theorem1_construct(n, k).size
            rows.append(
                ExperimentRow(
                    n=n,
                    k=k,
                    gamma_exact=report.value if report.proven_optimal else None,
                    proven=report.proven_optimal,
                    greedy_value=greedy.value,
                    construction_size=size,
                    lower_bound=report.lower_bound,
                    conjecture_main_term=conjecture_main_term(n, k),
                )
            )
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

"""Dominating sets of the bipartite graph on two levels of the n-cube."""

from .constructions import (
    DominationCertificate,
    Provenance,
    VerificationResult,
    certificate_from_json,
    certificate_to_json,
    theorem1_construct,
    theorem2_construct,
    verify_certificate,
)
from .errors import (
    CheckFailedError,
    InvalidParametersError,
    TooLargeError,
)
from .levelgraph import LevelGraphSpec, graph_stats, materialize
from .subsets import (
    elements,
    enumerate_k_subsets,
    mask_of,
    spanning_pairs,
)

__version__ = "0.1.0"

# The solver is imported on first use of one of its names (PEP 562), so
# the commands that do not solve never load it.
_SOLVER_NAMES = frozenset({
    "Method",
    "SolveReport",
    "branch_and_bound_gamma",
    "counting_lower_bound",
    "greedy_dominate",
    "pair_graph_lower_bound",
})


def __getattr__(name: str):
    if name in _SOLVER_NAMES:
        from . import solver

        return getattr(solver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

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
    verify_structural,
)
from .errors import (
    CheckFailedError,
    InvalidParametersError,
    TooLargeError,
)
from .levelgraph import LevelGraphSpec, graph_stats, materialize
from .solver import (
    Method,
    SolveReport,
    branch_and_bound_gamma,
    counting_lower_bound,
    greedy_dominate,
)
from .subsets import (
    elements,
    enumerate_k_subsets,
    mask_of,
    spanning_pairs,
)

__version__ = "0.1.0"

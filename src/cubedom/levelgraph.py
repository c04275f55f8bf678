"""The bipartite graph on two levels of the n-cube.

Vertices are the k-subsets (upper level) and l-subsets (lower level) of
[n]; an upper and a lower vertex are adjacent iff the lower set is
contained in the upper set.  ``materialize`` builds the graph in its one
form, the closed-neighbourhood bitsets every solver reads, guarded by a
vertex cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import CheckFailedError, InvalidParametersError, TooLargeError
from .subsets import MAX_GROUND_SET, enumerate_k_subsets

MATERIALIZE_CAP = 50_000


@dataclass(frozen=True)
class LevelGraphSpec:
    """Parameters (n, k, l) of the graph; requires integers n > k > l >= 1."""

    n: int
    k: int
    l: int

    def __post_init__(self) -> None:
        for name in ("n", "k", "l"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidParametersError(f"{name} must be an integer, got {value!r}")
        if self.n > MAX_GROUND_SET:
            raise InvalidParametersError(f"n={self.n} exceeds {MAX_GROUND_SET}")
        if not self.n > self.k > self.l >= 1:
            raise InvalidParametersError(
                f"need n > k > l >= 1, got n={self.n}, k={self.k}, l={self.l}"
            )


def graph_stats(spec: LevelGraphSpec) -> dict:
    """Vertex/edge counts and the two degrees, by double counting."""
    n, k, l = spec.n, spec.k, spec.l
    stats = {
        "vertex_count": comb(n, k) + comb(n, l),
        "edge_count": comb(n, k) * comb(k, l),
        "upper_degree": comb(k, l),
        "lower_degree": comb(n - l, k - l),
    }
    if comb(n, k) * comb(k, l) != comb(n, l) * comb(n - l, k - l):
        raise CheckFailedError(f"edge double count disagrees for {spec}")
    return stats


@dataclass(frozen=True)
class MaterializedGraph:
    """Closed-neighbourhood bitsets; vertex i is upper rank i for
    i < upper_count, otherwise lower rank i - upper_count.  Ranks are colex.

    ``masks[i]`` is the subset mask of vertex i, and bit j of ``closed[i]``
    is set iff j == i or vertex j is adjacent to vertex i.
    """

    spec: LevelGraphSpec
    upper_count: int
    masks: tuple[int, ...]
    closed: tuple[int, ...]

    @property
    def vertex_count(self) -> int:
        return len(self.masks)


def materialize(spec: LevelGraphSpec) -> MaterializedGraph:
    """Build closed-neighbourhood bitsets, refusing graphs above the vertex cap.

    Edges come from mask arithmetic: the lower neighbours of an upper mask
    are the sums of its l-combinations of single-bit masks, each looked up
    in a mask-to-index table built once.
    """
    n, k, l = spec.n, spec.k, spec.l
    nu = comb(n, k)
    total = nu + comb(n, l)
    if total > MATERIALIZE_CAP:
        raise TooLargeError(f"{total} vertices exceed the cap of {MATERIALIZE_CAP}")
    masks = (*enumerate_k_subsets(n, k), *enumerate_k_subsets(n, l))
    lower_index = {masks[i]: i for i in range(nu, total)}
    closed = [1 << i for i in range(total)]
    for iu, umask in enumerate(masks[:nu]):
        ubit = 1 << iu
        down = ubit
        for c in combinations([1 << i for i in range(n) if umask >> i & 1], l):
            il = lower_index[sum(c)]
            down |= 1 << il
            closed[il] |= ubit
        closed[iu] = down
    return MaterializedGraph(spec=spec, upper_count=nu, masks=masks, closed=tuple(closed))

"""Bit-indexed subsets of the ground set [n] = {1, ..., n}.

A subset is one machine word: bit i-1 of ``mask`` is set iff element i is
in the subset.  The ground set is capped at 64 elements so containment
tests are single AND operations.  k-subsets are enumerated in
colexicographic order, which coincides with ascending numeric mask order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InvalidParametersError

MAX_GROUND_SET = 64
_UINT64_MAX = 2**64 - 1


@dataclass(frozen=True)
class Subset:
    """An immutable subset of [n], stored as a bitmask."""

    mask: int
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_GROUND_SET:
            raise InvalidParametersError(
                f"ground set size must be in 1..{MAX_GROUND_SET}, got {self.n}"
            )
        if self.mask < 0 or self.mask >> self.n:
            raise InvalidParametersError(
                f"mask {self.mask:#x} has bits outside [{self.n}]"
            )

    @classmethod
    def from_elements(cls, elements: Iterable[int], n: int) -> "Subset":
        mask = 0
        for e in elements:
            if not 1 <= e <= n:
                raise InvalidParametersError(f"element {e} outside [{n}]")
            mask |= 1 << (e - 1)
        return cls(mask, n)

    def elements(self) -> tuple[int, ...]:
        """Sorted 1-based elements; the canonical interchange form."""
        return tuple(i + 1 for i in range(self.n) if self.mask >> i & 1)

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.elements()) + "}"


def binomial(n: int, k: int) -> int:
    """Exact C(n, k); 0 when k > n.  Capped at 64-bit unsigned range."""
    if n < 0 or k < 0 or n > MAX_GROUND_SET:
        raise InvalidParametersError(f"binomial out of range: C({n},{k})")
    if k > n:
        return 0
    value = math.comb(n, k)
    if value > _UINT64_MAX:
        raise OverflowError(f"C({n},{k}) exceeds 64-bit range")
    return value


def enumerate_k_subsets(n: int, k: int) -> Iterator[Subset]:
    """All k-subsets of [n] in colexicographic (ascending mask) order."""
    if not 1 <= n <= MAX_GROUND_SET or not 0 <= k <= n:
        raise InvalidParametersError(f"bad level parameters n={n}, k={k}")
    if k == 0:
        yield Subset(0, n)
        return
    v = (1 << k) - 1
    limit = 1 << n
    while v < limit:
        yield Subset(v, n)
        # Gosper's hack: next mask with the same popcount.
        t = v | (v - 1)
        v = (t + 1) | (((((t + 1) & -(t + 1)) // (v & -v)) >> 1) - 1)


def spanning_pairs(n: int) -> tuple[Subset, ...]:
    """ceil(n/2) pairs covering [n]: {1,2},{3,4},...; odd n closes with {n-1,n}."""
    if n < 2:
        raise InvalidParametersError(f"need n >= 2 for a spanning pair family, got {n}")
    if n % 2 == 0:
        pairs = [Subset.from_elements((i, i + 1), n) for i in range(1, n, 2)]
    else:
        pairs = [Subset.from_elements((i, i + 1), n) for i in range(1, n - 1, 2)]
        pairs.append(Subset.from_elements((n - 1, n), n))
    return tuple(pairs)

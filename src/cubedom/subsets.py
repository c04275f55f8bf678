"""Bit-indexed subsets of the ground set [n] = {1, ..., n}.

A subset is one machine word, a plain int mask: bit i-1 is set iff element
i is in the subset.  The ground set is capped at 64 elements so containment
tests are single AND operations.  k-subsets are enumerated in
colexicographic order, which coincides with ascending numeric mask order.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from .errors import InvalidParametersError

MAX_GROUND_SET = 64


def elements(mask: int) -> tuple[int, ...]:
    """Sorted 1-based elements of a mask; the canonical interchange form."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


# _BIT[e]: the mask of element e of [MAX_GROUND_SET].
_BIT = (0, *(1 << i for i in range(MAX_GROUND_SET)))


def mask_of(elements: Iterable[int], n: int) -> int:
    """The mask of a collection of distinct integer elements of [n].

    The elements' bits are summed in one pass; a collection the sum cannot
    take, or whose sum carries (a repeated element), is read again element
    by element, which names its first bad element.
    """
    elements = tuple(elements)
    top = n if n < MAX_GROUND_SET else MAX_GROUND_SET
    mask = 0
    for e in elements:
        if type(e) is not int or not 0 < e <= top:
            break
        mask += _BIT[e]
    else:
        if mask.bit_count() == len(elements):
            return mask
    mask = 0
    for e in elements:
        if isinstance(e, bool) or not isinstance(e, int):
            raise InvalidParametersError(f"element {e!r} is not an integer")
        if not 1 <= e <= n:
            raise InvalidParametersError(f"element {e} outside [{n}]")
        bit = 1 << (e - 1)
        if mask & bit:
            raise InvalidParametersError(f"repeated element {e}")
        mask |= bit
    return mask


def enumerate_k_subsets(n: int, k: int) -> Iterator[int]:
    """Masks of all k-subsets of [n] in colexicographic (ascending) order.

    The loop runs in C: the (n-k)-combinations of the bits taken in
    descending order have descending sums, so their complements, the
    k-subsets, come out ascending.  Bad parameters raise at call time.
    """
    if not 1 <= n <= MAX_GROUND_SET or not 0 <= k <= n:
        raise InvalidParametersError(f"bad level parameters n={n}, k={k}")
    full = (1 << n) - 1
    bits = [1 << i for i in reversed(range(n))]
    return map(full.__xor__, map(sum, combinations(bits, n - k)))


def spanning_pairs(n: int) -> tuple[int, ...]:
    """ceil(n/2) pair masks covering [n]: {1,2},{3,4},...; odd n closes with {n-1,n}."""
    if n < 2:
        raise InvalidParametersError(f"need n >= 2 for a spanning pair family, got {n}")
    pairs = [0b11 << i for i in range(0, n - 1, 2)]
    if n % 2:
        pairs.append(0b11 << (n - 2))
    return tuple(pairs)

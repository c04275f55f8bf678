"""Explicit dominating-set constructions and verifiers for G_{k,2}.

Two families are built: for k > ceil(n/2), six k-sets (covering every
pair) plus a spanning family of ceil(n/2) pairs (covering every k-set),
of total size at most ceil(n/2) + 6; and for k = n-1 the fixed
three-vertex family {[n-1], [n]\\{1}, {1,n}}.

A certificate holds its family as two sets of masks, the upper members
(k-sets) and the lower members (l-sets); since k > l, a mask's size names
its level.

Two checks give the same result.  The vertex scan walks every vertex of
the graph.  The structural check handles any l = 2 family D = A ∪ H,
where A is the set of k-set members and H the set of pair members, read
as a graph on [n].  D dominates G_{k,2} if and only if

  (i) every pair not in H lies inside some member of A, and
  (ii) every k-set that is independent in H is in A.

Condition (i) is a scan over the pairs; condition (ii) is a search for a
k-clique in the complement of H, bounded by a clique partition of H
(Carraghan & Pardalos 1990; Östergård 2002), which stops at the root for
the theorem-1 family, and by the mask of the pair (i) found uncovered,
if any.  A branch with exactly as many free elements as it still needs
has one completion and is settled in one pass over them, so the
theorem-2 family takes three search nodes and its check is linear in n.
The structural check scales to any n within the 64-element cap; past
VERIFY_CAP search nodes it raises TooLargeError, as the scan does past
VERIFY_CAP vertex checks.  ``verify_certificate`` picks by the
certificate's l: the structural check for l = 2, the scan otherwise.
Both report the same witness on failure: the undominated vertex of least
mask, that is the colex-least one, over both levels, reported as its
mask.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from math import ceil, comb
from typing import Optional

from .errors import InvalidParametersError, TooLargeError
from .levelgraph import LevelGraphSpec
from .subsets import elements, enumerate_k_subsets, mask_of, spanning_pairs

VERIFY_CAP = 5_000_000


class Provenance(enum.Enum):
    THEOREM1 = "theorem1"
    THEOREM2 = "theorem2"
    GREEDY = "greedy"
    EXACT = "exact"
    EXTERNAL = "external"


@dataclass(frozen=True)
class DominationCertificate:
    """A family claimed to dominate the graph: its k-set and l-set masks.

    Checked for shape only; the theorems' size bounds are sweep checks."""

    spec: LevelGraphSpec
    uppers: frozenset[int]
    lowers: frozenset[int]
    provenance: Provenance

    def __post_init__(self) -> None:
        n = self.spec.n
        for level, masks, want in (
            ("upper", self.uppers, self.spec.k),
            ("lower", self.lowers, self.spec.l),
        ):
            for m in masks:
                if m < 0 or m >> n:
                    raise InvalidParametersError(
                        f"{level} vertex mask {m:#x} has bits outside [{n}]"
                    )
                if m.bit_count() != want:
                    shown = "{" + ",".join(map(str, elements(m))) + "}"
                    raise InvalidParametersError(
                        f"{level} vertex {shown} has cardinality "
                        f"{m.bit_count()}, expected {want}"
                    )

    @property
    def size(self) -> int:
        return len(self.uppers) + len(self.lowers)


@dataclass(frozen=True)
class VerificationResult:
    """The least undominated vertex mask, or None when the family dominates."""

    witness: Optional[int]

    @property
    def verified(self) -> bool:
        return self.witness is None


def _interval(lo: int, hi: int) -> int:
    """The mask of {lo, ..., hi}."""
    return ((1 << (hi - lo + 1)) - 1) << (lo - 1)


def _lowest(mask: int, count: int) -> int:
    """The mask of the ``count`` smallest elements of ``mask``."""
    out = 0
    for _ in range(count):
        low = mask & -mask
        out |= low
        mask ^= low
    return out


def _pad_to_k(mask: int, k: int, n: int) -> int:
    """Grow a set to k elements with the smallest absent elements of [n]."""
    for i in range(n):
        if mask.bit_count() >= k:
            break
        mask |= 1 << i
    return mask


def theorem1_construct(n: int, k: int) -> DominationCertificate:
    """Dominating set of G_{k,2} of size at most ceil(n/2)+6, for k > ceil(n/2)."""
    if k <= ceil(n / 2) or k >= n:
        raise InvalidParametersError(
            f"construction needs ceil(n/2) < k < n, got n={n}, k={k}"
        )
    spec = LevelGraphSpec(n, k, 2)
    S = _interval(1, k)
    T = _interval(n - k + 1, n)
    if k % 2 == 0:
        half = k // 2
        S1 = _lowest(S, half)
        S2 = S & ~S1
        T1 = _lowest(T, half)
        T2 = T & ~T1
    else:
        # The pivot is n-k+1: 2k >= n+1, so S ∩ T = {n-k+1, ..., k} is nonempty.
        pivot_bit = 1 << (n - k)
        s_rest = S & ~pivot_bit
        S1 = _lowest(s_rest, (k - 1) // 2)
        S2 = s_rest & ~S1
        t_rest = T & ~pivot_bit
        T1 = pivot_bit | _lowest(t_rest, (k - 1) // 2)
        T2 = pivot_bit | (t_rest & ~T1)
    P1 = _pad_to_k(S1 | T1, k, n)
    P2 = _pad_to_k(S1 | T2, k, n)
    P3 = _pad_to_k(S2 | T1, k, n)
    P4 = _pad_to_k(S2 | T2, k, n)
    uppers = frozenset((S, T, P1, P2, P3, P4))
    lowers = frozenset(spanning_pairs(n))
    return DominationCertificate(spec, uppers, lowers, Provenance.THEOREM1)


def theorem2_construct(n: int) -> DominationCertificate:
    """The three-vertex dominating set of G_{n-1,2}."""
    if n < 4:
        raise InvalidParametersError(f"need n >= 4 for G_{{n-1,2}}, got n={n}")
    spec = LevelGraphSpec(n, n - 1, 2)
    uppers = frozenset({_interval(1, n - 1), _interval(2, n)})
    lowers = frozenset({mask_of((1, n), n)})
    return DominationCertificate(spec, uppers, lowers, Provenance.THEOREM2)


def _result(*bad: Optional[int]) -> VerificationResult:
    """The least of the levels' undominated masks; verified if there is none."""
    return VerificationResult(min((m for m in bad if m is not None), default=None))


def verify_certificate(cert: DominationCertificate) -> VerificationResult:
    """Check that every vertex is a member or has a member neighbor:
    structurally for l = 2, by the vertex scan otherwise."""
    if cert.spec.l == 2:
        return verify_structural(cert)
    return scan_certificate(cert)


def scan_certificate(cert: DominationCertificate) -> VerificationResult:
    """Walk every vertex, each level in colex order, to its first undominated one.

    The witness, when verification fails, is the colex-least (smallest mask)
    undominated vertex over both levels.
    """
    spec = cert.spec
    n, k, l = spec.n, spec.k, spec.l
    total = comb(n, k) + comb(n, l)
    if total > VERIFY_CAP:
        raise TooLargeError(f"{total} vertex checks exceed the cap of {VERIFY_CAP}")
    uppers, lowers = cert.uppers, cert.lowers

    # for-else instead of any(): no generator is built per vertex.
    bad_lower = None
    for v in enumerate_k_subsets(n, l):
        if v in lowers:
            continue
        for u in uppers:
            if v & u == v:
                break
        else:
            bad_lower = v
            break
    bad_upper = None
    for u in enumerate_k_subsets(n, k):
        if u in uppers:
            continue
        for b in lowers:
            if b & u == b:
                break
        else:
            bad_upper = u
            break
    return _result(bad_lower, bad_upper)


def verify_structural(cert: DominationCertificate) -> VerificationResult:
    """Check conditions (i) and (ii) of the module docstring for an l=2 family.

    Returns the same result as ``scan_certificate``, witness included,
    without walking the C(n, k) upper vertices, so it runs for any n <= 64.
    """
    spec = cert.spec
    n, k = spec.n, spec.k
    if spec.l != 2:
        raise InvalidParametersError(
            f"structural verification needs l = 2, got l = {spec.l}"
        )
    # H as a graph on [n]: bit b of nbr[a] is set iff {a+1, b+1} is a member.
    nbr = [0] * n
    for m in cert.lowers:
        low = m & -m
        high = m ^ low
        nbr[low.bit_length() - 1] |= high
        nbr[high.bit_length() - 1] |= low

    bad_lower = _uncovered_pair(n, cert.uppers, nbr)
    bad_upper = _least_independent_k_set(n, k, cert.uppers, nbr, bad_lower)
    return _result(bad_lower, bad_upper)


def _uncovered_pair(n: int, upper: frozenset[int], nbr: list[int]) -> Optional[int]:
    """Condition (i): the least pair mask neither in H nor inside a member of A."""
    joined = list(nbr)
    for u in upper:
        rest = u
        while rest:
            low = rest & -rest
            joined[low.bit_length() - 1] |= u
            rest ^= low
    for b in range(1, n):
        apart = ~joined[b] & ((1 << b) - 1)
        if apart:
            return (apart & -apart) | (1 << b)
    return None


def _least_independent_k_set(
    n: int, k: int, upper: frozenset[int], nbr: list[int], below: Optional[int] = None
) -> Optional[int]:
    """Condition (ii): the least k-set mask independent in H and not in A.

    With ``below`` given, a result at or above it may come back as None.

    Depth-first search deciding elements from the top bit down, excluding
    each before including it, so complete sets arrive in ascending mask
    order and the first one not in A is the least.  A branch whose free
    elements number exactly the ones it needs has one completion, its
    chosen elements plus all the free ones; it is settled in one pass over
    the free elements.  An independent set takes at most one element of
    each clique of H, so a branch is pruned when a greedy clique partition
    of its free elements has fewer classes than the elements it still
    needs; with no edge in H that bound is the count of free elements, so
    it is skipped.  Every free element lies below every chosen one, so a
    branch's least completion is its chosen elements plus the lowest free
    ones it needs, and a branch whose least completion reaches ``below`` is
    pruned too: the caller already holds a smaller witness.  More than
    VERIFY_CAP search nodes raise TooLargeError.
    """
    nodes, cap = 0, VERIFY_CAP
    edgeless = not any(nbr)

    def clique_classes(free: int) -> int:
        classes = 0
        while free:
            v = free.bit_length() - 1
            clique = 1 << v
            cand = free & nbr[v]
            while cand:
                v = cand.bit_length() - 1
                clique |= 1 << v
                cand &= nbr[v]
            free &= ~clique
            classes += 1
        return classes

    def search(chosen: int, free: int, need: int) -> Optional[int]:
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise TooLargeError(f"structural search nodes exceed the cap of {cap}")
        if need == 0:
            return None if chosen in upper else chosen
        count = free.bit_count()
        if count <= need:
            # No free element is adjacent to a chosen one, so the one
            # completion is independent iff its free elements are.  It
            # needs no test against ``below``: the caller keeps the least.
            only = chosen | free
            if count < need or only in upper:
                return None
            while free:
                low = free & -free
                if nbr[low.bit_length() - 1] & only:
                    return None
                free ^= low
            return only
        if not edgeless and clique_classes(free) < need:
            return None
        if below is not None and chosen | _lowest(free, need) >= below:
            return None
        v = free.bit_length() - 1
        rest = free & ~(1 << v)
        found = search(chosen, rest, need)
        if found is None:
            found = search(chosen | 1 << v, rest & ~nbr[v], need - 1)
        return found

    return search(0, (1 << n) - 1, k)


def certificate_to_json(cert: DominationCertificate) -> dict:
    return {
        "n": cert.spec.n,
        "k": cert.spec.k,
        "l": cert.spec.l,
        "provenance": cert.provenance.value,
        "members": [
            {"level": level, "elements": list(elements(m))}
            for level, masks in (("upper", cert.uppers), ("lower", cert.lowers))
            for m in sorted(masks)
        ],
    }


def _checked(what: str, value, kind: type):
    if not isinstance(value, kind):
        name = "array" if kind is list else "object"
        raise TypeError(f"{what} must be a JSON {name}, got {type(value).__name__}")
    return value


def certificate_from_json(data: dict) -> DominationCertificate:
    try:
        _checked("certificate", data, dict)
        spec = LevelGraphSpec(data["n"], data["k"], data["l"])
        provenance = Provenance(data["provenance"])
        listed: dict[str, list[int]] = {"upper": [], "lower": []}
        for m in _checked("members", data["members"], list):
            level = _checked("member", m, dict)["level"]
            # A membership test by ==, so an unhashable level is named too.
            if level not in ("upper", "lower"):
                raise ValueError(f"member level {level!r} is not 'upper' or 'lower'")
            listed[level].append(
                mask_of(_checked("member elements", m["elements"], list), spec.n)
            )
    except KeyError as exc:
        raise InvalidParametersError(f"malformed certificate: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidParametersError(f"malformed certificate: {exc}") from exc
    uppers, lowers = frozenset(listed["upper"]), frozenset(listed["lower"])
    if len(uppers) + len(lowers) != len(data["members"]):
        raise InvalidParametersError("malformed certificate: duplicate members")
    return DominationCertificate(spec, uppers, lowers, provenance)


def dump_certificate(cert: DominationCertificate) -> str:
    return json.dumps(certificate_to_json(cert), indent=2, sort_keys=False)


def load_certificate(text: str | bytes) -> DominationCertificate:
    """Parse a certificate; bytes are decoded as UTF-8, UTF-16 or UTF-32."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidParametersError(f"certificate is not JSON: {exc}") from exc
    return certificate_from_json(data)

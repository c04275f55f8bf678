"""Explicit dominating-set constructions and verifiers for G_{k,2}.

Two families are built: for k > ceil(n/2), six k-sets (covering every
pair) plus a spanning family of ceil(n/2) pairs (covering every k-set),
of total size at most ceil(n/2) + 6; and for k = n-1 the fixed
three-vertex family {[n-1], [n]\\{1}, {1,n}}.

Verification comes in two flavours: the enumerative verifier walks every
vertex of the graph, while the structural verifier checks the two cover
conditions directly in polynomial time and therefore scales to any n
within the 64-element cap.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from math import ceil
from typing import Optional

from .errors import InvalidParametersError, TooLargeError
from .levelgraph import Level, LevelGraphSpec, VertexRef, _check_vertex
from .subsets import PairFamily, Subset, binomial, enumerate_k_subsets, spanning_pairs

DEFAULT_VERIFY_CAP = 5_000_000


class Provenance(enum.Enum):
    THEOREM1 = "theorem1"
    THEOREM2 = "theorem2"
    GREEDY = "greedy"
    EXACT = "exact"
    EXTERNAL = "external"


@dataclass(frozen=True)
class DominationCertificate:
    """A family of vertices claimed to dominate the graph."""

    spec: LevelGraphSpec
    members: frozenset[VertexRef]
    provenance: Provenance
    claimed_size_bound: Optional[int] = None

    def __post_init__(self) -> None:
        for m in self.members:
            _check_vertex(self.spec, m)
        if self.provenance is Provenance.THEOREM1:
            bound = ceil(self.spec.n / 2) + 6
            if len(self.members) > bound:
                raise InvalidParametersError(
                    f"theorem-1 certificate has {len(self.members)} members, "
                    f"bound is {bound}"
                )
        if self.provenance is Provenance.THEOREM2 and len(self.members) != 3:
            raise InvalidParametersError("theorem-2 certificate must have 3 members")

    @property
    def size(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list[VertexRef]:
        return sorted(
            self.members, key=lambda v: (v.level is not Level.UPPER, v.mask)
        )


@dataclass(frozen=True)
class Theorem1Parts:
    """The named pieces of the pair-covering construction."""

    n: int
    k: int
    S: Subset
    T: Subset
    S1: Subset
    S2: Subset
    T1: Subset
    T2: Subset
    P1: Subset
    P2: Subset
    P3: Subset
    P4: Subset
    B: PairFamily
    l_pivot: Optional[int] = None

    def a_family(self) -> tuple[Subset, ...]:
        return (self.S, self.T, self.P1, self.P2, self.P3, self.P4)

    def validate(self) -> None:
        n, k = self.n, self.k
        full = (1 << n) - 1
        if self.S.cardinality != k or self.T.cardinality != k:
            raise InvalidParametersError("S and T must be k-sets")
        if self.S.mask | self.T.mask != full:
            raise InvalidParametersError("S ∪ T must be [n]")
        if k % 2 == 0:
            if self.l_pivot is not None:
                raise InvalidParametersError("even k admits no pivot element")
            half = k // 2
            if not (
                self.S1.cardinality == self.S2.cardinality == half
                and self.S1.mask | self.S2.mask == self.S.mask
                and self.T1.cardinality == self.T2.cardinality == half
                and self.T1.mask | self.T2.mask == self.T.mask
            ):
                raise InvalidParametersError("even-k halves do not cover S and T")
        else:
            if self.l_pivot is None:
                raise InvalidParametersError("odd k requires a pivot element")
            pivot_bit = 1 << (self.l_pivot - 1)
            if not pivot_bit & self.S.mask & self.T.mask:
                raise InvalidParametersError("pivot must lie in S ∩ T")
            if not (
                self.S1.cardinality == self.S2.cardinality == (k - 1) // 2
                and self.S1.mask | self.S2.mask == self.S.mask & ~pivot_bit
                and self.T1.cardinality == self.T2.cardinality == (k + 1) // 2
                and self.T1.mask | self.T2.mask == self.T.mask
                and self.T1.mask & self.T2.mask == pivot_bit
            ):
                raise InvalidParametersError("odd-k halves do not match the pivot split")
        for p in (self.P1, self.P2, self.P3, self.P4):
            if p.cardinality != k:
                raise InvalidParametersError("padded parts must be k-sets")


@dataclass(frozen=True)
class VerificationResult:
    verified: bool
    witness: Optional[VertexRef] = None


def _interval(lo: int, hi: int, n: int) -> Subset:
    return Subset.from_elements(range(lo, hi + 1), n)


def _lowest(mask: int, count: int, n: int) -> Subset:
    out = 0
    for i in range(n):
        if count == 0:
            break
        if mask >> i & 1:
            out |= 1 << i
            count -= 1
    return Subset(out, n)


def _pad_to_k(mask: int, k: int, n: int) -> Subset:
    """Grow a set to k elements with the smallest absent elements of [n]."""
    for i in range(n):
        if mask.bit_count() >= k:
            break
        mask |= 1 << i
    return Subset(mask, n)


def theorem1_construct(n: int, k: int) -> tuple[Theorem1Parts, DominationCertificate]:
    """Dominating set of G_{k,2} of size at most ceil(n/2)+6, for k > ceil(n/2)."""
    if k <= ceil(n / 2) or k >= n:
        raise InvalidParametersError(
            f"construction needs ceil(n/2) < k < n, got n={n}, k={k}"
        )
    spec = LevelGraphSpec(n, k, 2)
    S = _interval(1, k, n)
    T = _interval(n - k + 1, n, n)
    if k % 2 == 0:
        half = k // 2
        S1 = _lowest(S.mask, half, n)
        S2 = Subset(S.mask & ~S1.mask, n)
        T1 = _lowest(T.mask, half, n)
        T2 = Subset(T.mask & ~T1.mask, n)
        pivot = None
    else:
        # 2k >= n+1, so S ∩ T = {n-k+1, ..., k} is nonempty.
        pivot = n - k + 1
        pivot_bit = 1 << (pivot - 1)
        s_rest = S.mask & ~pivot_bit
        S1 = _lowest(s_rest, (k - 1) // 2, n)
        S2 = Subset(s_rest & ~S1.mask, n)
        t_rest = T.mask & ~pivot_bit
        T1 = Subset(pivot_bit | _lowest(t_rest, (k - 1) // 2, n).mask, n)
        T2 = Subset(pivot_bit | (t_rest & ~T1.mask), n)
    P1 = _pad_to_k(S1.mask | T1.mask, k, n)
    P2 = _pad_to_k(S1.mask | T2.mask, k, n)
    P3 = _pad_to_k(S2.mask | T1.mask, k, n)
    P4 = _pad_to_k(S2.mask | T2.mask, k, n)
    B = spanning_pairs(n)
    parts = Theorem1Parts(
        n=n, k=k, S=S, T=T, S1=S1, S2=S2, T1=T1, T2=T2,
        P1=P1, P2=P2, P3=P3, P4=P4, B=B, l_pivot=pivot,
    )
    members = {VertexRef(Level.UPPER, p) for p in parts.a_family()}
    members |= {VertexRef(Level.LOWER, p) for p in B}
    cert = DominationCertificate(
        spec=spec,
        members=frozenset(members),
        provenance=Provenance.THEOREM1,
        claimed_size_bound=ceil(n / 2) + 6,
    )
    return parts, cert


def theorem2_construct(n: int) -> DominationCertificate:
    """The three-vertex dominating set of G_{n-1,2}."""
    if n < 4:
        raise InvalidParametersError(f"need n >= 4 for G_{{n-1,2}}, got n={n}")
    spec = LevelGraphSpec(n, n - 1, 2)
    members = frozenset(
        {
            VertexRef(Level.UPPER, _interval(1, n - 1, n)),
            VertexRef(Level.UPPER, _interval(2, n, n)),
            VertexRef(Level.LOWER, Subset.from_elements((1, n), n)),
        }
    )
    return DominationCertificate(
        spec=spec, members=members, provenance=Provenance.THEOREM2,
        claimed_size_bound=3,
    )


def verify_certificate(
    cert: DominationCertificate, cap: int = DEFAULT_VERIFY_CAP
) -> VerificationResult:
    """Enumerative check that every vertex is a member or has a member neighbor.

    The witness, when verification fails, is the colex-least (smallest mask)
    undominated vertex over both levels.
    """
    spec = cert.spec
    n, k, l = spec.n, spec.k, spec.l
    total = binomial(n, k) + binomial(n, l)
    if total > cap:
        raise TooLargeError(f"{total} vertex checks exceed the cap of {cap}")
    upper_members = {m.mask for m in cert.members if m.level is Level.UPPER}
    lower_members = {m.mask for m in cert.members if m.level is Level.LOWER}

    bad_lower = None
    for v in enumerate_k_subsets(n, l):
        if v.mask in lower_members:
            continue
        if any(v.mask & u == v.mask for u in upper_members):
            continue
        bad_lower = VertexRef(Level.LOWER, v)
        break
    bad_upper = None
    for u in enumerate_k_subsets(n, k):
        if u.mask in upper_members:
            continue
        if any(b & u.mask == b for b in lower_members):
            continue
        bad_upper = VertexRef(Level.UPPER, u)
        break

    if bad_lower is None and bad_upper is None:
        return VerificationResult(True)
    if bad_lower is None:
        witness = bad_upper
    elif bad_upper is None:
        witness = bad_lower
    else:
        witness = bad_lower if bad_lower.mask < bad_upper.mask else bad_upper
    return VerificationResult(False, witness)


def verify_theorem1_structural(parts: Theorem1Parts, n: int, k: int) -> bool:
    """Polynomial-time check of the two cover conditions.

    (i) every pair of elements of [n] lies inside some member of the six-set
    family, so every lower vertex is dominated; (ii) the pair family spans
    [n] and has ceil(n/2) members while k > ceil(n/2), so by counting every
    k-set must fully contain one of the pairs.
    """
    if parts.n != n or parts.k != k:
        raise InvalidParametersError("parts do not match the requested (n, k)")
    parts.validate()
    a_masks = [p.mask for p in parts.a_family()]
    for a in range(n):
        for b in range(a + 1, n):
            pair = (1 << a) | (1 << b)
            if not any(pair & m == pair for m in a_masks):
                return False
    if len(parts.B) != ceil(n / 2) or not parts.B.spans():
        return False
    return k > ceil(n / 2)


def theorem2_lower_bound_witness(n: int, a: VertexRef, b: VertexRef) -> VertexRef:
    """A pair dominated by neither an (n-1)-set nor another pair.

    With a = [n] \\ {i}, any pair {i, x} is non-adjacent to a, and pairs are
    never adjacent to pairs; the smallest x with {i, x} != b works.
    """
    spec = LevelGraphSpec(n, n - 1, 2)
    if a.level is not Level.UPPER or b.level is not Level.LOWER:
        raise InvalidParametersError("expected an upper (n-1)-set and a lower pair")
    _check_vertex(spec, a)
    _check_vertex(spec, b)
    full = (1 << n) - 1
    missing = full & ~a.mask
    i = missing.bit_length()  # the single absent element, 1-based
    for x in range(1, n + 1):
        if x == i:
            continue
        candidate = Subset.from_elements((i, x), n)
        if candidate.mask != b.mask:
            return VertexRef(Level.LOWER, candidate)
    raise InvalidParametersError(f"no witness pair exists at n={n}")


def certificate_to_json(cert: DominationCertificate) -> dict:
    return {
        "n": cert.spec.n,
        "k": cert.spec.k,
        "l": cert.spec.l,
        "provenance": cert.provenance.value,
        "members": [
            {"level": m.level.value, "elements": list(m.set.elements())}
            for m in cert.sorted_members()
        ],
    }


def certificate_from_json(data: dict) -> DominationCertificate:
    try:
        spec = LevelGraphSpec(data["n"], data["k"], data["l"])
        provenance = Provenance(data["provenance"])
        listed = [
            VertexRef(Level(m["level"]), Subset.from_elements(m["elements"], spec.n))
            for m in data["members"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParametersError(f"malformed certificate: {exc}") from exc
    members = frozenset(listed)
    if len(members) != len(listed):
        raise InvalidParametersError("malformed certificate: duplicate members")
    bound = None
    if provenance is Provenance.THEOREM1:
        bound = ceil(spec.n / 2) + 6
    elif provenance is Provenance.THEOREM2:
        bound = 3
    return DominationCertificate(
        spec=spec, members=members, provenance=provenance, claimed_size_bound=bound
    )


def dump_certificate(cert: DominationCertificate) -> str:
    return json.dumps(certificate_to_json(cert), indent=2, sort_keys=False)


def load_certificate(text: str | bytes) -> DominationCertificate:
    """Parse a certificate; bytes are decoded as UTF-8, UTF-16 or UTF-32."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise InvalidParametersError(f"certificate is not JSON: {exc}") from exc
    return certificate_from_json(data)

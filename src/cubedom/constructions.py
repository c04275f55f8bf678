"""Explicit dominating-set constructions, and the verifier.

Three families are built: for G_{k,2} with k > ceil(n/2), six k-sets
(covering every pair) plus a spanning family of ceil(n/2) pairs (covering
every k-set), at most ceil(n/2) + 6 members; for G_{n-1,2}, the fixed
three-vertex family {[n-1], [n]\\{1}, {1,n}}; and for G_{k,1}, the
singletons of [n-k] plus the k-set [n] \\ [n-k].

A certificate holds its family as two sets of masks, the upper members
(k-sets) and the lower members (l-sets); since k > l, a mask's size names
its level.

One check serves every l.  Write the family as D = A ∪ H, with A its
k-sets and H its l-sets, let A' be the (n-k)-sets [n] \\ S for S in A, and
let Tr_s(F) be the s-sets that meet every member of F.  An l-set lies in
a k-set S iff it misses [n] \\ S, so an l-set outside H is undominated iff
it is in Tr_l(A'), and a k-set outside A is undominated iff its
complement is in Tr_{n-k}(H).  So D dominates G_{k,l} if and only if

  (a) Tr_{n-k}(H) ⊆ A', and
  (b) Tr_l(A') ⊆ H.

Each condition is one pruned search for a transversal (``_transversal``),
so no level is walked and the check runs at any n <= 64; past VERIFY_CAP
search nodes it raises TooLargeError.  On failure the witness is the
undominated vertex of least mask over both levels, the colex-least one.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from math import ceil
from typing import Optional

from .errors import InvalidParametersError, TooLargeError
from .levelgraph import LevelGraphSpec
from .subsets import elements, mask_of, spanning_pairs

VERIFY_CAP = 5_000_000


class Provenance(enum.Enum):
    THEOREM1 = "theorem1"
    THEOREM2 = "theorem2"
    GK1 = "gk1"
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


def gk1_construct(n: int, k: int) -> DominationCertificate:
    """The n-k+1 members dominating G_{k,1}: the singletons of [n-k] and
    the k-set [n] \\ [n-k]."""
    return DominationCertificate(LevelGraphSpec(n, k, 1), frozenset({_interval(n - k + 1, n)}),
                                 frozenset(1 << i for i in range(n - k)), Provenance.GK1)


def verify_certificate(cert: DominationCertificate) -> VerificationResult:
    """Check conditions (a) and (b) of the module docstring, for any l.

    One search finds the least l-set of Tr_l(A') outside H; the other the
    greatest T of Tr_{n-k}(H) outside A', whose complement is the least
    undominated k-set, and looks only below the l-set found.
    """
    n, k, l = cert.spec.n, cert.spec.k, cert.spec.l
    full = (1 << n) - 1
    complements = frozenset(full ^ u for u in cert.uppers)
    bad_lower = _transversal(n, l, complements, cert.lowers)
    top = _transversal(n, n - k, cert.lowers, complements, greatest=True,
                       bound=None if bad_lower is None else full ^ bad_lower)
    # The least of the levels' undominated masks; verified if there is none.
    bad = [m for m in (bad_lower, None if top is None else full ^ top) if m is not None]
    return VerificationResult(min(bad, default=None))


def _transversal(
    n: int, s: int, meet: frozenset[int], skip: frozenset[int],
    greatest: bool = False, bound: Optional[int] = None,
) -> Optional[int]:
    """The least s-subset mask of [n] that meets every member of ``meet``
    and is not in ``skip``, or with ``greatest`` the greatest; None if none.
    With ``bound`` given, a result that does not come before it in that
    order may come back as None.

    Depth-first search deciding elements from the top bit down, taking an
    element second for the least and first for the greatest, so complete
    sets arrive in order.  A node keeps the members its chosen elements do
    not meet.  It is pruned when more of them are pairwise disjoint on its
    free elements than it still needs; and, since a transversal takes all
    but one element of each clique of the pair members, when the classes
    of one greedy clique partition of [n] need more on its free elements.
    Leaving an element out takes the other element of each pair member at
    it.  A node needing one or two elements, or all its free ones, is
    settled in one pass.  More than VERIFY_CAP nodes raise TooLargeError.
    """
    nbr = [0] * n
    for m in meet:
        if m.bit_count() == 2:
            low = m & -m
            nbr[low.bit_length() - 1] |= m ^ low
            nbr[(m ^ low).bit_length() - 1] |= low
    cliques = None if any(nbr) else []  # made at the first node that needs it
    nodes, cap = 0, VERIFY_CAP

    def first(mask: int) -> int:
        return 1 << (mask.bit_length() - 1) if greatest else mask & -mask

    def pick(chosen: int, cand: int, unmet: list[int]) -> Optional[int]:
        """``chosen`` plus the first element of ``cand`` in every member of
        ``unmet`` that ``chosen`` misses, if one makes a set outside ``skip``."""
        for m in unmet:
            if not m & chosen:
                cand &= m
                if not cand:
                    return None
        while cand:
            x = first(cand)
            if chosen | x not in skip:
                return chosen | x
            cand ^= x
        return None

    def search(chosen: int, free: int, need: int, unmet: list[int]) -> Optional[int]:
        nonlocal nodes, cliques
        nodes += 1
        if nodes > cap:
            raise TooLargeError(f"structural search nodes exceed the cap of {cap}")
        if need <= 0:
            return chosen if need == 0 and not unmet and chosen not in skip else None
        count = free.bit_count()
        if count <= need:
            only = chosen | free
            good = count == need and only not in skip and all(m & free for m in unmet)
            return only if good else None
        if bound is not None:
            best, rest = chosen, free
            for _ in range(need):
                best |= first(rest)
                rest &= ~best
            if not (best > bound if greatest else best < bound):
                return None
        if need == 1:
            return pick(chosen, free, unmet)
        used = pieces = 0
        for m in unmet:
            m &= free
            if not m:
                return None
            if not m & used:
                used |= m
                pieces += 1
        if pieces > need:
            return None
        if need == 2:
            # The higher of the two is at least the least free element of
            # each member: below that, neither could meet it.
            highs = free & -max((m & free & -(m & free) for m in unmet), default=1)
            while highs:
                x = first(highs)
                highs ^= x
                found = pick(chosen | x, free & (x - 1), unmet)
                if found is not None:
                    return found
            return None
        if cliques is None:
            cliques = _clique_partition(nbr, (1 << n) - 1)
        if sum((q & free).bit_count() - 1 for q in cliques if q & free) > need:
            return None
        v = free.bit_length() - 1
        bit = 1 << v
        rest = free ^ bit
        for take in (greatest, not greatest):
            if take:
                # Taking v leaves the packed members unmet when none holds it.
                if pieces == need and not used & bit:
                    continue
                found = search(chosen | bit, rest, need - 1, [m for m in unmet if not m & bit])
            else:
                forced = nbr[v] & rest
                found = search(chosen | forced, rest ^ forced, need - forced.bit_count(),
                               [m for m in unmet if not m & forced] if forced else unmet)
            if found is not None:
                return found
        return None

    return search(0, (1 << n) - 1, s, sorted(meet))


def _clique_partition(nbr: list[int], free: int) -> list[int]:
    """The classes of two or more elements of a greedy clique partition of
    ``free`` in the graph ``nbr``, each grown from its highest element."""
    cliques = []
    while free:
        v = free.bit_length() - 1
        clique, cand = 1 << v, free & nbr[v]
        while cand:
            v = cand.bit_length() - 1
            clique |= 1 << v
            cand &= nbr[v]
        free &= ~clique
        if clique & (clique - 1):
            cliques.append(clique)
    return cliques


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

import hashlib
import itertools
import json
from dataclasses import fields, replace
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubedom.constructions

from cubedom.constructions import (
    DominationCertificate,
    Provenance,
    VerificationResult,
    certificate_from_json,
    certificate_to_json,
    dump_certificate,
    gk1_construct,
    load_certificate,
    theorem1_construct,
    theorem2_construct,
    verify_certificate,
)
from cubedom.errors import InvalidParametersError, TooLargeError
from cubedom.levelgraph import LevelGraphSpec
from cubedom.subsets import elements, mask_of, spanning_pairs

from oracles import scan_certificate


def oracle_undominated(n, k, l, members):
    """Independent domination check built on itertools and frozensets.

    members: iterable of (level_char, elements). Returns the undominated
    vertices as (level_char, frozenset) pairs.
    """
    uppers = {frozenset(e) for lv, e in members if lv == "u"}
    lowers = {frozenset(e) for lv, e in members if lv == "l"}
    bad = []
    for c in itertools.combinations(range(1, n + 1), l):
        v = frozenset(c)
        if v not in lowers and not any(v <= u for u in uppers):
            bad.append(("l", v))
    for c in itertools.combinations(range(1, n + 1), k):
        v = frozenset(c)
        if v not in uppers and not any(b <= v for b in lowers):
            bad.append(("u", v))
    return bad


def cert_as_tuples(cert):
    """Members as (level_char, elements), uppers then lowers, each by mask."""
    return [("u", elements(m)) for m in sorted(cert.uppers)] + [
        ("l", elements(m)) for m in sorted(cert.lowers)
    ]


def certificate(n, k, uppers=(), lowers=(), l=2):
    return DominationCertificate(
        spec=LevelGraphSpec(n, k, l),
        uppers=frozenset(mask_of(e, n) for e in uppers),
        lowers=frozenset(mask_of(e, n) for e in lowers),
        provenance=Provenance.EXTERNAL,
    )


def covered_triangles(t):
    """t disjoint triangles on [3t] as pair members, t odd, k = (3t - 3)/2,
    and ten k-sets: the union of two of five blocks of ceil(3t/5)
    consecutive elements, padded with the least elements outside it.

    A vertex cover takes two elements of each triangle, 2t > n - k, so no
    k-set is independent.  The k-sets cover every pair, so no lower
    witness bounds the search for an upper one."""
    n, k = 3 * t, (3 * t - 3) // 2
    pairs = [(3 * i + a, 3 * i + b) for i in range(t) for a, b in ((1, 2), (1, 3), (2, 3))]
    size = -(-n // 5)
    blocks = [set(range(size * i + 1, min(size * i + size, n) + 1)) for i in range(5)]
    uppers = []
    for b1, b2 in itertools.combinations(blocks, 2):
        union = b1 | b2
        uppers.append(union | set(sorted(set(range(1, n + 1)) - union)[: k - len(union)]))
    return certificate(n, k, uppers=uppers, lowers=pairs)


def five_cycles(m, covered=False):
    """m disjoint 5-cycles on [5m] as pair members, k = 2m + 1.

    No k-set is independent (alpha = 2m): a vertex cover takes three
    elements of each cycle, 3m > n - k.  But a 5-cycle needs three cliques
    to cover it, so the clique-partition bound cannot prune at the root and
    the search for the upper witness grows about 6-fold per cycle.  With no
    k-set member, the pair {1,3} is the lower witness, and its mask 5 is
    below every k-set mask, so that search stops at its root.  ``covered``
    adds one k-set per two of the five blocks of m consecutive elements,
    their union plus the least element outside it; these cover every pair,
    so condition (b) holds and the search runs in full."""
    n = 5 * m
    cycles = [[5 * i + j for j in range(1, 6)] for i in range(m)]
    pairs = [(c[j], c[(j + 1) % 5]) for c in cycles for j in range(5)]
    uppers = []
    if covered:
        blocks = [set(range(m * i + 1, m * i + m + 1)) for i in range(5)]
        for b1, b2 in itertools.combinations(blocks, 2):
            union = b1 | b2
            uppers.append(union | {min(set(range(1, n + 1)) - union)})
    return certificate(n, 2 * m + 1, uppers=uppers, lowers=pairs)


class TestTheorem1Construct:
    def test_worked_example_n6_k4(self):
        cert = theorem1_construct(6, 4)
        # S = P1 = P3 = {1,2,3,4} (P3 padded up from {3,4}), T = P4 = {3,4,5,6},
        # P2 = {1,2,5,6}; the six k-sets collapse to three members.
        assert cert_as_tuples(cert) == [
            ("u", (1, 2, 3, 4)),
            ("u", (1, 2, 5, 6)),
            ("u", (3, 4, 5, 6)),
            ("l", (1, 2)),
            ("l", (3, 4)),
            ("l", (5, 6)),
        ]
        assert cert.size == 6 <= ceil(6 / 2) + 6
        assert verify_certificate(cert).verified

    def test_odd_k_pivot(self):
        # The pivot n-k+1 = 2 is in T1 = {2,3,4} and T2 = {2,5,6}; with
        # S1 = {1,3} and S2 = {4,5}, P1 = P3 = S after padding, P2 = {1,2,3,5,6}
        # and P4 = {1,2,4,5,6} (padded from {2,4,5,6}).
        cert = theorem1_construct(6, 5)
        assert cert_as_tuples(cert) == [
            ("u", (1, 2, 3, 4, 5)),
            ("u", (1, 2, 3, 5, 6)),
            ("u", (1, 2, 4, 5, 6)),
            ("u", (2, 3, 4, 5, 6)),
            ("l", (1, 2)),
            ("l", (3, 4)),
            ("l", (5, 6)),
        ]
        assert verify_certificate(cert).verified

    def test_out_of_range(self):
        with pytest.raises(InvalidParametersError):
            theorem1_construct(6, 3)  # k must exceed ceil(n/2)
        with pytest.raises(InvalidParametersError):
            theorem1_construct(6, 6)

    @pytest.mark.parametrize("n", range(4, 10))
    def test_dominates_and_respects_bound(self, n):
        for k in range(ceil(n / 2) + 1, n):
            cert = theorem1_construct(n, k)
            assert cert.size <= ceil(n / 2) + 6
            assert verify_certificate(cert).verified
            assert not oracle_undominated(n, k, 2, cert_as_tuples(cert))

    @pytest.mark.parametrize("n", range(4, 61, 7))
    def test_parts_invariants_up_to_n60(self, n):
        """A holds S = [k] and T = {n-k+1..n} among at most six k-sets; H is
        the spanning pair family."""
        for k in range(ceil(n / 2) + 1, n):
            cert = theorem1_construct(n, k)
            a, h = cert.uppers, cert.lowers
            s, t = (1 << k) - 1, ((1 << k) - 1) << (n - k)
            assert {s, t} <= a and len(a) <= 6
            assert all(m.bit_count() == k for m in a)
            assert h == set(spanning_pairs(n))


class TestPinnedOutput:
    """sha256 of the certificate JSON, fixed so a rewrite of the constructions
    cannot silently change the files that ``cubedom construct`` writes."""

    @pytest.mark.parametrize("build, digest", [
        (lambda: theorem1_construct(20, 12),
         "d20dcf695c0cd6e8bf7f8d5e37e68b33375cda898a73137c2364bd4eb8b05995"),
        (lambda: theorem1_construct(21, 12),
         "bdf0e50e461da75a9711b48263c532e82283655a1abb3877adcf95652d278c9b"),
        (lambda: theorem1_construct(64, 33),
         "909a10b18b931b0aa5ec6d60f4ca62ccedd7a19928c0f487143d798f29b2fb88"),
        (lambda: theorem2_construct(9),
         "8484ab34316eeaa60d35a258cc874280e8de8628877f6b7363119923ff2a4d88"),
        (lambda: theorem2_construct(64),
         "2991f3ed480f305378fc8ea2b4c3ad92913f8f6ca37e0af22a3a2ab206862d68"),
    ], ids=["t1-20-12", "t1-21-12", "t1-64-33", "t2-9", "t2-64"])
    def test_certificate_json_digest(self, build, digest):
        text = dump_certificate(build())
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestTheorem2Construct:
    def test_n4(self):
        cert = theorem2_construct(4)
        assert cert_as_tuples(cert) == [
            ("u", (1, 2, 3)),
            ("u", (2, 3, 4)),
            ("l", (1, 4)),
        ]
        assert verify_certificate(cert).verified

    def test_n5(self):
        cert = theorem2_construct(5)
        assert cert_as_tuples(cert) == [
            ("u", (1, 2, 3, 4)),
            ("u", (2, 3, 4, 5)),
            ("l", (1, 5)),
        ]

    def test_small_n_rejected(self):
        with pytest.raises(InvalidParametersError):
            theorem2_construct(3)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_dominates_with_size_three(self, n):
        cert = theorem2_construct(n)
        assert cert.size == 3
        assert verify_certificate(cert).verified
        assert not oracle_undominated(n, n - 1, 2, cert_as_tuples(cert))


class TestGk1Construct:
    def test_n5_k3(self):
        cert = gk1_construct(5, 3)
        assert cert_as_tuples(cert) == [("u", (3, 4, 5)), ("l", (1,)), ("l", (2,))]
        assert cert.provenance is Provenance.GK1

    def test_rejects_what_is_not_a_spec(self):
        for n, k in ((4, 1), (4, 4), (65, 3)):
            with pytest.raises(InvalidParametersError):
                gk1_construct(n, k)

    def test_verifies_at_every_spec_to_64(self):
        # n - k + 1 members at every 2 <= k < n <= 64, and the structural
        # check accepts each.  Without its k-set or a singleton the family
        # no longer dominates, since n - k + 1 is gamma.
        for n in range(3, 65):
            for k in range(2, n):
                cert = gk1_construct(n, k)
                assert cert.size == n - k + 1
                assert verify_certificate(cert).verified, (n, k)
                for broken in (replace(cert, uppers=frozenset()),
                               replace(cert, lowers=cert.lowers - {1 << (n - k - 1)})):
                    assert not verify_certificate(broken).verified, (n, k)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_agrees_with_the_oracle(self, n):
        for k in range(2, n):
            assert not oracle_undominated(n, k, 1, cert_as_tuples(gk1_construct(n, k)))


@st.composite
def families(draw):
    """Any 1 <= l < k < n <= 8 and a random family on both levels."""
    n = draw(st.integers(min_value=3, max_value=8))
    l = draw(st.integers(min_value=1, max_value=n - 2))
    k = draw(st.integers(min_value=l + 1, max_value=n - 1))

    def level(size):
        sets = list(itertools.combinations(range(1, n + 1), size))
        picked = draw(st.lists(st.sampled_from(sets), max_size=len(sets), unique=True))
        return frozenset(mask_of(e, n) for e in picked)

    return DominationCertificate(LevelGraphSpec(n, k, l), level(k), level(l),
                                 Provenance.EXTERNAL)


class TestVerifyCertificate:
    @settings(max_examples=400, deadline=None)
    @given(families())
    def test_matches_naive_oracle(self, cert):
        spec = cert.spec
        bad = oracle_undominated(spec.n, spec.k, spec.l, cert_as_tuples(cert))
        least = min((mask_of(v, spec.n) for _, v in bad), default=None)
        assert scan_certificate(cert).witness == least
        assert verify_certificate(cert).witness == least

    def test_single_upper_witness(self):
        cert = certificate(4, 3, uppers=[(1, 2, 3)])
        result = verify_certificate(cert)
        assert not result.verified
        # The witness is the pair {1,4}: a mask of size l = 2 names the lower level.
        assert elements(result.witness) == (1, 4)
        # Cross-check: the oracle's least undominated vertex agrees.
        bad = oracle_undominated(4, 3, 2, [("u", (1, 2, 3))])
        level, least = min(bad, key=lambda b: sum(1 << (e - 1) for e in b[1]))
        assert (level, mask_of(least, 4)) == ("l", result.witness)

    # {1,2,5} has the right size for k = 3, and {1,5} for l = 2, but element
    # 5 is outside [4].
    @pytest.mark.parametrize("level,mask", [
        ("uppers", 0b10011), ("uppers", -0b111), ("lowers", 0b10001), ("lowers", -0b11),
    ], ids=["bit-above-n", "negative", "lower-bit-above-n", "lower-negative"])
    def test_member_with_bits_outside_ground_set_rejected(self, level, mask):
        members = {"uppers": frozenset(), "lowers": frozenset(), level: frozenset({mask})}
        with pytest.raises(InvalidParametersError, match="outside"):
            DominationCertificate(
                spec=LevelGraphSpec(4, 3, 2), **members, provenance=Provenance.EXTERNAL
            )

    @pytest.mark.parametrize("uppers,lowers", [
        ([(1, 2)], []), ([(1, 2, 3, 4)], []), ([], [(1, 2, 3)]),
    ], ids=["upper-too-small", "upper-too-big", "lower-too-big"])
    def test_member_of_the_wrong_size_rejected(self, uppers, lowers):
        with pytest.raises(InvalidParametersError, match="has cardinality"):
            certificate(4, 3, uppers, lowers)

    def test_empty_certificate_fails(self):
        spec = LevelGraphSpec(5, 3, 2)
        cert = DominationCertificate(
            spec=spec, uppers=frozenset(), lowers=frozenset(),
            provenance=Provenance.EXTERNAL,
        )
        assert not verify_certificate(cert).verified

    def test_theorem2_verifies(self):
        assert verify_certificate(theorem2_construct(6)).verified

    def test_result_stores_only_its_witness(self):
        # No stored flag can disagree with the witness: a result is
        # verified exactly when it has no undominated vertex.
        assert [f.name for f in fields(VerificationResult)] == ["witness"]
        assert VerificationResult(None).verified
        assert not VerificationResult(0).verified
        assert not VerificationResult(0b11).verified

    def test_cap(self):
        # C(30,16) + C(30,2) = 145,423,110 checks, over the 5,000,000 cap.
        cert = theorem1_construct(30, 16)
        with pytest.raises(TooLargeError, match="145423110 vertex checks exceed the cap"):
            scan_certificate(cert)

    def test_l2_takes_the_structural_check_past_the_scan_cap(self):
        # The package has no vertex scan, so its cap does not apply.
        assert not hasattr(cubedom.constructions, "scan_certificate")
        assert verify_certificate(theorem1_construct(30, 16)) == VerificationResult(None)
        assert verify_certificate(theorem1_construct(64, 33)) == VerificationResult(None)

    @pytest.mark.parametrize("l", [1, 3])
    def test_other_l_is_checked_structurally(self, l):
        # Every l takes the same check, so the scan's cap does not apply to
        # any: the empty family's least undominated vertex is [l] at any n.
        for n, k in ((7, 4), (64, 40)):
            cert = DominationCertificate(LevelGraphSpec(n, k, l), frozenset(), frozenset(),
                                         Provenance.EXTERNAL)
            assert verify_certificate(cert) == VerificationResult((1 << l) - 1)

    def test_l3_triples_past_the_scan_cap(self):
        # 22 triples at (64,44,3): 21 disjoint ones and {62,63,64}.  Alone
        # they leave the least triple outside them, {1,2,4}, undominated.
        # The ten 44-sets whose complements are 20 elements of the union of
        # two of five blocks of [64] dominate every triple: a triple misses
        # two blocks, so it misses one complement.  No 20-set meets all 21
        # disjoint triples, so no 44-set is undominated.
        triples = [tuple(range(3 * i + 1, 3 * i + 4)) for i in range(21)] + [(62, 63, 64)]
        bare = certificate(64, 44, lowers=triples, l=3)
        assert verify_certificate(bare) == VerificationResult(mask_of((1, 2, 4), 64))
        starts = (1, 14, 27, 40, 53, 65)
        blocks = [list(range(a, b)) for a, b in zip(starts, starts[1:])]
        uppers = [set(range(1, 65)) - set((b1 + b2)[:20])
                  for b1, b2 in itertools.combinations(blocks, 2)]
        covered = certificate(64, 44, uppers=uppers, lowers=triples, l=3)
        assert verify_certificate(covered) == VerificationResult(None)


@st.composite
def listed_families(draw):
    """Any 1 <= l < k <= n - 1 with n <= 8: up to 12 k-sets and up to
    C(n, 2) l-sets, each drawn element by element."""
    n = draw(st.integers(min_value=3, max_value=8))
    l = draw(st.integers(min_value=1, max_value=n - 2))
    k = draw(st.integers(min_value=l + 1, max_value=n - 1))
    ground = range(1, n + 1)
    uppers = draw(st.lists(st.sets(st.sampled_from(ground), min_size=k, max_size=k),
                           max_size=12, unique_by=frozenset))
    lowers = draw(st.lists(st.sets(st.sampled_from(ground), min_size=l, max_size=l),
                           max_size=n * (n - 1) // 2, unique_by=frozenset))
    return certificate(n, k, uppers, lowers, l)


@st.composite
def near_top_families(draw):
    """k in {n-2, n-1} at 5 <= n <= 14: each k-set a member with chance 1/4,
    1/2 or 3/4, and a few pairs.

    Here n - k is 1 or 2, so the search for the upper witness settles at
    its root in one pass: as complements of members of A, as sets that
    miss a pair of H, or as witnesses."""
    n = draw(st.integers(min_value=5, max_value=14))
    k = draw(st.sampled_from((n - 2, n - 1)))
    ground = range(1, n + 1)
    k_sets = list(itertools.combinations(ground, k))
    quarters = draw(st.integers(min_value=1, max_value=3))
    picked = draw(st.lists(st.integers(min_value=0, max_value=3),
                           min_size=len(k_sets), max_size=len(k_sets)))
    lowers = draw(st.lists(st.sets(st.sampled_from(ground), min_size=2, max_size=2),
                           max_size=n, unique_by=frozenset))
    return certificate(n, k, [e for e, p in zip(k_sets, picked) if p < quarters], lowers)


class TestStructuralVerifier:
    def test_accepts_construction(self):
        assert verify_certificate(theorem1_construct(6, 4)) == VerificationResult(None)

    def test_rejects_non_spanning_pair_family(self):
        # The theorem-1 k-sets at (6,4) with a pair family that misses element 6:
        # {1,3,5,6} is independent in H and not a member.
        cert = theorem1_construct(6, 4)
        uppers = [elements(m) for m in cert.uppers]
        broken = certificate(6, 4, uppers, [(1, 2), (3, 4), (4, 5)])
        result = verify_certificate(broken)
        assert not result.verified
        assert result == scan_certificate(broken)
        assert elements(result.witness) == (1, 3, 5, 6)

    def test_pair_members_must_be_pairs(self):
        with pytest.raises(InvalidParametersError):
            certificate(6, 4, uppers=[(1, 2, 3, 4)], lowers=[(1,)])

    @pytest.mark.parametrize("n", range(4, 10))
    def test_agrees_with_enumerative_verifier(self, n):
        for k in range(ceil(n / 2) + 1, n):
            cert = theorem1_construct(n, k)
            assert verify_certificate(cert) == scan_certificate(cert)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_agrees_on_theorem_certificates_up_to_n12(self, n):
        certs = [theorem2_construct(n)]
        certs += [theorem1_construct(n, k) for k in range(ceil(n / 2) + 1, n)]
        for cert in certs:
            assert verify_certificate(cert) == scan_certificate(cert)

    @settings(max_examples=300, deadline=None)
    @given(listed_families())
    def test_agrees_on_random_families(self, cert):
        # The scan is the reference, witness included.
        assert verify_certificate(cert) == scan_certificate(cert)

    @settings(max_examples=300, deadline=None)
    @given(near_top_families())
    def test_agrees_near_the_top_level(self, cert):
        assert verify_certificate(cert) == scan_certificate(cert)

    @pytest.mark.parametrize("n", range(4, 65))
    def test_theorem2_agrees_with_the_scan(self, n):
        # The family and each of its three single-member removals, every one
        # of which fails; the scan walks C(n, n-1) + C(n, 2) <= 2,080 vertices.
        # Without {2, ..., n}, the pair {2, n} is uncovered and the search
        # for the upper witness finds none below that pair's mask.
        cert = theorem2_construct(n)
        removed = [replace(cert, uppers=cert.uppers - {m}) for m in cert.uppers]
        removed += [replace(cert, lowers=cert.lowers - {m}) for m in cert.lowers]
        assert len(removed) == 3
        assert verify_certificate(cert) == scan_certificate(cert) == VerificationResult(None)
        for broken in removed:
            result = verify_certificate(broken)
            assert not result.verified
            assert result == scan_certificate(broken)

    def test_theorem2_settles_in_one_node_per_search(self, monkeypatch):
        # The k-set search of the former l = 2 check took three nodes: its
        # root and two settled branches.  Now each search settles at its
        # root, at any n.  The lower one needs two elements, so it walks the
        # pairs that meet both {1} and {n}, only {1,n}, a member of H; the
        # upper one needs one, and {1} and {n}, which meet {1,n}, are in A'.
        for n in (8, 64):
            monkeypatch.setattr(cubedom.constructions, "VERIFY_CAP", 1)
            assert verify_certificate(theorem2_construct(n)) == VerificationResult(None)
            monkeypatch.setattr(cubedom.constructions, "VERIFY_CAP", 0)
            with pytest.raises(TooLargeError):
                verify_certificate(theorem2_construct(n))

    @pytest.mark.parametrize("n", [20, 33, 40, 55, 63])
    def test_scales_past_enumeration(self, n):
        k = ceil(n / 2) + 1
        assert verify_certificate(theorem1_construct(n, k)).verified

    @pytest.mark.parametrize("n", range(4, 65))
    def test_every_theorem1_certificate_verifies(self, n):
        for k in range(ceil(n / 2) + 1, n):
            assert verify_certificate(theorem1_construct(n, k)).verified

    def test_disjoint_triangles_settle_at_the_root(self):
        # 21 disjoint triangles on [63] and no k-sets: alpha(H) = 21 < 30, which
        # the clique-partition bound sees at once.  The least uncovered pair is
        # {1,4}.  A matching bound would search for minutes here.
        triangles = [(3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(21)]
        pairs = [p for t in triangles for p in itertools.combinations(t, 2)]
        result = verify_certificate(certificate(63, 30, lowers=pairs))
        assert not result.verified
        assert result.witness == mask_of((1, 4), 63)

    @pytest.mark.parametrize("t", [11, 21])
    def test_covered_triangles_settle_at_the_root(self, monkeypatch, t):
        # Each search takes one node at any number of triangles: the lower
        # one walks the pairs at its root and finds every one covered, and
        # the upper one is pruned at its root by the clique partition, which
        # needs 2t elements of n - k.  The former check also took 1 node.
        monkeypatch.setattr(cubedom.constructions, "VERIFY_CAP", 1)
        assert verify_certificate(covered_triangles(t)) == VerificationResult(None)

    def test_search_past_the_cap_raises(self, monkeypatch):
        # 17,570 nodes in the search for the upper witness (32,971 in the
        # former k-set search): every pair is covered, so no lower witness
        # bounds the search.
        monkeypatch.setattr(cubedom.constructions, "VERIFY_CAP", 1000)
        with pytest.raises(TooLargeError, match="structural search nodes exceed the cap of 1000"):
            verify_certificate(five_cycles(6, covered=True))

    def test_five_cycles_within_the_cap(self):
        assert verify_certificate(five_cycles(6, covered=True)) == VerificationResult(None)
        # The witness is the uncovered pair {1,3}.
        assert verify_certificate(five_cycles(6)) == VerificationResult(mask_of((1, 3), 30))

    def test_pair_witness_bounds_the_k_set_search(self, monkeypatch):
        # Nine cycles (n = 45, k = 19) ran into the 5,000,000-node cap
        # before the search was bounded by the pair witness; now the search
        # for the upper witness stops at its root, one node.
        monkeypatch.setattr(cubedom.constructions, "VERIFY_CAP", 1)
        assert verify_certificate(five_cycles(9)) == VerificationResult(mask_of((1, 3), 45))


class TestSerialization:
    def test_round_trip(self):
        for cert in [theorem2_construct(7), theorem1_construct(8, 6), gk1_construct(9, 4)]:
            data = certificate_to_json(cert)
            again = certificate_from_json(data)
            assert again == cert
            assert load_certificate(dump_certificate(cert)) == cert

    def test_schema_fields(self):
        data = certificate_to_json(theorem2_construct(4))
        assert data["n"] == 4 and data["k"] == 3 and data["l"] == 2
        assert data["provenance"] == "theorem2"
        assert {"level": "lower", "elements": [1, 4]} in data["members"]

    def test_malformed_rejected(self):
        with pytest.raises(InvalidParametersError):
            certificate_from_json({"n": 4, "k": 3})
        with pytest.raises(InvalidParametersError):
            load_certificate(json.dumps({
                "n": 4, "k": 3, "l": 2, "provenance": "theorem2",
                "members": [{"level": "upper", "elements": [1, 2]}],
            }))

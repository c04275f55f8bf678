"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines on the terminal.
"""

import itertools
from math import ceil

import pytest

from cubedom.constructions import (
    theorem1_construct,
    theorem2_construct,
    verify_certificate,
)
from cubedom.experiments import (
    rows_to_csv,
    run_conjecture_table,
    run_gk1_check,
    run_theorem1_sweep,
    run_theorem2_sweep,
)
from cubedom.levelgraph import LevelGraphSpec, materialize
from cubedom.solver import counting_lower_bound, greedy_dominate

from oracles import brute_force_gamma, scan_certificate, seeded_search

# Instances proven exactly while running criteria 1-5, consumed by the
# sandwich check of criterion 6.
_solved: dict[tuple[int, int, int], int] = {}


def _report(number: int, label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_theorem2_exactness():
    ok = True
    for n in range(4, 10):
        spec = LevelGraphSpec(n, n - 1, 2)
        report = seeded_search(materialize(spec))
        cert = theorem2_construct(n)
        if not (report.proven_optimal and report.value == 3):
            ok = False
        if not (cert.size == 3 and verify_certificate(cert).verified):
            ok = False
        _solved[(n, n - 1, 2)] = report.value
    _report(1, "gamma(G_{n-1,2}) = 3 proven and constructed for n in 4..9", ok)


def test_criterion_2_theorem2_lower_bound():
    ok = True
    for n in range(4, 7):
        spec = LevelGraphSpec(n, n - 1, 2)
        g = materialize(spec)
        masks = g.closed
        full = (1 << g.vertex_count) - 1
        # No 2-vertex set dominates: exhaustive over all pairs.
        for i, j in itertools.combinations(range(g.vertex_count), 2):
            if masks[i] | masks[j] == full:
                ok = False
    _report(2, "no 2-vertex dominating set exists, n in 4..6", ok)


def test_criterion_3_theorem1_bound():
    ok = True
    for n in range(4, 10):
        for k in range(ceil(n / 2) + 1, n):
            cert = theorem1_construct(n, k)
            if cert.size > ceil(n / 2) + 6 or not scan_certificate(cert).verified:
                ok = False
    for n in range(10, 41):
        for k in range(ceil(n / 2) + 1, n):
            if not verify_certificate(theorem1_construct(n, k)).verified:
                ok = False
    _report(3, "construction size <= ceil(n/2)+6, enumerative n<=9, structural n<=40", ok)


def test_criterion_4_gk1_formula():
    rows = run_gk1_check(8)
    ok = all(r.proven and r.gamma_exact == r.n - r.k + 1 for r in rows)
    for r in rows:
        _solved[(r.n, r.k, 1)] = r.gamma_exact
    _report(4, "gamma(G_{k,1}) = n-k+1 proven for all 2 <= k < n <= 8", ok)


def test_criterion_5_oracle_equivalence():
    ok = True
    for n in range(3, 7):
        for k in range(2, n):
            for l in range(1, k):
                spec = LevelGraphSpec(n, k, l)
                bf = brute_force_gamma(materialize(spec))
                bb = seeded_search(materialize(spec))
                if not (bb.proven_optimal and bf.size == bb.value):
                    ok = False
                _solved[(n, k, l)] = bf.size
    _report(5, "brute force and branch-and-bound agree on all specs with n <= 6", ok)


def test_criterion_6_sandwich():
    ok = True
    for (n, k, l), exact in sorted(_solved.items()):
        spec = LevelGraphSpec(n, k, l)
        lb = counting_lower_bound(spec)
        greedy = greedy_dominate(materialize(spec)).value
        if not lb <= exact <= greedy:
            ok = False
        size = None
        if l == 2 and k == n - 1 and n >= 4:
            size = theorem2_construct(n).size
        elif l == 2 and k > ceil(n / 2):
            size = theorem1_construct(n, k).size
        if size is not None and not (exact <= size and greedy <= size):
            ok = False
    assert _solved, "criteria 1-5 must run first to populate the instance pool"
    _report(6, "counting bound <= exact <= greedy <= construction size throughout", ok)


def test_criterion_7_conjecture_table():
    rows = run_conjecture_table(4, 8, 3, 3)
    terms = [r.conjecture_main_term for r in rows]
    ok = terms == [6.0, 9.375, 13.5, 18.375, 24.0]
    for r in rows:
        if not r.lower_bound <= r.greedy_value:
            ok = False
        if r.gamma_exact is not None and not (
            r.lower_bound <= r.gamma_exact <= r.greedy_value
        ):
            ok = False
    _report(7, "main-term table for k=3, n=4..8 with sandwich-consistent bounds", ok)


def test_criterion_8_determinism(tmp_path):
    pairs = []
    for tag, make in [
        ("theorem2", lambda: rows_to_csv(run_theorem2_sweep(4, 9))),
        ("theorem1", lambda: rows_to_csv(run_theorem1_sweep(4, 9))),
        ("conjecture", lambda: rows_to_csv(run_conjecture_table(4, 8, 3, 3))),
    ]:
        first = tmp_path / f"{tag}_1.csv"
        second = tmp_path / f"{tag}_2.csv"
        first.write_text(make())
        second.write_text(make())
        pairs.append(first.read_bytes() == second.read_bytes())
    _report(8, "re-running the theorem and conjecture reports is byte-identical", all(pairs))

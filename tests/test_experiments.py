import contextlib
import functools
import hashlib
import io
import json
import types
from collections import Counter
from dataclasses import replace
from math import ceil

import pytest

import cubedom.cli
import cubedom.constructions
import cubedom.experiments
import cubedom.solver
from cubedom.constructions import gk1_construct, theorem1_construct
from cubedom.errors import CheckFailedError, InvalidParametersError
from cubedom.experiments import (
    CSV_HEADER,
    conjecture_main_term,
    rows_to_csv,
    rows_to_json,
    run_conjecture_table,
    run_gk1_check,
    run_theorem1_sweep,
    run_theorem2_sweep,
)
from cubedom.levelgraph import LevelGraphSpec, materialize
from cubedom.solver import branch_and_bound_gamma, counting_lower_bound, greedy_dominate


def no_search(*args):
    raise AssertionError("branch and bound ran")


class TestMainTerm:
    def test_direct_substitution(self):
        assert conjecture_main_term(4, 3) == 6.0
        assert conjecture_main_term(10, 3) == 37.5
        assert conjecture_main_term(5, 3) == 9.375

    def test_rejects_k_below_three(self):
        with pytest.raises(InvalidParametersError):
            conjecture_main_term(10, 2)


class TestTheorem2Sweep:
    def test_range_4_to_9(self):
        rows = run_theorem2_sweep(4, 9)
        assert len(rows) == 6
        for row in rows:
            assert row.k == row.n - 1
            assert row.gamma_exact == 3 and row.proven
            assert row.construction_size == 3

    def test_single_n4(self):
        (row,) = run_theorem2_sweep(4, 4)
        assert (row.n, row.k, row.gamma_exact, row.construction_size) == (4, 3, 3, 3)

    def test_rejects_n_below_4(self):
        with pytest.raises(InvalidParametersError):
            run_theorem2_sweep(3, 5)

    @pytest.mark.parametrize("n", [15, 64])
    def test_proves_gamma_3_at_large_n(self, n):
        # Above the graph cap the construction and the lower bound prove the
        # row: no graph is built, so greedy does not run.
        (row,) = run_theorem2_sweep(n, n)
        assert row.gamma_exact == 3 and row.proven
        assert row.lower_bound == row.construction_size == 3
        assert row.greedy_value is None

    def test_row_not_proven_at_3_fails(self, monkeypatch, capsys):
        # Above the graph cap a row's proof is its 3-member construction
        # against the spec's lower bound, so a bound that falls short
        # leaves the row unproven and fails the sweep.
        monkeypatch.setattr(cubedom.experiments, "spec_lower_bound", lambda spec: 2)
        with pytest.raises(CheckFailedError, match="n=13: .*do not prove gamma = 3"):
            run_theorem2_sweep(13, 15)
        code = cubedom.cli.main(["sweep", "--theorem", "2", "--n-min", "13", "--n-max", "15"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("check failed: n=13: ") and err.count("\n") == 1


class TestTheorem1Sweep:
    def test_n6(self):
        rows = run_theorem1_sweep(6, 6)
        assert [(r.n, r.k) for r in rows] == [(6, 4), (6, 5)]
        for r in rows:
            assert r.construction_size <= ceil(r.n / 2) + 6
            assert r.gamma_exact is not None and r.proven
            assert r.gamma_exact <= r.construction_size

    def test_bound_holds_4_to_9(self):
        for row in run_theorem1_sweep(4, 9):
            assert row.construction_size <= ceil(row.n / 2) + 6

    def test_structural_only_at_large_n(self):
        rows = run_theorem1_sweep(40, 40)
        assert len(rows) == 40 - 1 - ceil(40 / 2)
        for row in rows:
            assert row.gamma_exact is None and row.greedy_value is None
            assert row.construction_size <= ceil(40 / 2) + 6

    def test_rejects_small_n(self):
        with pytest.raises(InvalidParametersError):
            run_theorem1_sweep(3, 6)

    def test_greedy_proves_where_it_meets_the_bound(self, monkeypatch):
        # Greedy's report against the spec's bound is the proof of every
        # row proven, and the sweep never searches.  The k = n - 1 rows
        # read 3 = 3, and the rows with n - k >= 2 and n >= 3(n - k) read
        # greedy's n - k + 4 against the duality bound (at (9,6) the
        # pair-graph bound reads 7 too).  All rows with n <= 7 are proven;
        # (8,5), (10,6), (11,7) and (12,7) are not.
        monkeypatch.setattr(cubedom.experiments, "branch_and_bound_gamma", no_search)
        rows = run_theorem1_sweep(4, 12)
        proven = [(r.n, r.k) for r in rows if r.proven and r.n > 7]
        assert proven == [(8, 6), (8, 7), (9, 6), (9, 7), (9, 8), (10, 7), (10, 8), (10, 9),
                          (11, 8), (11, 9), (11, 10), (12, 8), (12, 9), (12, 10), (12, 11)]
        assert all(r.proven for r in rows if r.n <= 7)
        assert len([r for r in rows if r.proven]) == 21
        assert all(r.gamma_exact == r.greedy_value == r.lower_bound for r in rows if r.proven)

    def test_two_methods_up_to_the_graph_cap(self, monkeypatch):
        # A graph check that rejects everything fails either theorem sweep
        # at the cap and is not consulted above it, where the structural
        # check stands alone.
        checked = []

        def rejecting_cover(graph, cert):
            checked.append(cert.spec.n)
            return False

        monkeypatch.setattr(cubedom.experiments, "_covers", rejecting_cover)
        cap = cubedom.experiments.SWEEP_GRAPH_N_CAP
        for run in (run_theorem1_sweep, run_theorem2_sweep):
            with pytest.raises(CheckFailedError, match="fails to dominate the built graph"):
                run(cap, cap)
            assert run(cap + 1, cap + 1)
        assert checked == [cap, cap]

    def test_graph_check_refutes_a_broken_certificate(self):
        # The graph check on its own: the theorem-1 family at (8,5) covers
        # its graph, and without the pair {1,2} it does not.
        cert = theorem1_construct(8, 5)
        graph = materialize(cert.spec)
        assert cubedom.experiments._covers(graph, cert)
        assert not cubedom.experiments._covers(graph, replace(cert, lowers=cert.lowers - {0b11}))


class TestRowRule:
    def test_lower_bound_above_the_construction_fails(self):
        # A report whose lower bound exceeds the verified construction's
        # size contradicts it; one that meets it proves the row.
        cert = theorem1_construct(8, 5)
        above = types.SimpleNamespace(value=cert.size + 1, lower_bound=cert.size + 1)
        with pytest.raises(CheckFailedError, match=r"\(n=8,k=5\): lower bound 11 exceeds"):
            cubedom.experiments._row(cert.spec, cert, None, above)
        meets = types.SimpleNamespace(value=cert.size, lower_bound=cert.size)
        row = cubedom.experiments._row(cert.spec, cert, None, meets)
        assert (row.proven, row.gamma_exact, row.construction_size) == (True, 10, 10)

    def test_conjecture_construction_is_verified(self, monkeypatch):
        # The conjecture table counts the theorem-1 construction's size, so
        # a construction that fails verification fails the table.
        real = cubedom.experiments.theorem1_construct
        monkeypatch.setattr(cubedom.experiments, "theorem1_construct",
                            lambda n, k: replace(real(n, k), lowers=real(n, k).lowers - {0b11}))
        with pytest.raises(CheckFailedError, match=r"\(n=8,k=5\): structural verification"):
            run_conjecture_table(8, 8, 5, 5)


class TestGk1Check:
    def test_all_values_match_formula(self):
        rows = run_gk1_check(6)
        assert all(r.gamma_exact == r.n - r.k + 1 and r.proven for r in rows)
        by_nk = {(r.n, r.k): r.gamma_exact for r in rows}
        assert by_nk[(5, 2)] == 4
        assert by_nk[(6, 5)] == 2
        assert by_nk[(4, 3)] == 2

    def test_rejects_large_n(self):
        # n_max runs to the ground-set cap, 64; past it, or below 3, the
        # check refuses before any row.
        for n_max in (65, 2):
            with pytest.raises(InvalidParametersError, match=f"got {n_max}"):
                run_gk1_check(n_max)

    def test_proves_every_row_to_64_without_search(self, monkeypatch):
        # The l = 1 construction against the duality bound n - k + 1 proves
        # all 1,953 rows with 2 <= k < n <= 64; rows above the graph cap
        # have no greedy value.
        monkeypatch.setattr(cubedom.experiments, "branch_and_bound_gamma", no_search)
        rows = run_gk1_check(64)
        assert len(rows) == 1953
        for r in rows:
            assert r.proven and r.gamma_exact == r.construction_size == r.lower_bound == r.n - r.k + 1
            assert (r.greedy_value is None) == (r.n > cubedom.experiments.SWEEP_GRAPH_N_CAP)

    def test_row_not_proven_fails(self, monkeypatch):
        # Above the graph cap a row's proof is the construction against the
        # spec's bound, so a bound that falls short fails the check.
        monkeypatch.setattr(cubedom.experiments, "spec_lower_bound", lambda spec: 1)
        with pytest.raises(CheckFailedError, match="n=13: .*do not prove gamma = 12 at k=2"):
            run_gk1_check(13)

    def test_construction_covers_the_built_graph(self):
        # The second, independent check of the construction, at every spec
        # up to the graph cap; without one singleton it fails.
        for n in range(3, cubedom.experiments.SWEEP_GRAPH_N_CAP + 1):
            for k in range(2, n):
                cert = gk1_construct(n, k)
                graph = materialize(cert.spec)
                assert cubedom.experiments._covers(graph, cert), (n, k)
                assert not cubedom.experiments._covers(graph, replace(cert, lowers=cert.lowers - {1}))

    def test_branch_and_bound_proves_the_formula(self, monkeypatch):
        # The search that this check ran before the duality bound, kept as
        # a second method: with the duality bound's stand-in 1, branch and
        # bound from greedy proves n - k + 1 at every spec with n <= 8 from
        # the counting bound and its own tree.  Greedy meets the counting
        # bound except at (8,2), (8,3) and (8,4), which the search proves.
        monkeypatch.setattr(cubedom.solver, "duality_lower_bound", lambda spec: 1)
        searched = []
        for n in range(3, 9):
            for k in range(2, n):
                graph = materialize(LevelGraphSpec(n, k, 1))
                report = branch_and_bound_gamma(graph, greedy_dominate(graph))
                assert report.proven_optimal and report.value == n - k + 1, (n, k)
                if report.nodes_explored:
                    searched.append((n, k))
        assert searched == [(8, 2), (8, 3), (8, 4)]


class TestConjectureTable:
    def test_main_terms_k3(self):
        rows = run_conjecture_table(4, 7, 3, 3)
        assert [r.conjecture_main_term for r in rows] == [6.0, 9.375, 13.5, 18.375]

    def test_sandwich_per_row(self):
        for row in run_conjecture_table(4, 7, 3, 3):
            assert row.lower_bound <= row.greedy_value
            if row.gamma_exact is not None:
                assert row.lower_bound <= row.gamma_exact <= row.greedy_value

    def test_exact_values_match_frozen_constants(self):
        rows = {(r.n, r.k): r for r in run_conjecture_table(4, 6, 3, 3)}
        assert rows[(4, 3)].gamma_exact == 3
        assert rows[(5, 3)].gamma_exact == 6
        assert rows[(6, 3)].gamma_exact == 9

    def test_rejects_k_below_three(self):
        with pytest.raises(InvalidParametersError):
            run_conjecture_table(4, 5, 2, 3)

    @pytest.mark.parametrize("bounds", [
        (4, 6, 3, 5), (4, 6, 3, 10**9), (-10**9, 6, 3, 5), (-10**9, 6, 3, 10**9),
    ], ids=["clipped", "huge-k-max", "negative-n-min", "both"])
    def test_bounds_past_the_rows_add_no_work(self, monkeypatch, bounds):
        # Rows need 3 <= k < n, so every bound set here has the six rows of
        # n 4..6, and builds one graph per row and nothing more.
        expected = run_conjecture_table(4, 6, 3, 5)
        built = []
        real = cubedom.experiments.materialize

        def counting(spec):
            built.append(spec)
            return real(spec)

        monkeypatch.setattr(cubedom.experiments, "materialize", counting)
        rows = run_conjecture_table(*bounds)
        assert rows == expected
        assert len(built) == len(rows) == 6


class TestOneGraphPerRow:
    @pytest.mark.parametrize("run,l", [
        (lambda: run_conjecture_table(5, 7, 3, 4), 2),
        (lambda: run_theorem1_sweep(4, 7), 2),
        (lambda: run_theorem2_sweep(4, 6), 2),
        (lambda: run_gk1_check(5), 1),
    ], ids=["conjecture", "theorem1", "theorem2", "gk1"])
    def test_each_row_materializes_once(self, monkeypatch, run, l):
        # Greedy and branch and bound share the row's graph.  The solvers
        # take a graph and never build one, so experiments is the one
        # consumer of materialize to count.
        built = Counter()
        real = cubedom.experiments.materialize

        def counting(spec):
            built[(spec.n, spec.k, spec.l)] += 1
            return real(spec)

        monkeypatch.setattr(cubedom.experiments, "materialize", counting)
        rows = run()
        assert built == Counter((r.n, r.k, l) for r in rows)

    @pytest.mark.parametrize("run", [
        lambda: row_specs(run_conjecture_table(5, 7, 3, 4)),
        lambda: row_specs(run_theorem1_sweep(4, 9)),
        lambda: row_specs(run_theorem2_sweep(4, 6)),
        lambda: row_specs(run_gk1_check(5)),
        lambda: exact_specs([(5, 4, 2), (7, 4, 2), (7, 3, 1)]),
    ], ids=["conjecture", "theorem1", "theorem2", "gk1", "exact"])
    def test_each_row_runs_greedy_once(self, monkeypatch, run):
        # Branch and bound starts from the greedy report of its row, or of
        # its exact command, instead of running greedy again.  No sweep
        # row, nor any gk1 row, runs branch and bound.  The exact command reads
        # greedy_dominate from cubedom.solver when it runs, so that is
        # where it is counted.
        calls = []
        for module in (cubedom.experiments, cubedom.solver):
            real = module.greedy_dominate

            def counting(graph, real=real):
                calls.append((graph.spec.n, graph.spec.k))
                return real(graph)

            monkeypatch.setattr(module, "greedy_dominate", counting)
        expected = run()
        assert calls == expected


def row_specs(rows):
    """The (n, k) of each row, every one of which carries a greedy value."""
    assert all(r.greedy_value is not None for r in rows)
    return [(r.n, r.k) for r in rows]


def exact_specs(specs):
    """Run the ``exact`` command once on each (n, k, l); their (n, k)."""
    for n, k, l in specs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cubedom.cli.main(["exact", "--n", str(n), "--k", str(k), "--l", str(l)]) == 0
    return [(n, k) for n, k, l in specs]


class TestRangeCheckedFirst:
    @pytest.mark.parametrize("run", [
        lambda: run_conjecture_table(64, 65, 3, 3),
        lambda: run_theorem1_sweep(63, 65),
        lambda: run_theorem2_sweep(4, 65),
    ], ids=["conjecture", "theorem1", "theorem2"])
    def test_n_above_64_builds_no_row(self, monkeypatch, run):
        # The range is rejected before its first row, not after computing
        # every row below n = 65.
        built = Counter()
        for name in ("materialize", "theorem1_construct", "theorem2_construct"):
            real = getattr(cubedom.experiments, name)

            def counting(*args, name=name, real=real, **kwargs):
                built[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(cubedom.experiments, name, counting)
        with pytest.raises(InvalidParametersError, match="n=65 exceeds 64"):
            run()
        assert built == Counter()


class TestEmission:
    def test_csv_header_and_values(self):
        text = rows_to_csv(run_theorem2_sweep(4, 5))
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("4,3,3,true,")

    def test_csv_and_json_agree(self):
        rows = run_theorem1_sweep(6, 7)
        csv_lines = rows_to_csv(rows).strip().split("\n")[1:]
        parsed = json.loads(rows_to_json(rows))
        assert len(csv_lines) == len(parsed)
        for line, obj in zip(csv_lines, parsed):
            cells = line.split(",")
            assert cells[0] == str(obj["n"]) and cells[1] == str(obj["k"])
            assert cells[2] == ("" if obj["gamma_exact"] is None else str(obj["gamma_exact"]))
            assert cells[6] == str(obj["lower_bound"])

    def test_reruns_byte_identical(self):
        a = rows_to_csv(run_theorem2_sweep(4, 8))
        b = rows_to_csv(run_theorem2_sweep(4, 8))
        assert a == b
        assert rows_to_json(run_conjecture_table(4, 6, 3, 3)) == rows_to_json(
            run_conjecture_table(4, 6, 3, 3)
        )


TABLES = {
    "theorem2": lambda: run_theorem2_sweep(4, 12),
    "theorem2-64": lambda: run_theorem2_sweep(4, 64),
    "conjecture": lambda: run_conjecture_table(5, 9, 3, 5),
    "theorem1": lambda: run_theorem1_sweep(4, 12),
    "gk1": lambda: run_gk1_check(8),
}


@functools.cache
def table(name):
    return TABLES[name]()


class TestPinnedTables:
    # sha256 of each table's CSV.  The theorem-2 digest was taken at
    # b9db81b.  The theorem-1 and gk1 ones were taken once every row came
    # from one row builder: against b9db81b they differ in five lower_bound
    # cells, theorem 1 (6,4) 5 -> 6 and (7,5) 4 -> 6, gk1 (8,2) 6 -> 7,
    # (8,3) 5 -> 6 and (8,4) 4 -> 5, each now the proven gamma.  The
    # conjecture one was taken with the two-level cap bound, which proves
    # the (8,5) row inside its 200,000-node budget: that row reads
    # 8,5,8,true,8,10,8 where it read 8,5,,false,8,10,6.  It was re-taken
    # with orbits below the root, which prove (7,3) and (8,4) inside that
    # budget: 7,3,13,true,15,,13 where it read 7,3,,false,15,,11, and
    # 8,4,12,true,12,,12 where it read 8,4,,false,12,,9.  It was re-taken
    # (a97a1f6e... -> f51b46df...) once greedy drops redundant picks: only
    # greedy_value moved, (7,3) 15 -> 13, (8,3) 20 -> 18 and (9,3) 26 -> 25.
    # The pair-graph bound re-took the conjecture digest (f51b46df... ->
    # 78ceb14d...): lower_bound (9,3) 20 -> 22, (9,4) 11 -> 14 and (9,5)
    # 8 -> 9.  It re-took the theorem-1 digest (2628d138... -> 40bb6788...)
    # with greedy's report as the proof where it meets the bound: the
    # k = n - 1 rows at n = 8...12 and (9,6) now read proven, and
    # lower_bound rose at (8,5), (9,6), (10,6), (11,7), (11,8), (12,7),
    # (12,8) and (12,9).  Orbits to five members and forced vertices to
    # eight (four and seven before) re-took the conjecture digest
    # (78ceb14d... -> 0793dae8...): they prove (8,3) inside the budget,
    # 8,3,18,true,18,,18 where it read 8,3,,false,18,,16.  The theorem-2
    # table to n = 64 was pinned once its rows above the graph cap ran no
    # greedy: it differs from the earlier output only in their empty
    # greedy_value cells.  The improver that branch and bound runs past
    # 50,000 nodes re-took the conjecture digest (0793dae8... ->
    # 3073535e...): it turns greedy's 11 into 10 at (9,5), and the search
    # then proves it inside the budget, 9,5,10,true,11,,10 where it read
    # 9,5,,false,11,,9.  Branch and bound on both sides of the complement
    # map re-took it (3073535e... -> 2d6d18fc...): the lower side proves
    # (9,4) inside the budget, 9,4,15,true,16,,15 where it read
    # 9,4,,false,16,,14.  The duality bound re-took the theorem-1 digest
    # (40bb6788... -> ebf3c04c...): (8,6), (9,7), (10,7), (10,8), (11,8),
    # (11,9), (12,8), (12,9) and (12,10) read proven at greedy's value,
    # which their lower_bound rose to, and nothing else moved.  The gk1
    # check's construction re-took the gk1 digest (2a5bfc72... ->
    # f5ad9c72...): construction_size reads n - k + 1 on every row, where
    # it was empty.
    DIGESTS = {
        "theorem2": "c170bd52bb4ce54c89734969a7ffaaed2a69f47abb5de7cecb170c76cb2ca14a",
        "theorem2-64": "dc75b415830ff4e4445d73716bc3719c487446b19bc8f3d6f8daf0da7618decd",
        "conjecture": "2d6d18fc69a10dda43c0692f0c5a5aa991a13b0ac2c5b8b5ce8176f4aedfe892",
        "theorem1": "ebf3c04c3b1d6ce16a8382336f8bd59c26837cb38e0e81a0dcdc8d1d5529f5d2",
        "gk1": "f5ad9c723d0c444fc119166e4c399980105db70bfc43f6b0b2083cff1accaf68",
    }

    @pytest.mark.parametrize("name", TABLES)
    def test_csv_digest(self, name):
        text = rows_to_csv(table(name))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[name]

    @pytest.mark.parametrize("name", TABLES)
    def test_lower_bound_is_gamma_on_proven_rows(self, name):
        for row in table(name):
            spec = LevelGraphSpec(row.n, row.k, 1 if name == "gk1" else 2)
            assert row.lower_bound >= counting_lower_bound(spec)
            if row.proven:
                assert row.lower_bound == row.gamma_exact

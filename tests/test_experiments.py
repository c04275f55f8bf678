import json
from collections import Counter
from math import ceil

import pytest

import cubedom.experiments
import cubedom.solver
from cubedom.errors import BudgetExceededError, InvalidParametersError
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

    def test_beyond_solver_reach_leaves_gamma_open(self):
        (row,) = run_theorem2_sweep(15, 15)
        assert row.gamma_exact is None and not row.proven
        assert row.construction_size == 3


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


class TestGk1Check:
    def test_all_values_match_formula(self):
        rows = run_gk1_check(6)
        assert all(r.gamma_exact == r.n - r.k + 1 and r.proven for r in rows)
        by_nk = {(r.n, r.k): r.gamma_exact for r in rows}
        assert by_nk[(5, 2)] == 4
        assert by_nk[(6, 5)] == 2
        assert by_nk[(4, 3)] == 2

    def test_rejects_large_n(self):
        with pytest.raises(BudgetExceededError):
            run_gk1_check(9)


class TestConjectureTable:
    def test_main_terms_k3(self):
        rows = run_conjecture_table(range(4, 8), [3])
        assert [r.conjecture_main_term for r in rows] == [6.0, 9.375, 13.5, 18.375]

    def test_sandwich_per_row(self):
        for row in run_conjecture_table(range(4, 8), [3]):
            assert row.lower_bound <= row.greedy_value
            if row.gamma_exact is not None:
                assert row.lower_bound <= row.gamma_exact <= row.greedy_value

    def test_exact_values_match_frozen_constants(self):
        rows = {(r.n, r.k): r for r in run_conjecture_table(range(4, 7), [3])}
        assert rows[(4, 3)].gamma_exact == 3
        assert rows[(5, 3)].gamma_exact == 6
        assert rows[(6, 3)].gamma_exact == 9

    def test_rejects_k_below_three(self):
        with pytest.raises(InvalidParametersError):
            run_conjecture_table(range(4, 6), [2, 3])


class TestOneGraphPerRow:
    @pytest.mark.parametrize("run,l", [
        (lambda: run_conjecture_table(range(5, 8), [3, 4]), 2),
        (lambda: run_theorem1_sweep(4, 7), 2),
        (lambda: run_theorem2_sweep(4, 6), 2),
        (lambda: run_gk1_check(5), 1),
    ], ids=["conjecture", "theorem1", "theorem2", "gk1"])
    def test_each_row_materializes_once(self, monkeypatch, run, l):
        # Greedy and branch and bound share the row's graph: the package
        # imports materialize by name, so count it in both consumers.
        built = Counter()
        real = cubedom.solver.materialize

        def counting(spec, *args, **kwargs):
            built[(spec.n, spec.k, spec.l)] += 1
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(cubedom.experiments, "materialize", counting, raising=False)
        monkeypatch.setattr(cubedom.solver, "materialize", counting)
        rows = run()
        assert built == Counter((r.n, r.k, l) for r in rows)


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
        assert rows_to_json(run_conjecture_table(range(4, 7), [3])) == rows_to_json(
            run_conjecture_table(range(4, 7), [3])
        )

import csv
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import textwrap
import types
from dataclasses import replace
from pathlib import Path

import pytest

import cubedom.constructions
import cubedom.errors
import cubedom.experiments
import cubedom.solver
from cubedom.cli import build_parser, main
from cubedom.constructions import certificate_from_json
from cubedom.errors import CheckFailedError, InvalidParametersError, TooLargeError
from cubedom.subsets import elements, enumerate_k_subsets

from oracles import scan_certificate

# The fields of a certificate file before its members.
HEAD = {"n": 4, "k": 3, "l": 2, "provenance": "external"}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestStats:
    def test_emits_json(self, capsys):
        code, out, _ = run(capsys, "stats", "--n", "4", "--k", "3", "--l", "2")
        assert code == 0
        assert json.loads(out) == {
            "vertex_count": 10,
            "edge_count": 12,
            "upper_degree": 3,
            "lower_degree": 2,
        }

    def test_invalid_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "stats", "--n", "4", "--k", "4", "--l", "2")
        assert code == 2
        assert "error" in err


class TestConstructVerify:
    def test_theorem2_round_trip(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, _, _ = run(capsys, "construct", "--theorem", "2", "--n", "6", "-o", str(path))
        assert code == 0
        code, out, _ = run(capsys, "verify", "--cert", str(path))
        assert code == 0
        assert "verified" in out

    def test_theorem1_structural(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "construct", "--theorem", "1", "--n", "30", "--k", "20", "-o", str(path))
        code, out, _ = run(capsys, "verify", "--cert", str(path), "--structural")
        assert code == 0
        assert "verified" in out

    def test_theorem1_past_the_scan_cap_verifies_by_default(self, capsys, tmp_path):
        # C(30,20) + C(30,2) vertices are over the scan's cap, but an l = 2
        # file takes the structural check, so the default path exits 0.
        path = tmp_path / "cert.json"
        run(capsys, "construct", "--theorem", "1", "--n", "30", "--k", "20", "-o", str(path))
        assert run(capsys, "verify", "--cert", str(path)) == (0, "verified\n", "")

    def test_bad_certificate_exits_1(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({
            "n": 4, "k": 3, "l": 2, "provenance": "external",
            "members": [{"level": "upper", "elements": [1, 2, 3]}],
        }))
        code, out, _ = run(capsys, "verify", "--cert", str(path))
        assert code == 1
        assert "[1, 4]" in out

    @pytest.mark.parametrize(
        "data",
        [
            json.dumps({
                "n": 4, "k": 3, "l": 2, "provenance": "bogus",
                "members": [{"level": "upper", "elements": [1, 2, 3]}],
            }).encode(),
            json.dumps({
                "n": 4, "k": 3, "l": 2, "provenance": "external",
                "members": [{"level": "middle", "elements": [1, 2, 3]}],
            }).encode(),
            b"this is not JSON",
            b"\xff\xfe\x00bad",
            json.dumps({
                "n": 4, "k": 3, "l": 2, "provenance": "external",
                "members": [{"level": "lower", "elements": [1, 2]},
                            {"level": "lower", "elements": [2, 1]}],
            }).encode(),
            json.dumps({
                "n": 4, "k": 3, "l": 2, "provenance": "external",
                "members": [{"level": "upper", "elements": [1, 1, 2, 3]}],
            }).encode(),
        ],
        ids=["bad-provenance", "bad-level", "not-json", "not-utf8", "duplicate-members",
             "repeated-element"],
    )
    def test_malformed_certificate_exits_2(self, capsys, tmp_path, data):
        path = tmp_path / "cert.json"
        path.write_bytes(data)
        code, out, err = run(capsys, "verify", "--cert", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flags", [(), ("--structural",)], ids=["enumerative", "structural"])
    @pytest.mark.parametrize("level", ["middle", ["x"], "UPPER", None, 5],
                             ids=["middle", "list", "capitals", "null", "number"])
    def test_unknown_member_level_exits_2(self, capsys, tmp_path, flags, level):
        data = {"n": 4, "k": 3, "l": 2, "provenance": "external",
                "members": [{"level": level, "elements": [1, 2, 3]}]}
        code, out, err = verify_data(capsys, tmp_path, data, *flags)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and repr(level) in err

    @pytest.mark.parametrize("flags", [(), ("--structural",)], ids=["enumerative", "structural"])
    @pytest.mark.parametrize("members", [
        {},
        "",
        [{"level": "upper", "elements": ""}],
        [{"level": "lower", "elements": {"1": 1, "2": 2}}],
    ], ids=["members-object", "members-string", "elements-string", "elements-object"])
    def test_members_and_elements_not_arrays_exit_2(self, capsys, tmp_path, flags, members):
        data = {"n": 4, "k": 3, "l": 2, "provenance": "external", "members": members}
        code, out, err = verify_data(capsys, tmp_path, data, *flags)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "must be a JSON array" in err

    @pytest.mark.parametrize("flags", [(), ("--structural",)], ids=["enumerative", "structural"])
    @pytest.mark.parametrize("data,problem", [
        ([], "certificate must be a JSON object, got list"),
        ("x", "certificate must be a JSON object, got str"),
        ({**HEAD, "members": [5]}, "member must be a JSON object, got int"),
        ({**HEAD, "members": [{"level": "upper"}]}, "missing key 'elements'"),
        ({**HEAD, "members": [{"elements": [1, 2, 3]}]}, "missing key 'level'"),
        (HEAD, "missing key 'members'"),
    ], ids=["top-array", "top-string", "member-number", "no-elements", "no-level",
            "no-members"])
    def test_malformed_structure_is_named(self, capsys, tmp_path, flags, data, problem):
        code, out, err = verify_data(capsys, tmp_path, data, *flags)
        assert (code, out) == (2, "")
        assert err == f"error: malformed certificate: {problem}\n"

    @pytest.mark.parametrize("flags", [(), ("--structural",)], ids=["enumerative", "structural"])
    @pytest.mark.parametrize("field,value", [("n", 6.5), ("n", 6.0), ("k", 4.5), ("l", 2.0)])
    def test_non_integer_parameter_exits_2(self, capsys, tmp_path, flags, field, value):
        data = {"n": 6, "k": 4, "l": 2, "provenance": "external", "members": []}
        data[field] = value
        code, out, err = verify_data(capsys, tmp_path, data, *flags)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and f"{field} must be an integer, got {value}" in err

    def test_repeated_element_in_theorem1_file_exits_2(self, capsys, tmp_path):
        data = theorem1_file(capsys, tmp_path, 10, 7)
        data["members"][0]["elements"] = [1, 1, 2, 3, 4, 5, 6, 7]
        code, out, err = verify_data(capsys, tmp_path, data, "--structural")
        assert (code, out) == (2, "")
        assert "repeated element" in err and err.count("\n") == 1

    @pytest.mark.parametrize("flags", [(), ("--structural",)], ids=["enumerative", "structural"])
    def test_boolean_element_exits_2(self, capsys, tmp_path, flags):
        # The theorem-2 file at n = 4 with true in place of 1: true == 1 in
        # Python, but a JSON boolean is not an element of [n].
        run(capsys, "construct", "--theorem", "2", "--n", "4", "-o", str(tmp_path / "t2.json"))
        data = json.loads((tmp_path / "t2.json").read_text())
        for m in data["members"]:
            m["elements"] = [True if e == 1 else e for e in m["elements"]]
        code, out, err = verify_data(capsys, tmp_path, data, *flags)
        assert (code, out) == (2, "")
        assert "not an integer" in err and err.count("\n") == 1

    def test_deeply_nested_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_bytes(b"[" * 200_000 + b"]" * 200_000)
        code, out, err = run(capsys, "verify", "--cert", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_theorem1_needs_k(self, capsys):
        code, _, _ = run(capsys, "construct", "--theorem", "1", "--n", "8")
        assert code == 2

    def test_theorem2_rejects_k_other_than_n_minus_1(self, capsys, tmp_path):
        path = tmp_path / "t2.json"
        code, out, err = run(capsys, "construct", "--theorem", "2", "--n", "8",
                             "--k", "5", "-o", str(path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "k = n-1 = 7" in err
        assert not path.exists()

    def test_theorem2_accepts_k_equal_n_minus_1(self, capsys):
        code, out, _ = run(capsys, "construct", "--theorem", "2", "--n", "8", "--k", "7")
        assert code == 0
        assert json.loads(out)["k"] == 7


def theorem1_file(capsys, tmp_path, n, k):
    path = tmp_path / "t1.json"
    code, _, _ = run(capsys, "construct", "--theorem", "1", "--n", str(n), "--k", str(k),
                     "-o", str(path))
    assert code == 0
    return json.loads(path.read_text())


def verify_data(capsys, tmp_path, data, *flags):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    return run(capsys, "verify", "--cert", str(path), *flags)


def scan_line(data):
    """The line ``verify`` prints for ``data``, as the vertex scan decides it."""
    cert = certificate_from_json(data)
    witness = scan_certificate(cert).witness
    if witness is None:
        return "verified\n"
    level = "upper" if witness.bit_count() == cert.spec.k else "lower"
    return f"not dominating; undominated vertex: {level} {list(elements(witness))}\n"


class TestVerifyStructural:
    def test_theorem1_with_extra_pair_verifies(self, capsys, tmp_path):
        data = theorem1_file(capsys, tmp_path, 10, 7)
        data["members"].append({"level": "lower", "elements": [1, 3]})
        assert verify_data(capsys, tmp_path, data, "--structural") == (0, "verified\n", "")

    def test_external_copy_of_greedy_witness_verifies(self, capsys, tmp_path):
        code, out, _ = run(capsys, "greedy", "--n", "8", "--k", "3", "--l", "2")
        assert code == 0
        data = json.loads(out)["witness"]
        data["provenance"] = "external"
        assert verify_data(capsys, tmp_path, data, "--structural") == (0, "verified\n", "")

    def test_theorem1_missing_pair_gives_enumerative_witness(self, capsys, tmp_path):
        data = theorem1_file(capsys, tmp_path, 10, 6)
        data["members"].remove({"level": "lower", "elements": [3, 4]})
        want = (1, scan_line(data), "")
        assert want == (1, "not dominating; undominated vertex: upper [1, 3, 4, 5, 7, 9]\n", "")
        assert verify_data(capsys, tmp_path, data) == want
        assert verify_data(capsys, tmp_path, data, "--structural") == want

    @pytest.mark.parametrize("flags", [(), ("--structural",)], ids=["enumerative", "structural"])
    @pytest.mark.parametrize("construct,pair", [
        (("--theorem", "1", "--n", "12", "--k", "7"), [1, 3]),
        (("--theorem", "2", "--n", "9"), [2, 3]),
    ], ids=["theorem1", "theorem2"])
    def test_theorem_file_with_extra_pair_verifies(self, capsys, tmp_path, flags, construct,
                                                   pair):
        # A certificate is checked for shape only: one more member takes the
        # family past its theorem's size, and it still dominates.
        path = tmp_path / "t.json"
        assert run(capsys, "construct", *construct, "-o", str(path))[0] == 0
        data = json.loads(path.read_text())
        data["members"].append({"level": "lower", "elements": pair})
        assert verify_data(capsys, tmp_path, data, *flags) == (0, "verified\n", "")

    @pytest.mark.parametrize("flags", [(), ("--structural",)], ids=["enumerative", "structural"])
    def test_theorem2_file_missing_a_member_is_refuted(self, capsys, tmp_path, flags):
        path = tmp_path / "t2.json"
        assert run(capsys, "construct", "--theorem", "2", "--n", "9", "-o", str(path))[0] == 0
        data = json.loads(path.read_text())
        data["members"].remove({"level": "upper", "elements": list(range(1, 9))})
        assert verify_data(capsys, tmp_path, data, *flags) == (
            1, "not dominating; undominated vertex: lower [1, 2]\n", "")

    def test_search_past_the_cap_exits_3(self, capsys, tmp_path, monkeypatch):
        # Six disjoint 5-cycles as pairs at n = 30, k = 13, and one k-set
        # per two blocks of six elements (their union plus one more), so
        # that every pair is covered and no pair witness bounds the search
        # for the upper witness: 17,570 search nodes, over a cap of 1,000.
        monkeypatch.setattr(cubedom.constructions, "VERIFY_CAP", 1000)
        cycles = [[5 * i + j for j in range(1, 6)] for i in range(6)]
        members = [{"level": "lower", "elements": [c[j], c[(j + 1) % 5]]}
                   for c in cycles for j in range(5)]
        for i, j in itertools.combinations(range(5), 2):
            union = [*range(6 * i + 1, 6 * i + 7), *range(6 * j + 1, 6 * j + 7)]
            extra = min(set(range(1, 31)) - set(union))
            members.append({"level": "upper", "elements": sorted(union + [extra])})
        data = {"n": 30, "k": 13, "l": 2, "provenance": "external", "members": members}
        for flags in ((), ("--structural",)):
            assert verify_data(capsys, tmp_path, data, *flags) == (
                3, "", "error: structural search nodes exceed the cap of 1000\n")

    def test_level_other_than_2_exits_2(self, capsys, tmp_path):
        data = {
            "n": 5, "k": 3, "l": 1, "provenance": "external",
            "members": [{"level": "lower", "elements": [1]}],
        }
        code, out, err = verify_data(capsys, tmp_path, data, "--structural")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("n,l,members,line", [
        (7, 1, [[1]], "not dominating; undominated vertex: lower [2]\n"),
        (7, 3, [[1, 2, 3, 4], [1, 5, 6, 7], [2, 3, 5, 6], [2, 4, 5, 7], [3, 4, 6, 7]],
         "not dominating; undominated vertex: lower [1, 2, 5]\n"),
        # greedy's witness at (6,4,3)
        (6, 3, [[1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 4, 5], [1, 2, 3, 6], [1, 2, 4, 6],
                [1, 2, 5, 6], [3, 4, 5, 6], [1, 3, 5], [2, 4, 5], [2, 3, 6], [1, 4, 6]],
         "verified\n"),
    ], ids=["l1-refuted", "l3-refuted", "l3-verified"])
    def test_level_other_than_2_takes_the_scan(self, capsys, tmp_path, n, l, members, line):
        # The scan of tests/oracles.py is the reference: ``verify`` prints
        # the line it gives.
        data = {"n": n, "k": 4, "l": l, "provenance": "external",
                "members": [{"level": "upper" if len(e) == 4 else "lower", "elements": e}
                            for e in members]}
        assert scan_line(data) == line
        assert verify_data(capsys, tmp_path, data) == (0 if line == "verified\n" else 1, line, "")

    def test_level_other_than_2_past_the_scan_cap(self, capsys, tmp_path):
        # At (64,44,3) the scan would refuse C(64,44) vertices with exit 3;
        # the structural check decides both files.  The 22 triples alone
        # leave {1,2,4} undominated; with the ten 44-sets whose complements
        # are 20-subsets of the unions of two of five blocks, every vertex
        # is dominated.
        triples = [list(range(3 * i + 1, 3 * i + 4)) for i in range(21)] + [[62, 63, 64]]
        members = [{"level": "lower", "elements": e} for e in triples]
        data = {"n": 64, "k": 44, "l": 3, "provenance": "external", "members": members}
        assert verify_data(capsys, tmp_path, data) == (
            1, "not dominating; undominated vertex: lower [1, 2, 4]\n", "")
        starts = (1, 14, 27, 40, 53, 65)
        blocks = [list(range(a, b)) for a, b in zip(starts, starts[1:])]
        for b1, b2 in itertools.combinations(blocks, 2):
            complement = set((b1 + b2)[:20])
            members.append({"level": "upper",
                            "elements": [e for e in range(1, 65) if e not in complement]})
        assert verify_data(capsys, tmp_path, data) == (0, "verified\n", "")


class TestSweepTheoremChecks:
    @pytest.mark.parametrize("theorem,name,grow,message", [
        # Every pair of [8] as a member: the family dominates, but it has
        # 6 + 28 members, over ceil(8/2) + 6.
        ("1", "theorem1_construct",
         lambda cert: replace(cert, lowers=frozenset(enumerate_k_subsets(cert.spec.n, 2))),
         "(n=8,k=5): construction has 34 members, bound is 10"),
        # A fourth member.
        ("2", "theorem2_construct", lambda cert: replace(cert, lowers=cert.lowers | {0b11}),
         "(n=8,k=7): construction has 4 members, bound is 3"),
    ], ids=["theorem1", "theorem2"])
    def test_oversized_construction_exits_1(self, capsys, monkeypatch, theorem, name, grow,
                                            message):
        real = getattr(cubedom.experiments, name)
        monkeypatch.setattr(cubedom.experiments, name, lambda *args: grow(real(*args)))
        code, out, err = run(capsys, "sweep", "--theorem", theorem, "--n-min", "8",
                             "--n-max", "8")
        assert (code, out, err) == (1, "", f"check failed: {message}\n")


class TestSolvers:
    def test_exact(self, capsys):
        code, out, _ = run(capsys, "exact", "--n", "5", "--k", "4", "--l", "2")
        assert code == 0
        report = json.loads(out)
        assert report["value"] == 3 and report["proven_optimal"]

    def test_exact_budget_exit_3(self, capsys):
        code, out, _ = run(
            capsys, "exact", "--n", "7", "--k", "4", "--l", "2", "--node-budget", "50"
        )
        assert code == 3
        assert not json.loads(out)["proven_optimal"]

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_exact_budget_below_one_exits_2(self, capsys, budget):
        code, out, err = run(
            capsys, "exact", "--n", "6", "--k", "4", "--l", "2", "--node-budget", budget
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "node budget" in err

    def test_greedy(self, capsys):
        code, out, _ = run(capsys, "greedy", "--n", "5", "--k", "3", "--l", "2")
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "greedy"
        assert report["value"] >= report["lower_bound"]

    def test_too_large_exits_3(self, capsys):
        code, _, err = run(capsys, "exact", "--n", "20", "--k", "10", "--l", "2")
        assert code == 3

    def test_only_table_commands_load_the_tables(self):
        # A fresh interpreter, since this test session imports every module.
        script = textwrap.dedent("""
            import contextlib, io, sys
            from cubedom.cli import main

            with contextlib.redirect_stdout(io.StringIO()):
                for argv in (["stats", "--n", "6", "--k", "4", "--l", "2"],
                             ["greedy", "--n", "6", "--k", "4", "--l", "2"],
                             ["exact", "--n", "6", "--k", "4", "--l", "2"],
                             ["construct", "--theorem", "2", "--n", "6"]):
                    assert main(argv) == 0, argv
                    assert "cubedom.experiments" not in sys.modules, argv
                assert main(["gk1-check", "--n-max", "4"]) == 0
            assert "cubedom.experiments" in sys.modules
            print("ok")
        """)
        fresh_interpreter(script)

    def test_only_solving_commands_load_the_solver(self, tmp_path):
        # The package and the commands that do not solve leave
        # cubedom.solver unloaded; its names still resolve from cubedom.
        script = textwrap.dedent(f"""
            import contextlib, io, sys
            import cubedom
            from cubedom.cli import main

            cert = {str(tmp_path / "t1.json")!r}
            with contextlib.redirect_stdout(io.StringIO()):
                for argv in (["stats", "--n", "6", "--k", "4", "--l", "2"],
                             ["construct", "--theorem", "1", "--n", "9", "--k", "6", "-o", cert],
                             ["verify", "--cert", cert],
                             ["verify", "--cert", cert, "--structural"]):
                    assert main(argv) == 0, argv
                    assert "cubedom.solver" not in sys.modules, argv
            assert cubedom.greedy_dominate.__module__ == "cubedom.solver"
            assert "cubedom.solver" in sys.modules
            print("ok")
        """)
        fresh_interpreter(script)


def fresh_interpreter(script):
    """Run ``script`` in a new interpreter on this checkout; it prints ok."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "ok\n"


class TestSweeps:
    def test_theorem2_csv(self, capsys):
        code, out, _ = run(capsys, "sweep", "--theorem", "2", "--n-min", "4", "--n-max", "6")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("n,k,gamma_exact")
        assert len(lines) == 4

    def test_theorem1_json(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--theorem", "1", "--n-min", "6", "--n-max", "6",
            "--format", "json",
        )
        assert code == 0
        assert [r["k"] for r in json.loads(out)] == [4, 5]

    def test_gk1(self, capsys):
        code, out, _ = run(capsys, "gk1-check", "--n-max", "5")
        assert code == 0
        assert "5,2,4,true" in out

    def test_gk1_past_n_8_proves_every_row(self, capsys):
        # The check searched to n = 8 and exited 3 above; it now proves
        # every row from the construction and the duality bound.
        code, out, err = run(capsys, "gk1-check", "--n-max", "9")
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 28
        assert all(r["proven"] == "true" and int(r["gamma_exact"]) == int(r["n"]) - int(r["k"]) + 1
                   for r in rows)

    def test_conjecture(self, capsys):
        code, out, _ = run(
            capsys, "conjecture", "--n-min", "4", "--n-max", "5",
            "--k-min", "3", "--k-max", "3",
        )
        assert code == 0
        assert "6.0" in out and "9.375" in out

    def test_sweep_bad_range_exits_2(self, capsys):
        code, _, _ = run(capsys, "sweep", "--theorem", "2", "--n-min", "3", "--n-max", "5")
        assert code == 2

    @pytest.mark.parametrize(
        "bounds",
        [("9", "5", "3", "4"), ("5", "9", "4", "3")],
        ids=["reversed-n", "reversed-k"],
    )
    def test_conjecture_empty_range_exits_2(self, capsys, bounds):
        n_min, n_max, k_min, k_max = bounds
        code, out, err = run(
            capsys, "conjecture", "--n-min", n_min, "--n-max", n_max,
            "--k-min", k_min, "--k-max", k_max,
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "non-empty" in err

    def test_conjecture_without_a_row_exits_2(self, capsys):
        # Both ranges are non-empty, but no k is below any n.
        code, out, err = run(
            capsys, "conjecture", "--n-min", "4", "--n-max", "4",
            "--k-min", "5", "--k-max", "6",
        )
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "no row" in err

    @pytest.mark.parametrize("wide,clipped", [
        (("--n-min", "5", "--n-max", "6", "--k-min", "3", "--k-max", "1000000000"),
         ("--n-min", "5", "--n-max", "6", "--k-min", "3", "--k-max", "5")),
        (("--n-min", "-1000000000", "--n-max", "6", "--k-min", "3", "--k-max", "4"),
         ("--n-min", "4", "--n-max", "6", "--k-min", "3", "--k-max", "4")),
    ], ids=["huge-k-max", "negative-n-min"])
    def test_conjecture_bounds_past_the_rows(self, capsys, wide, clipped):
        # Rows need 3 <= k < n: bounds past them give the same rows, and
        # cost no time or memory for the values no row has.
        code, out, err = run(capsys, "conjecture", *wide)
        assert (code, err) == (0, "")
        assert (code, out, err) == run(capsys, "conjecture", *clipped)

    def test_conjecture_huge_n_max_exits_2(self, capsys):
        code, out, err = run(capsys, "conjecture", "--n-min", "5", "--n-max", "1000000000",
                             "--k-min", "3", "--k-max", "4")
        assert (code, out, err) == (2, "", "error: n=1000000000 exceeds 64\n")

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, _, _ = run(
            capsys, "sweep", "--theorem", "2", "--n-min", "4", "--n-max", "5",
            "-o", str(path),
        )
        assert code == 0
        assert path.read_text().startswith("n,k,")


class TestReadme:
    def test_cli_examples_run(self, capsys, tmp_path, monkeypatch):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        section = readme.read_text().split("\n## CLI\n", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("cubedom ")]
        assert len(lines) == 10
        monkeypatch.chdir(tmp_path)
        for line in lines:
            code, _, err = run(capsys, *shlex.split(line)[1:])
            assert code == 0, (line, err)


# For each class in cubedom.errors: its exit code, and commands that raise
# it, with the attribute patched (if any) to force the fault.
EXIT_CODES = {
    InvalidParametersError: (2, [(None, ("stats", "--n", "4", "--k", "4", "--l", "2"))]),
    TooLargeError: (3, [(None, ("greedy", "--n", "30", "--k", "15", "--l", "2"))]),
    CheckFailedError: (1, [
        # SolveReport: a lower bound above the witness's size.
        ((cubedom.solver, "spec_lower_bound", lambda spec: 10**6),
         ("greedy", "--n", "5", "--k", "3", "--l", "2")),
        # A table row: a greedy value below the proven lower bound.
        ((cubedom.experiments, "greedy_dominate",
          lambda g: types.SimpleNamespace(value=1, lower_bound=1)),
         ("gk1-check", "--n-max", "3")),
    ]),
}


class TestExitCodes:
    def test_every_error_class_has_an_exit_code(self):
        classes = {c for c in vars(cubedom.errors).values()
                   if isinstance(c, type) and c.__module__ == "cubedom.errors"}
        assert classes == set(EXIT_CODES)
        assert sorted(code for code, _ in EXIT_CODES.values()) == [1, 2, 3]

    @pytest.mark.parametrize("cls,case", [
        (cls, case) for cls, (_, cases) in EXIT_CODES.items() for case in cases
    ], ids=lambda v: v.__name__ if isinstance(v, type) else v[1][0])
    def test_raised_class_gives_its_code_and_one_line(self, capsys, monkeypatch, cls, case):
        patch, argv = case
        if patch is not None:
            monkeypatch.setattr(*patch)
        args = build_parser().parse_args(argv)
        with pytest.raises(cls):
            args.func(args)
        capsys.readouterr()
        code, out, err = run(capsys, *argv)
        assert code == EXIT_CODES[cls][0]
        assert out == "" and err.count("\n") == 1

"""Workload item lists, seeded inputs, and the output checks behind fail_ratio.

Every item is one argv for ``cubedom.cli.main``.  Its check re-derives
what it can with the benchmark's own mask arithmetic and never calls back
into the package: witnesses are re-checked vertex by vertex, and a
certificate's expected verdict comes from a counting proof or a small
search done here.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from dataclasses import dataclass, field
from math import ceil, comb
from typing import Callable, Optional

# README's regression constants, frozen from the brute-force oracle.
FROZEN_GAMMA = {(6, 3, 2): 9, (6, 4, 2): 6, (7, 4, 2): 9}

CSV_HEADER = "n,k,gamma_exact,proven,greedy_value,construction_size,lower_bound,conjecture_main_term"

# prove: l=2 instances at one node budget.  (8,4) and (8,5) are not proven
# within the budget at the seed commit, so proven_count has room to rise.
PROVE = {
    "full": {"grid": [(6, 3), (6, 4), (7, 4), (7, 5), (8, 4), (8, 5), (8, 6)], "budget": 3_000_000},
    "tiny": {"grid": [(6, 3), (6, 4), (7, 4)], "budget": 30_000},
}

# certify: theorem-1 certificates checked enumeratively (full scans), the
# same at even n and k = n/2+1 with one pair member removed (early-exit
# witness searches), structural checks up to n=64, and theorem-2 files.
CERTIFY = {
    "full": {
        "enum": [(22, 12), (21, 12), (20, 11)],
        "broken": [(22, 12), (20, 11), (18, 10)],
        "structural": [(24, 13), (33, 18), (40, 30), (47, 25), (56, 40), (64, 33), (64, 63)],
        "theorem2": [16, 32, 48, 64],
    },
    "tiny": {"enum": [(10, 6)], "broken": [(10, 6)], "structural": [(16, 9)], "theorem2": [8]},
}

# table: the conjecture table and both theorem sweeps, as CSV.
TABLE = {
    "full": {"conjecture": (7, 12, 3, 6), "sweep": (4, 12)},
    "tiny": {"conjecture": (5, 6, 3, 4), "sweep": (4, 6)},
}

# Warm-up argv per workload, run once in every set-up.
WARMUP = {
    "prove": ["exact", "--n", "7", "--k", "5", "--l", "2"],
    "certify": ["construct", "--theorem", "2", "--n", "12"],
    "table": ["conjecture", "--n-min", "7", "--n-max", "7", "--k-min", "5", "--k-max", "6"],
}


class SetupError(RuntimeError):
    """The benchmark cannot start; it prints no result."""


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    proven: int = 0
    gap: int = 0


@dataclass
class Item:
    label: str
    argv: list[str]
    check: Callable[[Optional[int], str], Verdict]
    # Maps output to the part that must repeat byte for byte across passes.
    stable: Callable[[str], str] = lambda out: out


# ---- the benchmark's own mask arithmetic ---------------------------------

def _masks(n: int, size: int):
    for combo in itertools.combinations(range(n), size):
        m = 0
        for i in combo:
            m |= 1 << i
        yield m


def _to_mask(elements, n: int) -> int:
    m = 0
    for e in elements:
        if not (isinstance(e, int) and 1 <= e <= n):
            raise ValueError(f"element {e!r} outside [1, {n}]")
        m |= 1 << (e - 1)
    return m


def _undominated(level: str, mask: int, uppers: set, lowers: set) -> bool:
    if level == "upper":
        return mask not in uppers and not any(b & mask == b for b in lowers)
    return mask not in lowers and not any(mask & u == mask for u in uppers)


def _split_members(members: list, n: int, k: int, l: int):
    uppers, lowers = set(), set()
    for m in members:
        mask = _to_mask(m["elements"], n)
        want = k if m["level"] == "upper" else l
        if m["level"] not in ("upper", "lower") or mask.bit_count() != want:
            raise ValueError(f"bad member {m}")
        (uppers if m["level"] == "upper" else lowers).add(mask)
    return uppers, lowers


def dominates(n: int, k: int, l: int, uppers: set, lowers: set) -> bool:
    """Whether the family dominates G_{k,l}, by proof or by search.

    Upper vertices: if the lower members are pairs covering [n] and there
    are fewer than k of them, every k-set contains one (a set containing no
    member pair takes at most one element per pair).  Otherwise search for
    a k-set that contains no lower member and is not an upper member.
    """
    if any(_undominated("lower", m, uppers, lowers) for m in _masks(n, l)):
        return False
    union = 0
    for b in lowers:
        union |= b
    if l == 2 and union == (1 << n) - 1 and len(lowers) < k:
        return True
    return _undominated_upper(n, k, uppers, lowers) is None


def _undominated_upper(n: int, k: int, uppers: set, lowers: set, limit: int = 1_000_000):
    """Depth-first search over sets that contain no lower member."""
    nodes = 0

    def rec(i: int, mask: int, size: int):
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            raise ValueError(f"undominated-vertex search passed {limit} nodes")
        if size == k:
            return None if mask in uppers else mask
        if n - i < k - size:
            return None
        grown = mask | 1 << i
        if not any(b & grown == b for b in lowers):
            found = rec(i + 1, grown, size + 1)
            if found is not None:
                return found
        return rec(i + 1, mask, size)

    return rec(0, 0, 0)


def counting_lower_bound(n: int, k: int, l: int) -> int:
    """The two-constraint counting bound on gamma(G_{k,l})."""
    lowers, uppers = comb(n, l), comb(n, k)
    cov_low, cov_up = comb(k, l), comb(n - l, k - l)
    best = lowers + uppers
    for a in range(-(-lowers // cov_low) + 1):
        b = max(0, lowers - a * cov_low, -(-(uppers - a) // cov_up))
        best = min(best, a + b)
    return best


def main_term(n: int, k: int) -> float:
    return (k + 3) * n * n / (2 * (k - 1) * (k + 1))


# ---- prove ----------------------------------------------------------------

def _without_elapsed(out: str) -> str:
    report = json.loads(out)
    report.pop("elapsed_seconds", None)
    return json.dumps(report, sort_keys=True)


def _check_exact(n: int, k: int, l: int):
    def check(rc, out) -> Verdict:
        v = Verdict()
        p = v.problems
        try:
            r = json.loads(out)
            w = r["witness"]
            uppers, lowers = _split_members(w["members"], n, k, l)
            graphs = {(r["n"], r["k"], r["l"]), (w["n"], w["k"], w["l"])}
            value, lb, proven = r["value"], r["lower_bound"], r["proven_optimal"]
        except (ValueError, KeyError, TypeError) as exc:
            p.append(f"unreadable report: {exc}")
            return v
        if graphs != {(n, k, l)}:
            p.append("report is for another graph")
        if len(uppers) + len(lowers) != value or len(w["members"]) != value:
            p.append(f"witness size {len(w['members'])} != value {value}")
        if not dominates(n, k, l, uppers, lowers):
            p.append("witness does not dominate")
        if not lb <= value:
            p.append(f"lower bound {lb} > value {value}")
        if proven and lb != value:
            p.append(f"proven but lower bound {lb} != value {value}")
        if rc != (0 if proven else 3):
            p.append(f"exit {rc} with proven={proven}")
        if proven and FROZEN_GAMMA.get((n, k, l), value) != value:
            p.append(f"gamma {value} != frozen {FROZEN_GAMMA[n, k, l]}")
        v.proven = int(proven)
        v.gap = value - (value if proven else lb)
        return v

    return check


def prove_items(rng, size: str, workdir: str, run) -> list[Item]:
    cfg = PROVE[size]
    grid = list(cfg["grid"])
    rng.shuffle(grid)
    return [
        Item(
            f"exact({n},{k},2)",
            ["exact", "--n", str(n), "--k", str(k), "--l", "2", "--node-budget", str(cfg["budget"])],
            _check_exact(n, k, 2),
            stable=_without_elapsed,
        )
        for n, k in grid
    ]


# ---- certify --------------------------------------------------------------

_WITNESS = re.compile(r"not dominating; undominated vertex: (upper|lower) \[([0-9, ]*)\]\n")


def _check_verified(n: int, k: int, size: int):
    def check(rc, out) -> Verdict:
        v = Verdict()
        if rc != 0 or out != "verified\n":
            v.problems.append(f"expected exit 0 and 'verified', got exit {rc}: {out.strip()!r}")
            return v
        v.proven = 1
        v.gap = size - counting_lower_bound(n, k, 2)
        return v

    return check


def _check_refuted(n: int, k: int, uppers: set, lowers: set):
    def check(rc, out) -> Verdict:
        v = Verdict()
        m = _WITNESS.fullmatch(out)
        if rc != 1 or m is None:
            v.problems.append(f"expected exit 1 with a witness, got exit {rc}: {out.strip()!r}")
            return v
        level = m.group(1)
        elements = [int(e) for e in m.group(2).split(",") if e.strip()]
        mask = _to_mask(elements, n)
        if mask.bit_count() != (k if level == "upper" else 2):
            v.problems.append(f"witness {level} {elements} has the wrong size")
        elif not _undominated(level, mask, uppers, lowers):
            v.problems.append(f"witness {level} {elements} is dominated")
        else:
            v.proven = 1
        return v

    return check


def _construct(run, workdir: str, argv: list[str], name: str) -> dict:
    path = os.path.join(workdir, name)
    rc, _ = run(argv + ["-o", path])
    if rc != 0:
        raise SetupError(f"set-up: {' '.join(argv)} exited {rc}")
    with open(path) as fh:
        return json.load(fh)


def certify_items(rng, size: str, workdir: str, run) -> list[Item]:
    """Certificate files from ``cubedom construct``, seeded and re-checked here.

    The seed shuffles every file's member order and picks the pair removed
    from each broken certificate.  Only pairs from the lower half of [n]
    are candidates: the verifier's colex scan meets the witness later the
    higher the removed pair, up to 3x later for the last pair, which would
    turn the seed into run-to-run spread.
    """
    cfg = CERTIFY[size]
    items = []

    def add(label, cert, argv_extra, expect_dominating):
        n, k = cert["n"], cert["k"]
        rng.shuffle(cert["members"])
        uppers, lowers = _split_members(cert["members"], n, k, 2)
        if dominates(n, k, 2, uppers, lowers) != expect_dominating:
            raise SetupError(f"set-up: {label} is not what it should be")
        path = os.path.join(workdir, f"{label}.json")
        with open(path, "w") as fh:
            json.dump(cert, fh, indent=2)
        if expect_dominating:
            check = _check_verified(n, k, len(cert["members"]))
        else:
            check = _check_refuted(n, k, uppers, lowers)
        items.append(Item(label, ["verify", "--cert", path] + argv_extra, check))

    def theorem1(n, k, name):
        argv = ["construct", "--theorem", "1", "--n", str(n), "--k", str(k)]
        return _construct(run, workdir, argv, name)

    for n, k in cfg["enum"]:
        add(f"enum_t1_{n}_{k}", theorem1(n, k, f"src_{n}_{k}.json"), [], True)
    for n, k in cfg["broken"]:
        if n % 2 or k != n // 2 + 1:
            raise SetupError(f"broken certificates need even n and k = n/2+1, got ({n},{k})")
        cert = theorem1(n, k, f"src_{n}_{k}.json")
        pairs = [m for m in cert["members"] if m["level"] == "lower"]
        removed = rng.choice(sorted(pairs, key=lambda m: m["elements"])[: len(pairs) // 2])
        cert["members"].remove(removed)
        cert["provenance"] = "external"
        add(f"broken_t1_{n}_{k}", cert, [], False)
    for n, k in cfg["structural"]:
        add(f"structural_t1_{n}_{k}", theorem1(n, k, f"src_{n}_{k}.json"), ["--structural"], True)
    for n in cfg["theorem2"]:
        argv = ["construct", "--theorem", "2", "--n", str(n)]
        add(f"enum_t2_{n}", _construct(run, workdir, argv, f"src_t2_{n}.json"), [], True)
    rng.shuffle(items)
    return items


# ---- table ----------------------------------------------------------------

def _parse_csv(out: str) -> list[dict]:
    lines = out.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise ValueError("bad CSV header or trailing line")
    names = CSV_HEADER.split(",")
    rows = []
    for line in lines[1:-1]:
        cells = line.split(",")
        if len(cells) != len(names):
            raise ValueError(f"bad CSV row {line!r}")
        row = dict(zip(names, cells))
        for key in ("n", "k", "gamma_exact", "greedy_value", "construction_size", "lower_bound"):
            row[key] = int(row[key]) if row[key] else None
        if row["proven"] not in ("true", "false"):
            raise ValueError(f"bad proven cell in {line!r}")
        row["proven"] = row["proven"] == "true"
        term = row["conjecture_main_term"]
        row["conjecture_main_term"] = float(term) if term else None
        rows.append(row)
    return rows


def _check_rows(kind: str, expected: list[tuple[int, int]]):
    def check(rc, out) -> Verdict:
        v = Verdict()
        p = v.problems
        try:
            rows = _parse_csv(out)
        except ValueError as exc:
            p.append(f"unreadable CSV: {exc}")
            return v
        if rc != 0:
            p.append(f"exit {rc}")
        if [(r["n"], r["k"]) for r in rows] != expected:
            p.append("rows are not the expected (n, k) list")
        for r in rows:
            n, k, g, lb = r["n"], r["k"], r["gamma_exact"], r["lower_bound"]
            upper = g if g is not None else r["greedy_value"]
            where = f"{kind} ({n},{k})"
            if r["proven"] != (g is not None):
                p.append(f"{where}: proven flag disagrees with gamma_exact")
            if lb is None or (upper is not None and lb > upper):
                p.append(f"{where}: lower bound {lb} above upper bound {upper}")
            if g is not None and r["greedy_value"] is not None and g > r["greedy_value"]:
                p.append(f"{where}: gamma {g} above greedy {r['greedy_value']}")
            if g is not None and FROZEN_GAMMA.get((n, k, 2), g) != g:
                p.append(f"{where}: gamma {g} != frozen {FROZEN_GAMMA[n, k, 2]}")
            if r["conjecture_main_term"] != (main_term(n, k) if k >= 3 else None):
                p.append(f"{where}: wrong main term")
            size = r["construction_size"]
            bound = ceil(n / 2) + 6
            if kind == "conjecture":
                if r["proven"] and g != lb:
                    p.append(f"{where}: proven but lower bound {lb} != gamma {g}")
                if (size is not None) != (k > ceil(n / 2)) or (size or 0) > bound:
                    p.append(f"{where}: construction size {size}")
            elif kind == "theorem1":
                if size is None or size > bound or (g is not None and g > size):
                    p.append(f"{where}: construction size {size} vs bound {bound}")
            elif size != 3 or g != 3:
                p.append(f"{where}: theorem 2 needs size 3 and gamma 3, got {size}, {g}")
            v.proven += r["proven"]
            if upper is not None:
                v.gap += upper - (g if r["proven"] else lb)
        return v

    return check


def table_items(rng, size: str, workdir: str, run) -> list[Item]:
    """The conjecture table runs as one call per n, which yields the same
    rows: the host-speed reference taken between calls then brackets at
    most one n's rows instead of the whole 3.5-second table."""
    cfg = TABLE[size]
    n_min, n_max, k_min, k_max = cfg["conjecture"]
    s_min, s_max = cfg["sweep"]
    ns = range(s_min, s_max + 1)
    t1 = [(n, k) for n in ns for k in range(ceil(n / 2) + 1, n)]
    t2 = [(n, n - 1) for n in ns]
    span = ["--n-min", str(s_min), "--n-max", str(s_max), "--format", "csv"]
    items = [
        Item(
            f"conjecture_n{n}",
            ["conjecture", "--n-min", str(n), "--n-max", str(n),
             "--k-min", str(k_min), "--k-max", str(k_max), "--format", "csv"],
            _check_rows("conjecture", [(n, k) for k in range(k_min, k_max + 1) if k < n]),
        )
        for n in range(n_min, n_max + 1)
    ]
    return items + [
        Item("sweep_t1", ["sweep", "--theorem", "1"] + span, _check_rows("theorem1", t1)),
        Item("sweep_t2", ["sweep", "--theorem", "2"] + span, _check_rows("theorem2", t2)),
    ]


ITEMS = {"prove": prove_items, "certify": certify_items, "table": table_items}

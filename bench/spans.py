"""Spans and counters recorded around calls into cubedom's public functions.

The package imports by name (``from .solver import greedy_dominate``), so
a call is intercepted by replacing the name in the module that *consumes*
it: ``cubedom.solver.materialize``, not ``cubedom.levelgraph.materialize``.
Each patch below lists its consumer modules.  A name a consumer no longer
imports is skipped, so the metrics built on it read 0.

Spans are kept in memory while a pass runs and written out when the
benchmark ends.  Generators (subset enumeration) and the per-edge ``rank``
calls are counted, not timed: a span around a generator would measure its
consumer, and a span per rank call would cost more than the call.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter, defaultdict
from math import comb

# (consumer modules, function name, span name)
SPANS = [
    (("cli", "experiments"), "branch_and_bound_gamma", "solver.branch_and_bound_gamma"),
    (("cli", "experiments", "solver"), "greedy_dominate", "solver.greedy_dominate"),
    (("experiments", "solver"), "counting_lower_bound", "solver.counting_lower_bound"),
    (("solver",), "materialize", "levelgraph.materialize"),
    (("cli", "experiments", "solver"), "verify_certificate", "constructions.verify_certificate"),
    (("cli", "experiments"), "verify_theorem1_structural", "constructions.verify_theorem1_structural"),
    (("cli", "experiments"), "theorem1_construct", "constructions.theorem1_construct"),
    (("cli", "experiments"), "theorem2_construct", "constructions.theorem2_construct"),
    (("cli",), "load_certificate", "constructions.load_certificate"),
    (("cli",), "run_conjecture_table", "experiments.run_conjecture_table"),
    (("cli",), "run_theorem1_sweep", "experiments.run_theorem1_sweep"),
    (("cli",), "run_theorem2_sweep", "experiments.run_theorem2_sweep"),
    (("cli",), "rows_to_csv", "experiments.rows_to_csv"),
    (("cli",), "rows_to_json", "experiments.rows_to_json"),
]

# (consumer modules, function name, counter name, counts items yielded?)
COUNTERS = [
    (("levelgraph", "constructions"), "enumerate_k_subsets", "subsets.enumerated", True),
    (("levelgraph",), "rank", "subsets.rank_calls", False),
]

CLI_SPAN = "cli.main"


def _spec_key(spec) -> tuple:
    return (spec.n, spec.k, spec.l)


def _annotate_solve(args, report) -> dict:
    return {
        "spec": _spec_key(report.spec),
        "nodes": report.nodes_explored,
        "proven": report.proven_optimal,
    }


def _annotate_spec_arg(args, result) -> dict:
    return {"spec": _spec_key(args[0])}


def _annotate_verify(args, result) -> dict:
    spec = args[0].spec
    # Vertices a full scan visits, computed from the level sizes.
    return {
        "verified": result.verified,
        "checks": comb(spec.n, spec.k) + comb(spec.n, spec.l),
    }


ANNOTATE = {
    "solver.branch_and_bound_gamma": _annotate_solve,
    "solver.greedy_dominate": _annotate_solve,
    "levelgraph.materialize": _annotate_spec_arg,
    "constructions.verify_certificate": _annotate_verify,
}


class Tracer:
    """Records spans (name, start, end, parent) and per-item counters."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.item = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def begin(self, name: str, **attrs) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "item": self.item,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
        }
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def end(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self._stack.pop()

    def _span(self, name, fn):
        annotate = ANNOTATE.get(name)

        def wrapper(*args, **kwargs):
            rec = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if annotate is not None:
                rec.update(annotate(args, result))
            return result

        return wrapper

    def _count_calls(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[self.item, name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_items(self, name, fn):
        def wrapper(*args, **kwargs):
            key = (self.item, name)
            n = 0
            try:
                for x in fn(*args, **kwargs):
                    n += 1
                    yield x
            finally:
                self.counts[key] += n

        return wrapper

    def install(self) -> None:
        """Patch every consumer module; undone by ``uninstall``."""
        for consumers, attr, name in SPANS:
            self._patch(consumers, attr, lambda fn, name=name: self._span(name, fn))
        for consumers, attr, name, items in COUNTERS:
            wrap = self._count_items if items else self._count_calls
            self._patch(consumers, attr, lambda fn, name=name, wrap=wrap: wrap(name, fn))

    def _patch(self, consumers, attr, make) -> None:
        for short in consumers:
            module = importlib.import_module("cubedom." + short)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._patches.append((module, attr, original))
            setattr(module, attr, make(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _per_spec(spans: list[dict]) -> float:
    """Calls divided by the distinct (item, spec) pairs they were made for."""
    specs = {(s["item"], s["spec"]) for s in spans}
    return len(spans) / len(specs) if specs else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], counts: Counter, output_bytes: int, wall: float) -> dict:
    """Per-layer metrics of one traced pass."""
    selfs = self_times(spans)
    by_name: dict[str, list[tuple[dict, float]]] = defaultdict(list)
    for s, t in zip(spans, selfs):
        by_name[s["name"]].append((s, t))

    def self_s(name: str) -> float:
        return sum(t for _, t in by_name[name])

    def calls(name: str) -> list[dict]:
        return [s for s, _ in by_name[name]]

    bnb = calls("solver.branch_and_bound_gamma")
    bnb_s = self_s("solver.branch_and_bound_gamma")
    nodes = sum(s["nodes"] for s in bnb)
    verify = by_name["constructions.verify_certificate"]
    verify_pass_s = sum(t for s, t in verify if s["verified"])
    verify_fail_s = sum(t for s, t in verify if not s["verified"])
    checks = sum(s["checks"] for s, _ in verify if s["verified"])
    verify_s = verify_pass_s + verify_fail_s
    materialize_s = self_s("levelgraph.materialize")
    totals = Counter()
    for (_, name), n in counts.items():
        totals[name] += n
    return {
        "solver.bnb_self_s": bnb_s,
        "solver.nodes": nodes,
        "solver.nodes_per_s": _ratio(nodes, bnb_s),
        "solver.proven_ratio": _ratio(sum(1 for s in bnb if s["proven"]), len(bnb)),
        "solver.greedy_s": self_s("solver.greedy_dominate"),
        "solver.greedy_per_spec": _per_spec(calls("solver.greedy_dominate")),
        "solver.lower_bound_s": self_s("solver.counting_lower_bound"),
        "solver.bnb_share": _ratio(bnb_s, wall),
        "levelgraph.materialize_s": materialize_s,
        "levelgraph.materialize_calls": len(calls("levelgraph.materialize")),
        "levelgraph.materialize_per_spec": _per_spec(calls("levelgraph.materialize")),
        "levelgraph.materialize_share": _ratio(materialize_s, wall),
        "constructions.verify_s": verify_s,
        "constructions.verify_pass_s": verify_pass_s,
        "constructions.verify_fail_s": verify_fail_s,
        "constructions.checks_per_s": _ratio(checks, verify_pass_s),
        "constructions.verify_share": _ratio(verify_s, wall),
        "constructions.structural_s": self_s("constructions.verify_theorem1_structural"),
        "constructions.construct_s": self_s("constructions.theorem1_construct")
        + self_s("constructions.theorem2_construct"),
        "constructions.load_s": self_s("constructions.load_certificate"),
        "subsets.enumerated": totals["subsets.enumerated"],
        "subsets.rank_calls": totals["subsets.rank_calls"],
        "experiments.self_s": sum(
            t for name, pairs in by_name.items() if name.startswith("experiments.")
            for _, t in pairs
        ),
        "cli.self_s": self_s(CLI_SPAN),
        "cli.output_bytes": output_bytes,
    }


def item_breakdown(spans: list[dict], counts: Counter) -> dict:
    """Per item: B&B nodes, and materialize/greedy calls per distinct spec."""
    out: dict = {}
    for s in spans:
        row = out.setdefault(s["item"], Counter())
        if s["name"] == "solver.branch_and_bound_gamma":
            row["bnb_nodes"] += s["nodes"]
            row["bnb_proven"] += s["proven"]
        elif s["name"] == "levelgraph.materialize":
            row["materialize_calls"] += 1
        elif s["name"] == "solver.greedy_dominate":
            row["greedy_calls"] += 1
    for item, row in out.items():
        specs = {s["spec"] for s in spans if s["item"] == item and "spec" in s}
        if specs:
            row["specs"] = len(specs)
        for (it, name), n in counts.items():
            if it == item:
                row[name] = n
    return {item: dict(row) for item, row in out.items()}


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric over traced passes; counts stay whole numbers."""
    out = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        whole = all(isinstance(v, int) for v in values)
        out[name] = (statistics.median_low if whole else statistics.median)(values)
    return out

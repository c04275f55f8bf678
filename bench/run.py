#!/usr/bin/env python3
"""Benchmark of cubedom: three closed-loop workloads through ``cubedom.cli.main``.

    python3 bench/run.py --workload {prove,certify,table} --seed N --seconds S --trace {0,1}

One caller, one thread: each item starts when the previous one returns.
The item list is run in as many whole passes as fit in ``--seconds`` (at
least three untraced passes, or two untraced and two traced ones), each
after a fresh set-up, and every output of every pass is checked.
``wall_s`` sums each item's median normalized time (see REF_SECONDS) over
the passes; ``setup_s`` is the median normalized set-up time.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate, the per-layer
metrics come from the traced ones, and the spans are written to
``.bench_out/``.  Metric names and units are declared in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time

from spans import CLI_SPAN, Tracer, item_breakdown, layer_metrics, median_metrics
from workloads import ITEMS, WARMUP, SetupError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# wall_s and setup_s are host-speed normalized: each timed step is divided
# by the mean time of the ``reference`` loop run just before and just after
# it, and multiplied by REF_SECONDS, that loop's time on an idle 2-core VM
# with Python 3.11.  On a shared host raw times drift 20-30% between runs
# while the normalized ones stay within about 10%; raw times are printed too.
REF_SECONDS = 0.015


def import_cli():
    """Import cubedom.cli from this checkout's src/, afresh."""
    for name in [m for m in sys.modules if m == "cubedom" or m.startswith("cubedom.")]:
        del sys.modules[name]
    cli = importlib.import_module("cubedom.cli")
    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "cubedom"):
        raise SetupError(f"imported {cli.__file__}, not the package under {SRC}")
    return cli


def run_cli(cli, argv: list[str]) -> tuple:
    """Exit code and captured stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


def set_up(workload: str, seed: int, size: str) -> tuple:
    """Import, generate inputs from the seed, warm up; returns (seconds, cli, items, dir)."""
    start = time.perf_counter()
    cli = import_cli()
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    try:
        run = lambda argv: run_cli(cli, argv)  # noqa: E731
        items = ITEMS[workload](random.Random(seed), size, workdir, run)
        rc, _ = run(WARMUP[workload])
        if rc != 0:
            raise SetupError(f"warm-up {' '.join(WARMUP[workload])} exited {rc}")
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    return time.perf_counter() - start, cli, items, workdir


def reference() -> float:
    """Seconds for a fixed pure-Python loop: the host's momentary speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - start


def normalized(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * REF_SECONDS * 2 / (ref_before + ref_after)


def run_pass(cli, items, tracer, ref: float) -> list[dict]:
    """Run every item once; ``ref`` is a reference time taken just before."""
    results = []
    for item in items:
        rec = None
        if tracer is not None:
            tracer.item = item.label
            rec = tracer.begin(CLI_SPAN)
        start = time.perf_counter()
        error = None
        try:
            rc, out = run_cli(cli, item.argv)
        except Exception as exc:  # a traceback is a failed item, not a dead run
            rc, out, error = None, "", f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if rec is not None:
            tracer.end(rec)
        ref_after = reference()
        results.append({"rc": rc, "out": out, "error": error, "seconds": seconds,
                        "norm": normalized(seconds, ref, ref_after)})
        ref = ref_after
    return results


def check_pass(items, results, first) -> list:
    """Check each output; ``first`` holds the first pass's stable outputs."""
    verdicts = []
    for i, (item, res) in enumerate(zip(items, results)):
        if res["error"] is not None:
            verdicts.append(([res["error"]], 0, 0))
            continue
        try:
            v = item.check(res["rc"], res["out"])
            problems, stable = list(v.problems), item.stable(res["out"])
        except (ValueError, KeyError, TypeError) as exc:
            verdicts.append(([f"check raised {type(exc).__name__}: {exc}"], 0, 0))
            continue
        if len(first) <= i:
            first.append(stable)
        elif stable != first[i]:
            problems.append("output differs from the first pass")
        verdicts.append((problems, v.proven, v.gap))
    return verdicts


def fingerprint() -> dict:
    sha = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    with contextlib.suppress(OSError):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                ref = fh.read().strip()
        sha = ref
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count()}


def item_total(passes: list[list[dict]], key: str, pick=statistics.median) -> float:
    """Sum over items of ``pick`` of the item's ``key`` time over passes."""
    return sum(pick([p[i][key] for p in passes]) for i in range(len(passes[0])))


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    setups, raw_setups = [], []
    workdir = None
    plain, traced, traced_metrics, tracers = [], [], [], []
    first_outputs: list = []
    attempted = failed = 0
    proven = gap = None
    problems_seen: list[str] = []
    deadline = time.perf_counter() + seconds
    try:
        while True:
            # A fresh set-up before every pass spreads the set-up samples
            # over the run, like the pass samples.
            if workdir is not None:
                shutil.rmtree(workdir)
                workdir = None
            ref_before = reference()
            secs, cli, items, workdir = set_up(workload, seed, size)
            ref = reference()
            raw_setups.append(secs)
            setups.append(normalized(secs, ref_before, ref))
            tracer = Tracer() if trace and len(plain) > len(traced) else None
            if tracer is not None:
                tracer.install()
            pass_start = time.perf_counter()
            try:
                results = run_pass(cli, items, tracer, ref)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            pass_seconds = time.perf_counter() - pass_start
            verdicts = check_pass(items, results, first_outputs)
            for item, (problems, _, _) in zip(items, verdicts):
                attempted += 1
                if problems:
                    failed += 1
                    problems_seen.extend(f"{item.label}: {p}" for p in problems)
            if proven is None:
                proven = sum(v[1] for v in verdicts)
                gap = sum(v[2] for v in verdicts)
            if tracer is None:
                plain.append(results)
            else:
                traced.append(results)
                tracers.append(tracer)
                out_bytes = sum(len(r["out"].encode()) for r in results)
                item_seconds = sum(r["seconds"] for r in results)
                traced_metrics.append(
                    layer_metrics(tracer.spans, tracer.counts, out_bytes, item_seconds)
                )
            enough = len(plain) >= (MIN_TRACED_PASSES if trace else MIN_PASSES)
            enough = enough and len(traced) >= (MIN_TRACED_PASSES if trace else 0)
            if enough and time.perf_counter() + secs + pass_seconds > deadline:
                break
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    wall = item_total(plain, "norm")
    summary = {
        "workload": workload,
        "seed": seed,
        "items": [item.label for item in items],
        "passes": len(plain),
        "setups": len(setups),
        "traced_passes": len(traced),
        "attempted": attempted,
        "failed": failed,
        "problems": problems_seen,
        "raw": {
            "wall_s": item_total(plain, "seconds"),
            "wall_best_s": item_total(plain, "seconds", min),
            "setup_s": statistics.median(raw_setups),
        },
        "end_to_end": {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "proven_count": proven,
            "gap_sum": gap,
            "fail_ratio": failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }
    if trace:
        layers = median_metrics(traced_metrics)
        layers["trace.overhead_s"] = item_total(traced, "norm") - wall
        summary["per_layer"] = layers
        summary["breakdown"] = item_breakdown(tracers[-1].spans, tracers[-1].counts)
        summary["spans"] = [t.spans for t in tracers]
    return summary


def declared_metrics(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def report(summary: dict, trace: bool) -> dict:
    e2e = summary["end_to_end"]
    print(f"# cubedom benchmark  workload={summary['workload']} seed={summary['seed']} "
          f"passes={summary['passes']} traced_passes={summary['traced_passes']}")
    print(f"# environment {json.dumps(fingerprint())}")
    print(f"# items {' '.join(summary['items'])}")
    for problem in summary["problems"]:
        print(f"# FAILED {problem}")
    print(f"# fail_ratio {e2e['fail_ratio']} ratio ({summary['failed']}/{summary['attempted']})")
    raw = summary["raw"]
    print(f"# raw (not normalized) wall_s {raw['wall_s']} s, best-of-passes {raw['wall_best_s']} s, "
          f"setup_s {raw['setup_s']} s; {summary['passes']} passes, {summary['setups']} set-ups")
    values = summary["per_layer"] if trace else e2e
    metrics = {}
    for m in declared_metrics(trace):
        if m["name"] not in values:
            raise KeyError(f"metric {m['name']} declared in BENCHMARK.json is not computed")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"# {m['name']} {values[m['name']]} {m['unit']}")
    if trace:
        for item, row in summary["breakdown"].items():
            line = " ".join(f"{k}={v}" for k, v in sorted(row.items()))
            if row.get("specs"):
                line += (f" materialize_per_spec={row.get('materialize_calls', 0) / row['specs']:g}"
                         f" greedy_per_spec={row.get('greedy_calls', 0) / row['specs']:g}")
            print(f"# item {item}: {line}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(ITEMS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", choices=("full", "tiny"), default="full",
                        help="tiny item lists, for the self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cubedom", "cli.py")):
        print(f"bench: no cubedom package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace = bool(args.trace)
    try:
        summary = measure(args.workload, args.seed, args.seconds, trace, args.items)
    except SetupError as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 2
    metrics = report(summary, trace)
    if trace:
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"environment": fingerprint(), **summary}, fh)
        print(f"# spans written to {os.path.relpath(path, ROOT)}")
    correct = summary["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

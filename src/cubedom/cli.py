"""Command-line front end.

Exit codes: 0 success/verified, 1 verification or theorem check failed,
2 invalid input, 3 cap or budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .constructions import (
    dump_certificate,
    load_certificate,
    theorem1_construct,
    theorem2_construct,
    verify_certificate,
)
from .errors import CheckFailedError, InvalidParametersError, TooLargeError
from .levelgraph import LevelGraphSpec, graph_stats, materialize
from .subsets import elements


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_stats(args) -> int:
    stats = graph_stats(LevelGraphSpec(args.n, args.k, args.l))
    print(json.dumps(stats, indent=2))
    return 0


def _cmd_construct(args) -> int:
    if args.theorem == 1:
        if args.k is None:
            raise InvalidParametersError("--k is required for theorem 1")
        cert = theorem1_construct(args.n, args.k)
    else:
        if args.k is not None and args.k != args.n - 1:
            raise InvalidParametersError(
                f"theorem 2 needs k = n-1 = {args.n - 1}, got --k {args.k}"
            )
        cert = theorem2_construct(args.n)
    _emit(dump_certificate(cert) + "\n", args.output)
    return 0


def _cmd_verify(args) -> int:
    with open(args.cert, "rb") as fh:
        cert = load_certificate(fh.read())
    if args.structural and cert.spec.l != 2:
        raise InvalidParametersError(f"structural verification needs l = 2, got l = {cert.spec.l}")
    result = verify_certificate(cert)
    if result.verified:
        print("verified")
        return 0
    witness = result.witness
    level = "upper" if witness.bit_count() == cert.spec.k else "lower"
    print(f"not dominating; undominated vertex: {level} {list(elements(witness))}")
    return 1


# The solving commands import cubedom.solver when they run, so the other
# commands never load it.
def _cmd_exact(args) -> int:
    from .solver import DEFAULT_NODE_BUDGET, branch_and_bound_gamma, greedy_dominate

    budget = DEFAULT_NODE_BUDGET if args.node_budget is None else args.node_budget
    spec = LevelGraphSpec(args.n, args.k, args.l)
    # Checked before the graph is built, so a bad budget exits 2 at any size.
    if budget < 1:
        raise InvalidParametersError(f"node budget must be at least 1, got {budget}")
    graph = materialize(spec)
    report = branch_and_bound_gamma(graph, greedy_dominate(graph), budget)
    _emit(json.dumps(report.to_json(), indent=2) + "\n", args.output)
    return 0 if report.proven_optimal else 3


def _cmd_greedy(args) -> int:
    from .solver import greedy_dominate

    report = greedy_dominate(materialize(LevelGraphSpec(args.n, args.k, args.l)))
    _emit(json.dumps(report.to_json(), indent=2) + "\n", args.output)
    return 0


# The table commands import cubedom.experiments when they run, so the
# other commands never load it.
def _emit_rows(rows, args) -> None:
    from .experiments import rows_to_csv, rows_to_json

    text = rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows)
    _emit(text, args.output)


def _cmd_sweep(args) -> int:
    from .experiments import run_theorem1_sweep, run_theorem2_sweep

    run = run_theorem1_sweep if args.theorem == 1 else run_theorem2_sweep
    _emit_rows(run(args.n_min, args.n_max), args)
    return 0


def _cmd_gk1(args) -> int:
    from .experiments import run_gk1_check

    _emit_rows(run_gk1_check(args.n_max), args)
    return 0


def _cmd_conjecture(args) -> int:
    from .experiments import run_conjecture_table

    rows = run_conjecture_table(args.n_min, args.n_max, args.k_min, args.k_max)
    _emit_rows(rows, args)
    return 0


def _add_spec_args(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)


def _add_output_args(p) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")


# One parser per process: main() may be called many times in-process, and
# each build costs about a millisecond and leaves cyclic garbage behind.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubedom",
        description="Dominating sets of the bipartite graph on two levels of the n-cube.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="vertex/edge counts and degrees")
    _add_spec_args(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("construct", help="build a dominating-set certificate")
    p.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="verify a certificate file")
    p.add_argument("--cert", required=True)
    p.add_argument("--structural", action="store_true",
                   help="refuse a certificate with l != 2 (every l is checked structurally anyway)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("exact", help="exact domination number via branch and bound")
    _add_spec_args(p)
    # None stands for the solver's DEFAULT_NODE_BUDGET, read when exact runs.
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("greedy", help="greedy upper bound")
    _add_spec_args(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser("sweep", help="theorem sweeps over a range of n")
    p.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    _add_output_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gk1-check", help="confirm gamma(G_{k,1}) = n-k+1")
    p.add_argument("--n-max", type=int, required=True)
    _add_output_args(p)
    p.set_defaults(func=_cmd_gk1)

    p = sub.add_parser("conjecture", help="main-term table next to solver bounds")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    _add_output_args(p)
    p.set_defaults(func=_cmd_conjecture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidParametersError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailedError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

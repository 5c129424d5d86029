"""Command-line front end.

Every subcommand prints one machine-readable payload on stdout (JSON by
default) and keeps diagnostics on stderr.  Exit codes: 0 success, 2 domain
error (bad flags or inputs, or a file that cannot be read or written), 3
resource error (enumeration budget exceeded).
GRIDCODES_BUDGET overrides the enumeration budget (10**7), which also caps
the rows of ``bounds --sweep``, and the exact search's node budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import balls, bounds, codes, cyclic
from .errors import BudgetError, DomainError, check_budget
from .grid import DEFAULT_BUDGET, BallSpec, Grid, enumerate_ball, integer, parse_point

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_RESOURCE = 3


def _budget(default: int = DEFAULT_BUDGET) -> int:
    raw = os.environ.get("GRIDCODES_BUDGET")
    if raw is None:
        return default
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        raise DomainError(f"GRIDCODES_BUDGET must be a positive integer, got {raw!r}")
    return value


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        for key, value in sorted(payload.items()):
            sys.stdout.write(f"{key}: {json.dumps(value, sort_keys=True)}\n")


def _add_format(parser) -> None:
    parser.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="payload format on stdout (default json)",
    )


def cmd_ball_size(args) -> int:
    grid = Grid.parse(args.grid)
    if args.kind == "eta":
        report = balls.eta(grid, args.radius)
    elif args.kind == "gamma":
        report = balls.gamma(grid, args.radius)
    else:
        if args.center is None:
            raise DomainError("--center is required with --kind at")
        report = balls.ball_size_at(grid, parse_point(args.center), args.radius)
    payload = report.to_json_dict()
    if args.verify:
        # The first points of outermost_set or innermost_set (2^n points each).
        if args.kind == "at":
            center = report.center
        elif args.kind == "eta":
            center = (0,) * grid.n
        else:
            center = tuple((m - 1) // 2 for m in grid.dims)
        ball = BallSpec(center, args.radius)
        oracle = len(enumerate_ball(grid, ball, budget=_budget()))
        payload["verified"] = oracle == report.value
        if not payload["verified"]:
            print(
                f"verification failed: enumeration gives {oracle}, "
                f"formula gives {report.value}",
                file=sys.stderr,
            )
            _emit(payload, args.format)
            return EXIT_DOMAIN
    _emit(payload, args.format)
    return EXIT_OK


def cmd_bounds(args) -> int:
    grid = Grid.parse(args.grid)
    if args.sweep is not None:
        integer(args.sweep, "--sweep", 1)
        check_budget(args.sweep, _budget(), "bounds sweep writes {} rows")
        import csv  # only the sweep writes CSV; cold processes skip the import
        writer = csv.writer(sys.stdout, lineterminator="\r\n")
        writer.writerow(["d", "gv_weak", "gv_strong", "hamming_upper"])
        for d in range(1, args.sweep + 1):
            report = bounds.bound_report(grid, d)
            writer.writerow(
                [d, report.gv_lower_weak, report.gv_lower_strong,
                 report.hamming_upper]
            )
        return EXIT_OK
    report = bounds.bound_report(grid, args.distance)
    _emit(report.to_json_dict(), args.format)
    return EXIT_OK


def cmd_analyze(args) -> int:
    try:
        code = codes.GridCode.load(args.code)
    except FileNotFoundError:
        raise DomainError(f"code file not found: {args.code}")
    except UnicodeDecodeError:
        raise DomainError(f"code file {args.code} is not UTF-8 text")
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"malformed JSON in {args.code} at line {exc.lineno}, column {exc.colno}"
        )
    radii = parse_point(args.covering) if args.covering else ()
    analysis = codes.analyze(code, requested_covering_radii=radii, budget=_budget())
    _emit(analysis.to_json_dict(), args.format)
    return EXIT_OK


def cmd_search(args) -> int:
    grid = Grid.parse(args.grid)
    if args.mode == "exact":
        budget = _budget(codes.DEFAULT_NODE_BUDGET)
        size, code = codes.exact_max_code(grid, args.distance, node_budget=budget)
    else:
        code = codes.greedy_code(grid, args.distance, budget=_budget())
        size = code.size()
    payload = {"mode": args.mode, "size": size}
    payload.update(code.to_json_dict())
    if args.output:
        code.save(args.output)
    _emit(payload, args.format)
    return EXIT_OK


def cmd_cyclic(args) -> int:
    spec = cyclic.CyclicCodeSpec(parse_point(args.orders), parse_point(args.generator))
    chain = cyclic.bound_chain(spec)
    payload = chain.to_json_dict()
    if chain.order <= args.codeword_limit:
        payload["codewords"] = [list(word) for word in cyclic.codewords(spec)]
    _emit(payload, args.format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridcodes",
        description="Exact ball sizes, packing/covering bounds, and cyclic "
        "subgroup codes for finite integer grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "ball-size",
        help="minimum, maximum, or per-center ball size "
        "(--grid takes side lengths, so the box [0,4]x[0,1] is --grid 5,2)",
    )
    p.add_argument("--grid", required=True, help="comma-separated side lengths")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--kind", choices=("eta", "gamma", "at"), required=True)
    p.add_argument("--center", help="required with --kind at")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against brute-force enumeration")
    _add_format(p)
    p.set_defaults(func=cmd_ball_size)

    p = sub.add_parser("bounds", help="packing upper and covering lower bounds")
    p.add_argument("--grid", required=True, help="comma-separated side lengths")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--distance", type=int, help="design distance d >= 1")
    which.add_argument("--sweep", type=int, metavar="DMAX",
                       help="emit a CSV table for d = 1..DMAX instead")
    _add_format(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("analyze", help="analyze a code stored as JSON")
    p.add_argument("--code", required=True, help="path to the code JSON file")
    p.add_argument("--covering", help="comma-separated radii to test covering at")
    _add_format(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("search", help="find a large code of given minimum distance")
    p.add_argument("--grid", required=True, help="comma-separated side lengths")
    p.add_argument("--distance", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "greedy"), default="greedy")
    p.add_argument("--output", help="also write the witness code to this file")
    _add_format(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("cyclic", help="parameters of a cyclic subgroup code")
    p.add_argument("--orders", required=True, help="comma-separated component orders")
    p.add_argument("--generator", required=True,
                   help="comma-separated generator exponents")
    p.add_argument("--codeword-limit", type=int, default=256,
                   help="list the codewords when the order is at most this")
    _add_format(p)
    p.set_defaults(func=cmd_cyclic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BudgetError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())

"""Criterion-5 frontier: the exact-search instances that stay open.

The instances are those of acceptance criterion 5: every grid of the seeded
test family (``tests/conftest.random_grid_family``) of volume at most 512,
for every design distance d = 1..diameter+1.  For each metric the script
runs ``exact_max_code`` at fixed node budgets, which do not depend on the
machine, and prints every instance still open with its proven interval
``lower <= A <= upper``.  Then it counts the instances open at a wall-clock
budget, which does depend on the machine and its load; the memo of solved
searches is cleared first, as in a fresh process.

    PYTHONPATH=src python3 tools/frontier.py
    PYTHONPATH=src python3 tools/frontier.py --metric lee --nodes 20000 --seconds 0.1
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import random_grid_family  # noqa: E402

from gridcodes import BudgetError, Grid, exact_max_code  # noqa: E402
from gridcodes import codes  # noqa: E402
from gridcodes.grid import METRICS  # noqa: E402


def instances() -> list[tuple[tuple[int, ...], int]]:
    """The criterion-5 instances as (dims, d), in the order the test runs them."""
    out = []
    for dims in sorted(set(random_grid_family())):
        if math.prod(dims) <= 512:
            out.extend((dims, d) for d in range(1, Grid(dims).diameter() + 2))
    return out


def open_at(cases, metric: str, **budget) -> list[tuple[tuple[int, ...], int, int, int]]:
    """The cases whose search stops at ``budget``, as (dims, d, lower, upper)."""
    stopped = []
    for dims, d in cases:
        try:
            exact_max_code(Grid(dims), d, metric=metric, **budget)
        except BudgetError as stop:
            stopped.append((dims, d, stop.lower, stop.upper))
    return stopped


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--metric", choices=METRICS, action="append")
    parser.add_argument("--nodes", type=int, nargs="*", default=[20_000, 10**5, 10**6])
    parser.add_argument("--seconds", type=float, default=0.1)
    args = parser.parse_args(argv)
    family = instances()
    print(f"{len(family)} instances")
    for metric in args.metric or METRICS:
        # Searches finished under a smaller budget are memo hits here.
        for nodes in sorted(args.nodes):
            stopped = open_at(family, metric, node_budget=nodes)
            print(f"{metric} at {nodes} nodes: {len(stopped)} open")
            for dims, d, lower, upper in stopped:
                print(f"  {dims} d={d}: {lower} <= A <= {upper}")
        codes._solved.clear()
        stopped = open_at(family, metric, time_budget=args.seconds)
        print(f"{metric} at {args.seconds} s: {len(stopped)} open", flush=True)


if __name__ == "__main__":
    main()

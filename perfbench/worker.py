"""One round of a workload in a fresh process: set up, run the fixed list of
operations one after another, then check every answer.

    python3 perfbench/worker.py --workload exact-search --seed 1 --trace 0 --t0 <monotonic>

``--t0`` is the parent's ``time.monotonic()`` just before it spawned this
process (CLOCK_MONOTONIC is shared by all processes), so set-up time counts
interpreter start and ``import gridcodes``.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()

    import gridcodes

    source = Path(gridcodes.__file__).resolve()
    if source.parent.parent != ROOT / "src":
        print(f"gridcodes was imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    import workloads
    from spans import Tracer, summarize

    workload = workloads.make(args.workload, args.seed, ROOT)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        workload.tracer = tracer
    ops = workload.operations()

    times, outputs, errors = [], [], []
    setup_s = time.monotonic() - args.t0
    begin = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            out = op()
        except Exception:
            out = None
            errors.append(f"operation {index}: {traceback.format_exc(limit=3)}")
        times.append(time.perf_counter() - start)
        outputs.append(out)
    wall_s = time.perf_counter() - begin
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-sessions" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    try:
        problems = workload.check(outputs)
    finally:
        workload.close()
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_s": times,
        "peak_rss_mb": peak_rss_mb,
        "failed": len(errors),
        "errors": errors[:5],
        "problems": problems[:20],
        "problem_count": len(problems),
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["layers"] = summarize(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

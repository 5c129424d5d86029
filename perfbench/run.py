"""The gridcodes benchmark: one workload, closed loop, single client.

    python3 perfbench/run.py --workload exact-search --seed 1 --seconds 30 --trace 0

Runs rounds of the workload's fixed list of operations, each round in a
fresh worker process (so the caches of ``gridcodes.balls`` start empty every
time).  It runs at least two rounds, and starts another only while it
expects it to end within ``--seconds``.
Every answer is checked against references made apart from the program.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics of
the traced ones, the tracing overhead, and writes the spans to
``perfbench/out/trace-<workload>-seed<seed>.jsonl``.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("cli-sessions", "bound-tables", "exact-search", "distance-scans")
MIN_ROUNDS = 2
#: No run may take longer than this, workers included.
RUN_LIMIT_S = 170
IMPORT_SAMPLES = 5


def tail_percentile(ops_per_round: int) -> int:
    """Highest whole percentile with at least ten of the operations of
    MIN_ROUNDS rounds beyond it."""
    return math.floor(100 * (1 - 10 / (MIN_ROUNDS * ops_per_round)))


def nearest_rank(values, percentile: int) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(percentile / 100 * len(ordered)) - 1, 0)]


def _self_s(name):
    return lambda s: s.get(name, {}).get("self_s", 0.0), "s"


def _calls(name):
    return lambda s: s.get(name, {}).get("calls", 0), "count"


def _work(name):
    return lambda s: s.get(name, {}).get("work", 0), "count"


def _main_ms(s):
    entry = s.get("cli.main")
    return 1000 * entry["total_s"] / entry["calls"] if entry else 0.0


def _root_closed(s):
    attempted = s.get("codes.exact_max_code", {}).get("calls", 0)
    if not attempted:
        return 0.0
    return 1 - s.get("codes.max_independent_set", {}).get("calls", 0) / attempted


#: Per-layer metrics of one traced round: name -> (value from the span
#: summary, unit).  cli.import_ms and trace.overhead_pct are added by main().
LAYER_METRICS = {
    "cli.main_ms": (_main_ms, "ms"),
    "balls.eta_value_s": _self_s("balls.eta_value"),
    "balls.eta_value_calls": _calls("balls.eta_value"),
    "balls.gamma_value_s": _self_s("balls.gamma_value"),
    "balls.gamma_value_calls": _calls("balls.gamma_value"),
    "balls.ball_size_at_s": _self_s("balls.ball_size_at"),
    "balls.ball_size_at_calls": _calls("balls.ball_size_at"),
    "bounds.bound_report_s": _self_s("bounds.bound_report"),
    "bounds.bound_report_calls": _calls("bounds.bound_report"),
    "codes.exact_max_code_s": _self_s("codes.exact_max_code"),
    "codes.max_independent_set_s": _self_s("codes.max_independent_set"),
    "codes.max_independent_set_calls": _calls("codes.max_independent_set"),
    "codes.root_closed_ratio": (_root_closed, "ratio"),
    "codes.greedy_code_s": _self_s("codes.greedy_code"),
    "codes.covering_radius_s": _self_s("codes.covering_radius"),
    "codes.analyze_s": _self_s("codes.analyze"),
    "codes.cover_points_scanned": _work("codes.covering_radius"),
    "grid.pairwise_distance_extremes_s": _self_s("grid.pairwise_distance_extremes"),
    "grid.pairs_scanned": _work("grid.pairwise_distance_extremes"),
    "cyclic.derive_s": _self_s("cyclic.derive"),
    "cyclic.derive_calls": _calls("cyclic.derive"),
    "cyclic.bound_chain_s": _self_s("cyclic.bound_chain"),
    "cyclic.pairs_scanned": _work("cyclic.bound_chain"),
}


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_round(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--t0", repr(t0)]
    proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def import_ms() -> float:
    """Median spawn-to-exit time of ``python -c "import gridcodes.cli"``."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import gridcodes.cli"], env=_env(), check=True)
        samples.append(1000 * (time.perf_counter() - start))
    return statistics.median(samples)


def write_spans(workload: str, seed: int, rounds: list[dict]) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for number, rnd in enumerate(rounds):
            for name, start, end, parent, op, work in rnd.get("spans", []):
                fh.write(json.dumps({"round": number, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "work": work}) + "\n")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "gridcodes" / "__init__.py").is_file():
        print(f"no gridcodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    begin = time.monotonic()
    deadline = begin + RUN_LIMIT_S
    rounds = []
    try:
        lengths = []
        while (len(rounds) < MIN_ROUNDS
               or time.monotonic() - begin + statistics.median(lengths) <= args.seconds):
            traced = bool(args.trace) and len(rounds) % 2 == 1
            start = time.monotonic()
            rounds.append(run_round(args.workload, args.seed, traced, deadline) | {"traced": traced})
            lengths.append(time.monotonic() - start)
        cli_import = import_ms() if args.trace else None
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError,
            IndexError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1

    problems = [p for r in rounds for p in r["problems"]] + [e for r in rounds for e in r["errors"]]
    for line in problems[:20]:
        print(line, file=sys.stderr)
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    if args.trace:
        # Counts repeat exactly from round to round; median_low keeps them whole.
        metrics = {
            name: {"value": (statistics.median_low if unit == "count" else statistics.median)(
                [fn(r["layers"]) for r in traced]), "unit": unit}
            for name, (fn, unit) in LAYER_METRICS.items()
        }
        metrics["cli.import_ms"] = {"value": cli_import, "unit": "ms"}
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    / statistics.median(r["wall_s"] for r in plain) - 1)
        metrics["trace.overhead_pct"] = {"value": 100 * overhead, "unit": "%"}
        print(f"spans written to {write_spans(args.workload, args.seed, traced)}", file=sys.stderr)
    else:
        op_s = [t for r in plain for t in r["op_s"]]
        percentile = tail_percentile(len(plain[0]["op_s"]))
        print(f"{len(plain)} rounds, {len(op_s)} operations, tail percentile p{percentile}",
              file=sys.stderr)
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in plain), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(op_s), "unit": "ms"},
            "op_tail_ms": {"value": 1000 * nearest_rank(op_s, percentile), "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
        }
    print(json.dumps({
        "correct": all(r["problem_count"] == 0 for r in rounds),
        "attempted": sum(len(r["op_s"]) for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

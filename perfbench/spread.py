"""Run the benchmark once per seed and report each end-to-end metric's
median, quartiles and quartile spread (Q3 - Q1) / median.

    python3 perfbench/spread.py --workload bound-tables --seeds 1-10

Each run is untraced and measures ``run_seconds`` of BENCHMARK.json.  Runs
go one after another; the results go to stdout and, with every run's JSON
line, to ``perfbench/out/spread-<workload>-<first>-<last>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append({"seed": seed} | result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)
    names = runs[0]["metrics"]
    table = {name: summarize([r["metrics"][name]["value"] for r in runs]) for name in names}
    for name, row in table.items():
        print(f"{name:>14}: median {row['median']:.4f}  q1 {row['q1']:.4f}  "
              f"q3 {row['q3']:.4f}  spread {row['spread']:.4f}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spread-{args.workload}-{args.seeds[0]}-{args.seeds[-1]}.json"
    path.write_text(json.dumps({"runs": runs, "summary": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: inputs made from the seed, the fixed list of
operations of one round, and the checks of their answers.

A workload object is built in the worker's set-up.  ``operations()`` returns
zero-argument calls, one per user-level request; ``check(outputs)`` returns
the problems found, with ``None`` standing for an operation that raised.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import refs

HERE = Path(__file__).resolve().parent


class Workload:
    #: Set by the worker on traced rounds.
    tracer = None

    def operations(self) -> list:
        raise NotImplementedError

    def check(self, outputs: list) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        """Remove what the round wrote."""


def _bound_problems(label, report: dict, dims, d, eta_p, gamma_p) -> list[str]:
    expected = refs.expected_bounds(dims, d, eta_p, gamma_p)
    got = {key: report.get(key) for key in expected}
    problems = []
    if got != expected:
        problems.append(f"{label} d={d}: bounds {got} != reference {expected}")
    if not report["gv_lower_weak"] <= report["gv_lower_strong"] <= report["hamming_upper"]:
        problems.append(f"{label} d={d}: gv_weak <= gv_strong <= hamming_upper fails")
    return problems


def _analysis_problems(label, got: dict, dims, words, radii) -> list[str]:
    expected = refs.expected_analysis(dims, words, radii)
    return [
        f"{label}: analyze {key} = {got.get(key)!r}, reference {value!r}"
        for key, value in expected.items()
        if got.get(key) != value
    ]


# --- bound-tables ------------------------------------------------------------

#: Grids per dimension n.  The sorted side multisets are drawn once from
#: BOUND_FAMILY_SEED and run in a fixed order, so that every seed does the
#: same recursion and shares the same cache entries between grids; the
#: run's seed permutes each grid's axes and draws its ball_size_at queries.
BOUND_COUNTS = {2: 3, 3: 3, 4: 4, 5: 5, 6: 9, 7: 8, 8: 5, 9: 3}
BOUND_FAMILY_SEED = 3
BOUND_QUERIES = 3
#: Grids up to this volume also get a brute-force min/max over all centres.
BRUTE_VOLUME = 1000


def bound_shapes() -> list[tuple[int, ...]]:
    rng = random.Random(BOUND_FAMILY_SEED)
    return [
        tuple(sorted(rng.randint(2, 9) for _ in range(n)))
        for n, count in BOUND_COUNTS.items()
        for _ in range(count)
    ]


class BoundTables(Workload):
    def __init__(self, seed: int):
        import gridcodes

        self.gc = gridcodes
        rng = random.Random(seed)
        self.grids = []
        for shape in bound_shapes():
            dims = list(shape)
            rng.shuffle(dims)
            dims = tuple(dims)
            diameter = sum(m - 1 for m in dims)
            queries = [
                (tuple(rng.randrange(m) for m in dims), rng.randint(1, diameter - 1))
                for _ in range(BOUND_QUERIES)
            ]
            eta_p, gamma_p = refs.corner_profile(dims), refs.centre_profile(dims)
            query_sizes = [refs.size_at(refs.ball_profile(dims, x), r) for x, r in queries]
            self.grids.append((dims, queries, eta_p, gamma_p, query_sizes))

    def operations(self):
        gc = self.gc

        def table(dims, queries):
            grid = gc.Grid(dims)
            reports = [gc.bound_report(grid, d) for d in range(1, grid.diameter() + 2)]
            sizes = [gc.ball_size_at(grid, x, r) for x, r in queries]
            return reports, sizes

        return [
            (lambda dims=dims, queries=queries: table(dims, queries))
            for dims, queries, *_ in self.grids
        ]

    def check(self, outputs):
        problems = []
        for (dims, queries, eta_p, gamma_p, query_sizes), out in zip(self.grids, outputs):
            # Here rather than in set-up, which setup_s and peak_rss_mb measure.
            if math.prod(dims) <= BRUTE_VOLUME:
                low, high = refs.brute_extremes(dims)
                if list(low) != eta_p or list(high) != gamma_p:
                    problems.append(f"{dims}: corner/centre profiles are not the extremes")
            if out is None:
                continue
            reports, sizes = out
            for d, report in enumerate(reports, start=1):
                problems += _bound_problems(dims, report.to_json_dict(), dims, d, eta_p, gamma_p)
            for (x, r), want, got in zip(queries, query_sizes, sizes):
                if got.value != want:
                    problems.append(f"{dims}: ball_size_at({x}, {r}) = {got.value}, reference {want}")
        return problems


# --- exact-search --------------------------------------------------------------


class ExactSearch(Workload):
    """Every grid of the criterion-5 family up to the volume cap, solved
    for every d = 1..diameter+1.  The seed only shuffles the grid order."""

    def __init__(self, seed: int):
        import gridcodes

        self.gc = gridcodes
        self.grids = refs.exact_family()
        random.Random(seed).shuffle(self.grids)
        self.optima = refs.load_exact_optima()
        self.profiles = {
            dims: (refs.corner_profile(dims), refs.centre_profile(dims)) for dims in self.grids
        }

    def operations(self):
        gc = self.gc

        def solve(dims):
            grid = gc.Grid(dims)
            return [gc.exact_max_code(grid, d) for d in range(1, grid.diameter() + 2)]

        return [(lambda dims=dims: solve(dims)) for dims in self.grids]

    def check(self, outputs):
        problems = []
        for dims, out in zip(self.grids, outputs):
            if out is None:
                continue
            for d, (size, code) in enumerate(out, start=1):
                label = f"{dims} d={d}"
                want = self.optima[refs.instance_key(dims, d)]
                if size != want:
                    problems.append(f"{label}: size {size}, reference optimum {want}")
                if code.grid.dims != dims or code.size() != size:
                    problems.append(f"{label}: witness does not match the reported size")
                problems += [f"{label}: {p}" for p in refs.code_violations(dims, code.codewords, d)]
                bounds = refs.expected_bounds(dims, d, *self.profiles[dims])
                if not (bounds["gv_lower_weak"] <= bounds["gv_lower_strong"]
                        <= size <= bounds["hamming_upper"]):
                    problems.append(f"{label}: size {size} outside the GV/Hamming sandwich")
        return problems


# --- distance-scans ------------------------------------------------------------

#: greedy_code + analyze: (sorted sides, d); the seed permutes the axes.
GREEDY_SLOTS = [
    ((6, 9, 10), 3), ((7, 8, 11), 4), ((5, 12, 14), 4), ((4, 5, 6, 7), 3),
    ((9, 13, 15), 5), ((22, 30), 3), ((10, 12, 20), 5), ((30, 45), 4),
    ((3, 4, 5, 6, 7), 5), ((6, 7, 8, 9), 5),
]
#: bound_chain: (components, order band); the seed draws a spec per band.
CHAIN_SLOTS = [
    (3, 200, 210), (4, 300, 315), (3, 450, 470), (5, 600, 630), (4, 800, 840),
    (3, 1000, 1040), (5, 1200, 1250), (4, 1500, 1560), (3, 1800, 1870),
    (4, 2100, 2180), (5, 2400, 2490), (4, 3800, 3900),
]
#: bound_chain with a large support (derive enumerates 2^support subsets).
SUPPORT_SLOTS = (16, 17, 18)
SUPPORT_ORDERS = (2, 3, 4, 6)


def _chain_spec(rng, n, lo, hi):
    while True:
        orders = tuple(rng.randint(2, 64) for _ in range(n))
        exps = tuple(rng.randrange(m) for m in orders)
        if any(exps) and lo <= refs.cyclic_order(orders, exps) <= hi:
            return orders, exps


def _support_spec(rng, support):
    orders = tuple(rng.choice(SUPPORT_ORDERS) for _ in range(support))
    return orders, tuple(rng.randrange(1, m) for m in orders)


class DistanceScans(Workload):
    def __init__(self, seed: int):
        import gridcodes

        self.gc = gridcodes
        rng = random.Random(seed)
        self.items = []
        for shape, d in GREEDY_SLOTS:
            dims = list(shape)
            rng.shuffle(dims)
            self.items.append(("greedy", (tuple(dims), d)))
        self.items += [("chain", _chain_spec(rng, *slot)) for slot in CHAIN_SLOTS]
        self.items += [("chain", _support_spec(rng, s)) for s in SUPPORT_SLOTS]
        rng.shuffle(self.items)

    def operations(self):
        gc = self.gc

        def greedy(dims, d):
            code = gc.greedy_code(gc.Grid(dims), d)
            return code, gc.analyze(code, requested_covering_radii=(d - 1,))

        def chain(orders, exps):
            return gc.bound_chain(gc.CyclicCodeSpec(orders, exps))

        run = {"greedy": greedy, "chain": chain}
        return [(lambda f=run[kind], args=args: f(*args)) for kind, args in self.items]

    def check(self, outputs):
        problems = []
        for (kind, args), out in zip(self.items, outputs):
            if out is None:
                continue
            if kind == "chain":
                problems += _chain_problems(args, out.to_json_dict())
                continue
            (dims, d), (code, analysis) = args, out
            label = f"greedy {dims} d={d}"
            words = [tuple(w) for w in code.codewords]
            problems += [f"{label}: {p}" for p in refs.code_violations(dims, words, d)]
            if words != refs.lex_greedy(dims, d):
                problems.append(f"{label}: not the lexicographic greedy code")
            got = analysis.to_json_dict()
            problems += _analysis_problems(label, got, dims, words, [str(d - 1)])
            if got["covering_radius"] > d - 1:
                problems.append(f"{label}: greedy code is not maximal")
        return problems


def _chain_problems(spec, got: dict) -> list[str]:
    """Compare a bound_chain payload with the brute-force reference."""
    expected = refs.expected_chain(*spec)
    label = f"cyclic {spec[0]} {spec[1]}"
    problems = [
        f"{label}: {key} = {got.get(key)}, reference {value}"
        for key, value in expected.items()
        if got.get(key) != value
    ]
    c = got.get("chain")
    names = ("l_times_d_hamming", "l_times_hat_d_lee", "max_mid", "d_manhattan",
             "delta_upper", "delta_manhattan")
    if not isinstance(c, dict) or not all(isinstance(c.get(k), int) for k in names):
        return problems + [f"{label}: chain {c!r} lacks a link"]
    links = [c[k] for k in names[:5]]
    if links != sorted(links) or c["delta_manhattan"] > c["delta_upper"]:
        problems.append(f"{label}: chain {links} is not non-decreasing")
    return problems


# --- cli-sessions ----------------------------------------------------------------


def _grid_arg(dims) -> str:
    return ",".join(map(str, dims))


def _small_grid(rng, n_range=(2, 3), side=(2, 6)):
    return tuple(rng.randint(*side) for _ in range(rng.randint(*n_range)))


def cli_script(seed: int) -> list[tuple[list[str], dict]]:
    """One pass of the session: (argv, what to check) for 21 invocations
    covering the five subcommands.  Files named ``s1.json``..``s3.json`` are
    written by ``search --output`` and read back by ``analyze``."""
    rng = random.Random(seed)
    script = []

    def ball(kind, dims, r, centre=None, extra=()):
        argv = ["ball-size", "--grid", _grid_arg(dims), "--radius", str(r), "--kind", kind]
        if centre is not None:
            argv += ["--center", _grid_arg(centre)]
        script.append((argv + list(extra), {"kind": kind, "dims": dims, "r": r, "centre": centre}))

    for kind, extras in (("eta", ((), ("--verify",))), ("gamma", ((), ("--verify", "--format", "text")))):
        dims = _small_grid(rng)
        for extra in extras:
            ball(kind, dims, rng.randint(0, sum(dims) - len(dims) + 1), extra=extra)
    for extra in ((), ("--verify",), ()):
        dims = _small_grid(rng, (2, 4))
        centre = tuple(rng.randrange(m) for m in dims)
        ball("at", dims, rng.randint(1, sum(dims) - len(dims)), centre, extra)
    for _ in range(2):
        dims = _small_grid(rng, (2, 4))
        d = rng.randint(1, sum(dims) - len(dims) + 2)
        script.append((["bounds", "--grid", _grid_arg(dims), "--distance", str(d)],
                       {"bounds": dims, "d": d}))
    for _ in range(2):
        dims = _small_grid(rng, (2, 4))
        top = rng.randint(2, sum(dims) - len(dims) + 2)
        script.append((["bounds", "--grid", _grid_arg(dims), "--sweep", str(top)],
                       {"sweep": dims, "top": top}))
    small = [g for g in refs.exact_family() if math.prod(g) <= 40 and sum(g) - len(g) >= 3]
    searches = []
    for name in ("s1.json", "s2.json"):
        dims = rng.choice(small)
        d = rng.randint(3, sum(dims) - len(dims))
        searches.append((name, dims, d, "exact"))
    dims = _small_grid(rng, (2, 3), (3, 6))
    searches.append(("s3.json", dims, rng.randint(2, 4), "greedy"))
    for name, dims, d, mode in searches:
        script.append((["search", "--grid", _grid_arg(dims), "--distance", str(d),
                        "--mode", mode, "--output", name],
                       {"search": dims, "d": d, "mode": mode, "file": name}))
    for name, dims, d, mode in searches:
        radii = [str(d - 1), str(rng.randint(0, d))]
        script.append((["analyze", "--code", name, "--covering", ",".join(radii)],
                       {"analyze": name, "dims": dims, "radii": radii}))
    # Narrow bands with a fixed component count keep the largest child's
    # memory, which the cyclic scans set, the same for every seed.
    for n, lo, hi in ((2, 100, 110), (3, 200, 210), (3, 600, 630)):
        orders, exps = _chain_spec(rng, n, lo, hi)
        script.append((["cyclic", "--orders", _grid_arg(orders), "--generator", _grid_arg(exps)],
                       {"cyclic": (orders, exps)}))
    dims = _small_grid(rng, (4, 5), (2, 4))
    ball("at", dims, rng.randint(1, sum(dims) - len(dims)), tuple(rng.randrange(m) for m in dims))
    return script


def _parse_payload(stdout: bytes) -> dict:
    text = stdout.decode()
    if text.startswith("{"):
        return json.loads(text)
    return {key: json.loads(value) for key, value in
            (line.split(": ", 1) for line in text.splitlines())}


class CliSessions(Workload):
    """The session script, run twice.  One operation is one
    ``python -m gridcodes.cli`` process, timed from spawn to exit."""

    def __init__(self, seed: int, root: Path):
        self.script = cli_script(seed)
        self.optima = refs.load_exact_optima()
        self.workdir = HERE / "out" / f"cli-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.spans_file = self.workdir / "spans.json"

    def operations(self):
        def run(argv):
            if self.tracer is None:
                cmd = [sys.executable, "-m", "gridcodes.cli", *argv]
                env = self.env
            else:
                cmd = [sys.executable, str(HERE / "clitrace.py"), *argv]
                env = dict(self.env, PERFBENCH_SPANS=str(self.spans_file))
            proc = subprocess.run(cmd, cwd=self.workdir, env=env, capture_output=True, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
            if self.tracer is not None:
                self.tracer.adopt(json.loads(self.spans_file.read_text()))
            return proc.stdout

        return [(lambda argv=argv: run(argv)) for _ in range(2) for argv, _ in self.script]

    def check(self, outputs):
        half = len(self.script)
        problems = []
        for i, (first, second) in enumerate(zip(outputs[:half], outputs[half:])):
            if first is not None and second is not None and first != second:
                problems.append(f"{self.script[i][0]}: second pass stdout differs from the first")
        searched = {}
        for (argv, want), out in zip(self.script + self.script, outputs):
            if out is None:
                continue
            try:
                found = self._check_one(want, out, searched)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                found = [f"unreadable output ({exc!r})"]
            problems += [f"{' '.join(argv)}: {p}" for p in found]
        return problems

    def _check_one(self, want, out, searched) -> list[str]:
        if "kind" in want:
            dims, r, kind = want["dims"], want["r"], want["kind"]
            if kind == "eta":
                profile = refs.corner_profile(dims)
            elif kind == "gamma":
                profile = refs.centre_profile(dims)
            else:
                profile = refs.ball_profile(dims, want["centre"])
            got = _parse_payload(out)
            problems = [] if got["value"] == refs.size_at(profile, r) else [
                f"value {got['value']}, reference {refs.size_at(profile, r)}"]
            if got.get("verified") is False:
                problems.append("--verify reported a mismatch")
            return problems
        if "bounds" in want:
            dims = want["bounds"]
            profiles = refs.corner_profile(dims), refs.centre_profile(dims)
            return _bound_problems("bounds", _parse_payload(out), dims, want["d"], *profiles)
        if "sweep" in want:
            dims = want["sweep"]
            profiles = refs.corner_profile(dims), refs.centre_profile(dims)
            rows = list(csv.reader(io.StringIO(out.decode(), newline="")))
            problems = [] if rows[0] == ["d", "gv_weak", "gv_strong", "hamming_upper"] else [
                f"sweep header {rows[0]}"]
            if len(rows) != want["top"] + 1:
                problems.append(f"sweep has {len(rows) - 1} rows, expected {want['top']}")
            for row in rows[1:]:
                d, weak, strong, upper = map(int, row)
                problems += _bound_problems("sweep", {
                    "distance": d, "packing_radius": (d - 1) // 2, "hamming_upper": upper,
                    "gv_lower_strong": strong, "gv_lower_weak": weak,
                    "degenerate": d > sum(m - 1 for m in dims) + 1,
                }, dims, d, *profiles)
            return problems
        if "search" in want:
            got = _parse_payload(out)
            dims, d = want["search"], want["d"]
            words = [tuple(w) for w in got["codewords"]]
            problems = [str(p) for p in refs.code_violations(dims, words, d)]
            if want["mode"] == "exact":
                optimum = self.optima[refs.instance_key(dims, d)]
                if got["size"] != optimum:
                    problems.append(f"size {got['size']}, reference optimum {optimum}")
            elif words != refs.lex_greedy(dims, d):
                problems.append("not the lexicographic greedy code")
            if got["size"] != len(words) or tuple(got["dims"]) != dims:
                problems.append("size or dims do not match the codewords")
            searched[want["file"]] = words
            return problems
        if "analyze" in want:
            words = searched.get(want["analyze"])
            if words is None:
                return ["analyze ran before its search succeeded"]
            return _analysis_problems("analyze", _parse_payload(out), want["dims"], words, want["radii"])
        orders, exps = want["cyclic"]
        got = _parse_payload(out)
        listed = got.pop("codewords", None)
        problems = _chain_problems((orders, exps), got)
        if got["order"] <= 256:
            words = [[(e * k) % m for e, m in zip(exps, orders)] for k in range(got["order"])]
            if listed != words:
                problems.append("codeword list differs from the powers of the generator")
        return problems

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name: str, seed: int, root: Path) -> Workload:
    if name == "cli-sessions":
        return CliSessions(seed, root)
    return {"bound-tables": BoundTables, "exact-search": ExactSearch,
            "distance-scans": DistanceScans}[name](seed)


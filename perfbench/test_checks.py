"""The benchmark's own tests: every checker accepts the program's answers and
rejects a wrong one, and the references agree with brute force.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import dataclasses
import io
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import refs
import run
import workloads
from gridcodes import CyclicCodeSpec, GridCode, bound_chain, cli

HERE = Path(__file__).resolve().parent


def _outputs(workload):
    return [op() for op in workload.operations()]


def test_profiles_are_the_extremes():
    for dims in [(5, 2), (3, 4, 2), (2, 2, 3, 3), (7,), (1, 4, 3)]:
        low, high = refs.brute_extremes(dims)
        assert list(low) == refs.corner_profile(dims)
        assert list(high) == refs.centre_profile(dims)
    assert refs.size_at(refs.ball_profile((5, 2), (2, 0)), 2) == 8
    assert refs.zn_ball(2, 3) == 25


def test_covering_and_greedy_references():
    dims, d = (4, 5, 3), 3
    pts = list(itertools.product(*(range(m) for m in dims)))
    kept = []
    for p in pts:
        if all(sum(abs(a - b) for a, b in zip(p, q)) >= d for q in kept):
            kept.append(p)
    assert refs.lex_greedy(dims, d) == kept
    worst = max(min(sum(abs(a - b) for a, b in zip(p, q)) for q in kept) for p in pts)
    assert refs.covering_radius_bfs(dims, kept) == worst
    words = np.array(kept)
    assert refs.pairwise_extremes(words, dims, "hamming") == (1, 3)


def test_exact_search_rejects_off_by_one_and_close_pairs():
    w = workloads.ExactSearch(seed=1)
    w.grids = [g for g in refs.exact_family() if 12 <= np.prod(g) <= 30 and min(g) > 1][:2]
    out = _outputs(w)
    assert w.check(out) == []
    size, code = out[0][2]
    out[0][2] = (size + 1, code)
    assert any("reference optimum" in p for p in w.check(out))
    out[0][2] = (size, code)
    words = list(code.codewords)
    words[1] = tuple(x + (i == 0) for i, x in enumerate(words[0]))
    out[0][2] = (size, GridCode(code.grid, tuple(words)))
    assert any("at distance 1" in p for p in w.check(out))


def test_distance_scans_reject_wrong_covering_radius_and_close_pair():
    w = workloads.DistanceScans(seed=1)
    w.items = [("greedy", ((4, 5, 3), 3)), ("chain", ((6, 10), (2, 5)))]
    out = _outputs(w)
    assert w.check(out) == []
    code, analysis = out[0]
    out[0] = (code, dataclasses.replace(analysis, covering_radius=analysis.covering_radius + 1))
    assert any("covering_radius" in p for p in w.check(out))
    words = list(code.codewords)
    words[-1] = tuple(x - (i == 2) if x else x + 1 for i, x in enumerate(words[-1]))
    out[0] = (GridCode(code.grid, tuple(words)), analysis)
    assert w.check(out)


def test_chain_check_rejects_wrong_distance():
    spec = ((6, 10), (2, 5))
    chain = bound_chain(CyclicCodeSpec(*spec))
    assert workloads._chain_problems(spec, chain.to_json_dict()) == []
    wrong = dataclasses.replace(chain, d_manhattan=chain.d_manhattan + 1)
    assert workloads._chain_problems(spec, wrong.to_json_dict())
    payload = chain.to_json_dict()
    payload["chain"]["delta_upper"] = 0
    assert any("not non-decreasing" in p for p in workloads._chain_problems(spec, payload))
    del payload["chain"]["max_mid"]
    assert any("lacks a link" in p for p in workloads._chain_problems(spec, payload))


def test_bound_tables_reject_wrong_gamma():
    w = workloads.BoundTables(seed=1)
    w.grids = [g for g in w.grids if len(g[0]) <= 4]
    out = _outputs(w)
    assert w.check(out) == []
    reports, sizes = out[0]
    # gv_lower_strong is volume / gamma(d - 1): a wrong gamma moves it.
    reports[2] = dataclasses.replace(reports[2], gv_lower_strong=reports[2].gv_lower_strong + 1)
    assert any("bounds" in p for p in w.check(out))
    reports[2] = dataclasses.replace(reports[2], gv_lower_strong=reports[2].gv_lower_strong - 1)
    sizes[0] = dataclasses.replace(sizes[0], value=sizes[0].value + 1)
    assert any("ball_size_at" in p for p in w.check(out))


def _cli_outputs(w, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outputs = []
    for argv, _ in w.script:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0
        outputs.append(buf.getvalue().encode())
    return outputs + list(outputs)


def test_cli_sessions_reject_changed_byte_and_wrong_gamma(tmp_path, monkeypatch):
    w = workloads.CliSessions(seed=1, root=HERE.parent)
    try:
        out = _cli_outputs(w, tmp_path, monkeypatch)
        assert w.check(out) == []
        half = len(w.script)
        changed = list(out)
        last = changed[half][:-2] + bytes([changed[half][-2] ^ 1]) + changed[half][-1:]
        changed[half] = last
        assert any("second pass" in p for p in w.check(changed))
        gamma = next(i for i, (_, want) in enumerate(w.script) if want.get("kind") == "gamma")
        payload = json.loads(out[gamma])
        payload["value"] += 1
        wrong = list(out)
        wrong[gamma] = wrong[gamma + half] = (json.dumps(payload) + "\n").encode()
        assert any("reference" in p for p in w.check(wrong))
    finally:
        w.close()


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"}
    assert {m["name"] for m in spec["per_layer"]} == set(run.LAYER_METRICS) | {
        "cli.import_ms", "trace.overhead_pct"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tail_percentiles():
    assert run.tail_percentile(21) == 76
    assert run.tail_percentile(40) == 87
    assert run.tail_percentile(80) == 93
    values = list(range(1, 81))
    assert sum(v > run.nearest_rank(values, 87) for v in values) >= 10


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

import json
import os
import subprocess
import sys

import pytest

from gridcodes import codes
from gridcodes.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBallSize:
    def test_eta_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "ball-size", "--grid", "5,2", "--radius", "2", "--kind", "eta"
        )
        assert code == 0
        data = json.loads(out)
        assert data["value"] == 5
        assert data["kind"] == "eta"

    def test_at_with_verify(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "ball-size", "--grid", "5,2", "--radius", "2",
            "--kind", "at", "--center", "2,0", "--verify",
        )
        assert code == 0
        data = json.loads(out)
        assert data["value"] == 8
        assert data["verified"] is True

    def test_large_boxes_answer_at_once(self):
        # Ball sizes on large boxes cost time in the radius, not in the sides.
        run = subprocess.run(
            [sys.executable, "-m", "gridcodes.cli", "ball-size", "--grid",
             "20000,20000,20000", "--radius", "3", "--kind", "eta", "--verify"],
            capture_output=True, timeout=30,
        )
        assert run.returncode == 0
        data = json.loads(run.stdout)
        assert data["value"] == 20 and data["verified"] is True
        run = subprocess.run(
            [sys.executable, "-m", "gridcodes.cli", "bounds", "--grid",
             "1099511627776,2", "--distance", "3"],
            capture_output=True, timeout=30,
        )
        assert run.returncode == 0
        assert json.loads(run.stdout)["gv_lower_strong"] == 2**41 // 8

    def test_at_requires_center(self, capsys):
        code, _, err = run_cli(
            capsys, "ball-size", "--grid", "5,2", "--radius", "2", "--kind", "at"
        )
        assert code == 2
        assert "center" in err

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "ball-size", "--grid", "5,2", "--radius", "1",
            "--kind", "gamma", "--format", "text",
        )
        assert code == 0
        assert "value: 4" in out


class TestBounds:
    def test_single_distance(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--grid", "5,2", "--distance", "5")
        assert code == 0
        data = json.loads(out)
        assert data["hamming_upper"] == 2
        assert data["packing_radius"] == 2

    def test_sweep_csv(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--grid", "5,2", "--sweep", "3")
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0] == "d,gv_weak,gv_strong,hamming_upper"
        assert lines[1] == "1,10,10,10"
        assert lines[3] == "3,1,2,3"

    def test_needs_distance_or_sweep(self):
        # Exactly one of the two.
        for extra in ([], ["--distance", "2", "--sweep", "3"]):
            with pytest.raises(SystemExit) as stop:
                main(["bounds", "--grid", "5,2", *extra])
            assert stop.value.code == 2

    @pytest.mark.parametrize("top", ["0", "-2"])
    def test_sweep_below_one(self, capsys, top):
        code, out, err = run_cli(capsys, "bounds", "--grid", "5,2", "--sweep", top)
        assert code == 2
        assert out == ""
        assert err == f"error: --sweep {top} must be >= 1\n"

    def test_sweep_rows_are_charged_to_the_budget(self, capsys, monkeypatch):
        # Each row is a bound report, so the rows count against the budget
        # before the header is written.
        monkeypatch.setenv("GRIDCODES_BUDGET", "1000")
        code, out, err = run_cli(capsys, "bounds", "--grid", "5,2", "--sweep", "100000000")
        assert code == 3
        assert out == ""
        assert err == "resource error: bounds sweep writes 100000000 rows, budget is 1000\n"
        code, out, _ = run_cli(capsys, "bounds", "--grid", "5,2", "--sweep", "1000")
        assert code == 0 and len(out.split("\r\n")) == 1002


class TestSearchAnalyzeRoundTrip:
    def test_round_trip(self, capsys, tmp_path):
        path = tmp_path / "code.json"
        code, out, _ = run_cli(
            capsys,
            "search", "--grid", "5,2", "--distance", "5",
            "--mode", "exact", "--output", str(path),
        )
        assert code == 0
        assert json.loads(out)["size"] == 2

        code, out, _ = run_cli(
            capsys, "analyze", "--code", str(path), "--covering", "2,3"
        )
        assert code == 0
        data = json.loads(out)
        assert data["min_distance"] == 5
        assert data["perfect"] is True
        assert data["attains_hamming_bound"] is True
        assert data["covering_property"] == {"2": True, "3": True}

    def test_greedy_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--grid", "6,6", "--distance", "3"
        )
        assert code == 0
        data = json.loads(out)
        assert data["mode"] == "greedy"
        assert data["size"] == len(data["codewords"])

    def test_greedy_distance_past_int64(self, capsys):
        # Every distance past the diameter gives the one-word code.
        code, out, _ = run_cli(
            capsys, "search", "--grid", "3,3", "--distance", str(2**70)
        )
        assert code == 0
        assert out == (
            '{"codewords": [[0, 0]], "dims": [3, 3], "mode": "greedy", "size": 1}\n'
        )

    def test_missing_code_file(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--code", "/nonexistent.json")
        assert code == 2
        assert "not found" in err

    def test_unwritable_output(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(
            capsys, "search", "--grid", "3,3", "--distance", "2", "--output", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and str(path) in err
        assert err.count("\n") == 1

    def test_code_is_a_directory(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "analyze", "--code", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and str(tmp_path) in err
        assert err.count("\n") == 1

    def test_code_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bin.json"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run_cli(capsys, "analyze", "--code", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and str(path) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("covering", ["1,x", "-1", "2,-1"])
    def test_bad_covering_radii(self, capsys, tmp_path, covering):
        path = tmp_path / "code.json"
        path.write_text('{"dims": [5, 2], "codewords": [[0, 0], [4, 1]]}')
        code, out, err = run_cli(
            capsys, "analyze", "--code", str(path), "--covering", covering
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("text", [
        '{"dims": [5, 2], "codewords": 5}',
        '{"dims": 5, "codewords": [[0]]}',
        '{"dims": [5], "codewords": [[null]]}',
        '{"dims": [5.9, 2], "codewords": [[1.5, 0], [4, 1.2]]}',
    ])
    def test_malformed_code_file(self, capsys, tmp_path, text):
        path = tmp_path / "code.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "analyze", "--code", str(path))
        assert code == 2
        assert out == ""
        assert "code JSON" in err


class TestCyclic:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "cyclic", "--orders", "8,8,8,8", "--generator", "2,2,4,4"
        )
        assert code == 0
        data = json.loads(out)
        assert data["order"] == 4
        assert data["d_hamming"] == 2
        assert data["chain"]["d_manhattan"] == 8
        assert data["chain"]["delta_manhattan"] == 20
        assert [0, 0, 0, 0] in data["codewords"]

    def test_trivial_generator(self, capsys):
        code, _, err = run_cli(
            capsys, "cyclic", "--orders", "4,4", "--generator", "0,0"
        )
        assert code == 2
        assert "trivial" in err

    def test_unparsable_orders(self, capsys):
        code, out, err = run_cli(
            capsys, "cyclic", "--orders", "4,x", "--generator", "1,1"
        )
        assert code == 2
        assert out == ""
        assert "4,x" in err

    def test_too_many_vanishing_sets(self, capsys):
        primes = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
        code, out, err = run_cli(
            capsys, "cyclic",
            "--orders", ",".join(map(str, primes)),
            "--generator", ",".join("1" * len(primes)),
        )
        # The order, the product of the 25 primes, exceeds the order budget.
        assert code == 3
        assert out == ""
        assert "order" in err


class TestDeterminismAndBudget:
    def test_byte_identical_output(self):
        argv = [
            sys.executable, "-m", "gridcodes.cli",
            "search", "--grid", "4,4", "--distance", "3", "--mode", "exact",
        ]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout

    def test_exact_search_node_budget(self):
        argv = [
            sys.executable, "-m", "gridcodes.cli",
            "search", "--grid", "4,4,8,4", "--distance", "3", "--mode", "exact",
        ]
        env = dict(os.environ, GRIDCODES_BUDGET="2000")
        runs = [subprocess.run(argv, capture_output=True, env=env) for _ in range(2)]
        for run in runs:
            assert run.returncode == 3
            assert run.stdout == b""
            assert b"<= A <=" in run.stderr
        assert runs[0].stderr == runs[1].stderr

    def test_greedy_search_budget(self):
        argv = [
            sys.executable, "-m", "gridcodes.cli",
            "search", "--grid", "300,300", "--distance", "3",
        ]
        env = dict(os.environ, GRIDCODES_BUDGET="1000")
        run = subprocess.run(argv, capture_output=True, env=env, timeout=60)
        assert run.returncode == 3
        assert run.stdout == b""
        assert b"budget" in run.stderr

    def test_exact_search_default_node_budget(self, capsys, monkeypatch):
        # Without GRIDCODES_BUDGET the search stops at DEFAULT_NODE_BUDGET
        # nodes, not at the enumeration budget.
        monkeypatch.delenv("GRIDCODES_BUDGET", raising=False)
        monkeypatch.setattr(codes, "DEFAULT_NODE_BUDGET", 300)
        code, out, err = run_cli(
            capsys,
            "search", "--grid", "4,4,8,4", "--distance", "3", "--mode", "exact",
        )
        assert code == 3
        assert out == ""
        assert "after 300 nodes" in err

    def test_budget_env_var(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "code.json"
        path.write_text('{"dims": [30, 30], "codewords": [[0, 0]]}')
        monkeypatch.setenv("GRIDCODES_BUDGET", "100")
        code, _, err = run_cli(capsys, "analyze", "--code", str(path))
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_env_var_below_one(self, capsys, monkeypatch, budget):
        monkeypatch.setenv("GRIDCODES_BUDGET", budget)
        code, out, err = run_cli(capsys, "search", "--grid", "3,3", "--distance", "2")
        assert code == 2
        assert out == ""
        assert err == f"error: GRIDCODES_BUDGET must be a positive integer, got {budget!r}\n"

    def test_bad_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("GRIDCODES_BUDGET", "many")
        code, _, err = run_cli(
            capsys,
            "ball-size", "--grid", "3,3", "--radius", "1",
            "--kind", "eta", "--verify",
        )
        assert code == 2
        assert "GRIDCODES_BUDGET" in err

    def test_verify_budget_applies_before_any_corner_set(self, capsys, monkeypatch):
        # The eta and gamma centres are built directly, not picked from the
        # 2^24 corners or centres, so the enumeration budget stops at once.
        monkeypatch.setenv("GRIDCODES_BUDGET", "1000")
        grid = ",".join(["2"] * 24)
        for kind in ("eta", "gamma"):
            code, out, err = run_cli(
                capsys,
                "ball-size", "--grid", grid, "--radius", "1", "--kind", kind, "--verify",
            )
            assert code == 3
            assert out == ""
            assert "ball enumeration would scan 16777216 points, budget is 1000" in err


# Runs in a fresh interpreter: importing the CLI must leave csv unloaded, the
# closed forms and the small scans of a greedy search (up to a 50x50 box at
# distance 3), analyze and cyclic must leave numpy unloaded, and the first
# scan past grid.NUMPY_WORK, the covering radius of one word on a line of
# 10**6 points, must load it.
NUMPY_FREE_SCRIPT = """
import contextlib, io, json, sys
import gridcodes
from gridcodes.cli import main

def run(argv, numpy_loaded):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0 or ("numpy" in sys.modules) != numpy_loaded:
        sys.exit(f"{argv}: exit {code}, numpy loaded: {'numpy' in sys.modules}")

if "numpy" in sys.modules:
    sys.exit("import gridcodes loaded numpy")
if "csv" in sys.modules:
    sys.exit("import gridcodes.cli loaded csv, which only bounds --sweep needs")
run(["ball-size", "--grid", "5,2", "--radius", "2", "--kind", "gamma", "--verify"],
    False)
run(["ball-size", "--grid", "5,2", "--radius", "2", "--kind", "at",
     "--center", "2,0"], False)
run(["bounds", "--grid", "10,4,4", "--distance", "5"], False)
run(["bounds", "--grid", "5,2", "--sweep", "5"], False)
run(["search", "--grid", "4,1,3,2", "--distance", "3", "--mode", "exact"], False)
run(["search", "--grid", "6,6,6", "--distance", "3", "--output", "greedy.json"],
    False)
run(["search", "--grid", "50,50", "--distance", "3", "--mode", "greedy"], False)
run(["analyze", "--code", "greedy.json", "--covering", "1,2"], False)
run(["cyclic", "--orders", "8,8,8,8", "--generator", "2,2,4,4"], False)
run(["cyclic", "--orders", "7,36,60", "--generator", "1,4,54"], False)
with open("line.json", "w") as fh:
    json.dump({"dims": [10**6], "codewords": [[0]]}, fh)
run(["analyze", "--code", "line.json"], True)
"""


def test_closed_forms_do_not_load_numpy(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    run = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_SCRIPT],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert run.returncode == 0, run.stderr


# Runs the argument lists given on stdin through the CLI in one fresh
# interpreter, and names the first one that loads numpy.
SESSION_SCRIPT = """
import contextlib, io, json, sys
from gridcodes.cli import main

for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    if "numpy" in sys.modules:
        sys.exit(f"{argv} loaded numpy")
"""


def test_benchmark_cli_sessions_do_not_load_numpy(tmp_path, monkeypatch):
    # The 420 invocations of the benchmark's cli_script(1..20), whose
    # children's peak memory the cli-sessions workload reports.
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    monkeypatch.syspath_prepend(os.path.abspath(os.path.join(root, "perfbench")))
    import workloads

    argvs = [argv for seed in range(1, 21) for argv, _ in workloads.cli_script(seed)]
    assert len(argvs) == 420
    env = dict(os.environ, PYTHONPATH=os.path.abspath(os.path.join(root, "src")))
    env.pop("GRIDCODES_BUDGET", None)
    run = subprocess.run(
        [sys.executable, "-c", SESSION_SCRIPT], input=json.dumps(argvs),
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert run.returncode == 0, run.stderr

import json
import subprocess
import sys

import pytest

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
        with pytest.raises(SystemExit):
            main(["bounds", "--grid", "5,2"])


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

    def test_missing_code_file(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--code", "/nonexistent.json")
        assert code == 2
        assert "not found" in err


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

    def test_too_many_vanishing_sets(self, capsys):
        primes = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
        code, out, err = run_cli(
            capsys, "cyclic",
            "--orders", ",".join(map(str, primes)),
            "--generator", ",".join("1" * len(primes)),
        )
        assert code == 3
        assert out == ""
        assert "vanishing sets" in err


class TestDeterminismAndBudget:
    def test_byte_identical_output(self):
        argv = [
            sys.executable, "-m", "gridcodes.cli",
            "search", "--grid", "4,4", "--distance", "3", "--mode", "exact",
        ]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout

    def test_budget_env_var(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "code.json"
        path.write_text('{"dims": [30, 30], "codewords": [[0, 0]]}')
        monkeypatch.setenv("GRIDCODES_BUDGET", "100")
        code, _, err = run_cli(capsys, "analyze", "--code", str(path))
        assert code == 3
        assert "budget" in err

    def test_bad_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("GRIDCODES_BUDGET", "many")
        code, _, err = run_cli(
            capsys,
            "ball-size", "--grid", "3,3", "--radius", "1",
            "--kind", "eta", "--verify",
        )
        assert code == 2
        assert "GRIDCODES_BUDGET" in err

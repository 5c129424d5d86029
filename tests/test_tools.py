import re

import pytest

from gridcodes import DomainError, codes

from conftest import load_tool


def test_frontier_lists_each_open_instance(monkeypatch, capsys):
    # Each node budget lists the instances it leaves open with their
    # intervals, a larger budget only some of those, and the clock a count.
    monkeypatch.setattr(codes, "_solved", {})
    load_tool("frontier").main(["--metric", "manhattan", "--nodes", "1000", "100", "--seconds", "0.001"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1421 instances"
    listed = {}
    for nodes in (100, 1000):
        count = int(re.fullmatch(rf"manhattan at {nodes} nodes: (\d+) open", lines[1])[1])
        listed[nodes] = lines[2 : 2 + count]
        del lines[1 : 2 + count]
        for line in listed[nodes]:
            lower, upper = map(int, re.fullmatch(r"  \(.*\) d=\d+: (\d+) <= A <= (\d+)", line).groups())
            assert lower < upper
    stopped = {line.split(":")[0] for line in listed[100]}
    assert 0 < len(listed[1000]) < len(listed[100])
    assert {line.split(":")[0] for line in listed[1000]} <= stopped
    assert re.fullmatch(r"manhattan at 0.001 s: \d+ open", lines[1]) and len(lines) == 2


def test_frontier_refuses_a_clock_that_never_stops(monkeypatch):
    # --seconds reaches exact_max_code, which refuses a NaN time budget.
    monkeypatch.setattr(codes, "_solved", {})
    with pytest.raises(DomainError, match="time budget nan must be >= 0"):
        load_tool("frontier").main(["--metric", "manhattan", "--nodes", "--seconds", "nan"])

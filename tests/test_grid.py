import argparse
import itertools
import random
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcodes import (
    BallSpec,
    CyclicCodeSpec,
    DomainError,
    Grid,
    GridCode,
    analyze,
    ball_size_at,
    bound_report,
    codeword,
    codeword_distance,
    enumerate_ball,
    eta,
    eta_value,
    exact_max_code,
    gamma,
    gamma_value,
    greedy_code,
    hamming_bound,
    hamming_distance,
    lee_distance,
    manhattan_distance,
    pairwise_distance_extremes,
    parse_point,
    simplex_count,
    zn_ball_size,
)
from gridcodes import balls
from gridcodes.cli import cmd_bounds
from gridcodes.grid import CHUNK, METRICS, integer, metric_function

grids = st.lists(st.integers(1, 6), min_size=1, max_size=3).map(
    lambda dims: Grid(tuple(dims))
)


@st.composite
def grid_and_points(draw, count=2):
    grid = draw(grids)
    pts = [
        tuple(draw(st.integers(0, m - 1)) for m in grid.dims) for _ in range(count)
    ]
    return (grid, *pts)


class TestGrid:
    def test_parse_round_trip(self):
        assert Grid.parse("5,2") == Grid((5, 2))
        assert Grid.parse("7") == Grid((7,))

    def test_parse_garbage(self):
        with pytest.raises(DomainError):
            Grid.parse("5,x")

    def test_rejects_bad_sides(self):
        with pytest.raises(DomainError):
            Grid((5, 0))
        with pytest.raises(DomainError):
            Grid(())

    def test_integers_only(self):
        for dims in [(5.9, 2), (5.0, 2), (True, 2), ("5", 2), (None,)]:
            with pytest.raises(DomainError):
                Grid(dims)
        for point in [(1.5, 0), (1.0, 0), (True, 0), ("1", 0)]:
            with pytest.raises(DomainError):
                Grid((5, 2)).require(point)
        # Integer types other than int are taken at their value.
        g = Grid((np.int64(5), np.uint8(2)))
        assert g.dims == (5, 2) and all(type(m) is int for m in g.dims)
        assert Grid((5, 2)).require((np.int32(4), 1)) == (4, 1)

    def test_volume_diameter(self):
        g = Grid((5, 2))
        assert g.volume() == 10
        assert g.diameter() == 5

    def test_contains_and_require(self):
        g = Grid((5, 2))
        assert g.require((4, 1)) == (4, 1)
        for point in [(5, 0), (4, 2), (0, 0, 0), (1.5, 0), (True, 0)]:
            with pytest.raises(DomainError):
                g.require(point)

    def test_points_lexicographic(self):
        pts = list(Grid((2, 2)).points())
        assert pts == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_parse_point(self):
        assert parse_point("4,1") == (4, 1)
        with pytest.raises(DomainError):
            parse_point("4,")


_G = Grid((5, 4))
_SPEC = CyclicCodeSpec((6, 4), (1, 1))
_CODE = GridCode(_G, ((0, 0), (4, 3)))
_SWEEP = dict(grid="5,4", distance=None, format="json")

#: Every integer parameter the library takes: (name in the message, lower
#: bound, the call with the parameter set to v).
GATED = [
    ("radius", 0, lambda v: eta(_G, v)),
    ("radius", 0, lambda v: gamma(_G, v)),
    ("radius", 0, lambda v: ball_size_at(_G, (1, 2), v)),
    ("radius", 0, lambda v: BallSpec((1, 2), v)),
    ("radius", 0, lambda v: analyze(_CODE, (1, v))),
    ("radius", 0, lambda v: eta_value(_G.dims, v)),
    ("radius", 0, lambda v: gamma_value(_G.dims, v)),
    ("dimension", 1, lambda v: simplex_count(v, 2)),
    ("dimension", 1, lambda v: zn_ball_size(v, 2)),
    ("design distance", 1, lambda v: bound_report(_G, v)),
    ("design distance", 1, lambda v: hamming_bound(_G, v)),
    ("design distance", 1, lambda v: greedy_code(_G, v)),
    ("design distance", 1, lambda v: exact_max_code(_G, v)),
    ("node budget", 0, lambda v: exact_max_code(_G, 2, node_budget=v)),
    ("component order", 2, lambda v: CyclicCodeSpec((v, 4), (1, 1))),
    ("power", None, lambda v: codeword(_SPEC, v)),
    ("power", None, lambda v: codeword_distance(_SPEC, v, 0)),
    ("power", None, lambda v: codeword_distance(_SPEC, 0, v)),
    ("--sweep", 1, lambda v: cmd_bounds(argparse.Namespace(sweep=v, **_SWEEP))),
]


@pytest.mark.parametrize("what, low, call", GATED)
def test_integer_inputs_pass_one_gate(what, low, call):
    # A valid call first, so that a memo keyed on equal values (True == 1,
    # 2.0 == 2) is warm.  No report can then hold a bool such as
    # "radius": true, and no float reaches a kernel.
    call(2 if low is None else low + 1)
    for value in (1.5, True, "2"):
        with pytest.raises(DomainError, match=f"^{re.escape(what)} {value!r} is not an integer$"):
            call(value)
    if low is not None:
        with pytest.raises(DomainError, match=f"^{re.escape(what)} {low - 1} must be >= {low}$"):
            call(low - 1)


def test_integer_gate():
    assert integer(7, "x") == 7 and integer(7, "x", 7) == 7
    assert type(integer(np.int64(3), "x", 0)) is int
    with pytest.raises(DomainError, match="^x -3 must be >= 0$"):
        integer(np.int8(-3), "x", 0)


def test_raw_kernels_check_their_dims():
    # eta_value((5, 0), 2) answered 3 for an empty box.  The dims are checked
    # when the memo misses; a tuple equal to a checked one (True == 1,
    # 5.0 == 5) shares its entry, so the memo starts empty here.
    balls._sizes.cache_clear()
    for dims in [(5, 0), (5, -3), (), (5.0, 4), (True, 4)]:
        for kernel in (eta_value, gamma_value):
            with pytest.raises(DomainError):
                kernel(dims, 2)


def test_powers_are_integers():
    # codeword_distance(spec, 1.5, 0) answered 3.0, codeword(spec, 2.5) (2.5, 2.5).
    assert codeword(_SPEC, np.int64(7)) == codeword(_SPEC, 7) == (1, 3)
    assert codeword_distance(_SPEC, np.int16(3), 0) == codeword_distance(_SPEC, 3, 0)
    with pytest.raises(DomainError, match="^power 12 outside"):
        codeword_distance(_SPEC, 12, 0)


class TestMetrics:
    @settings(max_examples=60)
    @given(grid_and_points(count=3))
    def test_metric_axioms(self, data):
        grid, a, b, c = data
        for dist in (manhattan_distance, lee_distance, hamming_distance):
            assert dist(grid, a, b) == dist(grid, b, a)
            assert (dist(grid, a, b) == 0) == (a == b)
            assert dist(grid, a, c) <= dist(grid, a, b) + dist(grid, b, c)

    @settings(max_examples=60)
    @given(grid_and_points())
    def test_metric_chain(self, data):
        grid, a, b = data
        assert (
            hamming_distance(grid, a, b)
            <= lee_distance(grid, a, b)
            <= manhattan_distance(grid, a, b)
        )

    @settings(max_examples=40)
    @given(grid_and_points())
    def test_side_two_collapses_all_metrics(self, data):
        grid, a, b = data
        if any(m > 2 for m in grid.dims):
            return
        assert manhattan_distance(grid, a, b) == hamming_distance(grid, a, b)
        assert lee_distance(grid, a, b) == hamming_distance(grid, a, b)

    def test_lee_wraps(self):
        g = Grid((9,))
        assert lee_distance(g, (1,), (2,)) == 1
        assert lee_distance(g, (0,), (8,)) == 1
        assert manhattan_distance(g, (1,), (5,)) == 4


class TestEnumerateBall:
    def test_nesting_across_metrics(self):
        g = Grid((4, 4))
        spec = BallSpec((1, 2), 2)
        manhattan = set(enumerate_ball(g, spec, "manhattan"))
        lee = set(enumerate_ball(g, spec, "lee"))
        hamming = set(enumerate_ball(g, spec, "hamming"))
        assert manhattan <= lee <= hamming

    def test_lee_ball_regression(self):
        # The wrap-around ball is strictly smaller than the free-space count.
        g = Grid((4, 4))
        assert len(enumerate_ball(g, BallSpec((0, 0), 3), "lee")) == 15

    def test_matches_direct_scan(self):
        g = Grid((3, 4))
        rng = random.Random(7)
        for _ in range(10):
            center = (rng.randrange(3), rng.randrange(4))
            r = rng.randrange(6)
            got = enumerate_ball(g, BallSpec(center, r))
            want = [
                p
                for p in g.points()
                if manhattan_distance(g, center, p) <= r
            ]
            assert got == want

    def test_lee_window(self):
        # Each axis keeps its window c - r .. c + r around the cycle, built
        # without a scan of the side.
        rng = random.Random(13)
        for _ in range(300):
            g = Grid(tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 3))))
            center = tuple(rng.randrange(m) for m in g.dims)
            r = rng.randrange(8)
            want = [p for p in g.points() if lee_distance(g, center, p) <= r]
            assert enumerate_ball(g, BallSpec(center, r), "lee") == want
        side = 10**7
        start = time.perf_counter()
        ball = enumerate_ball(Grid((side,)), BallSpec((0,), 1), "lee", budget=100)
        assert ball == [(0,), (1,), (side - 1,)]
        ball = enumerate_ball(Grid((3, side)), BallSpec((1, side - 1), 1), "lee", budget=100)
        assert ball == [(0, side - 1), (1, 0), (1, side - 2), (1, side - 1), (2, side - 1)]
        assert time.perf_counter() - start < 1

    def test_budget(self):
        from gridcodes import BudgetError

        g = Grid((100, 100))
        with pytest.raises(BudgetError):
            enumerate_ball(g, BallSpec((50, 50), 60), budget=100)

    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            BallSpec((0, 0), -1)


class TestPairwiseDistances:
    def test_extremes(self):
        g = Grid((8, 8, 8, 8))
        pts = [(0, 0, 0, 0), (2, 2, 4, 4), (4, 4, 0, 0), (6, 6, 4, 4)]
        assert pairwise_distance_extremes(g, pts) == {
            "manhattan": (8, 20), "lee": (8, 12), "hamming": (2, 4),
        }

    def test_single_point_undefined(self):
        g = Grid((3, 3))
        with pytest.raises(DomainError):
            pairwise_distance_extremes(g, [(0, 0)])

    def test_brute_force_agreement(self):
        # The 600-point set spans several kernel blocks.
        small = (Grid((4, 3)), [(0, 0), (3, 2), (1, 1), (2, 0)])
        big = Grid((30, 30))
        many = random.Random(3).sample(list(big.points()), 600)
        assert len(many) > 2 * CHUNK
        for g, pts in (small, (big, many)):
            got = pairwise_distance_extremes(g, pts)
            assert list(got) == list(METRICS)
            for metric in METRICS:
                dist = metric_function(metric)
                dists = [dist(g, a, b) for a, b in itertools.combinations(pts, 2)]
                assert got[metric] == (min(dists), max(dists)), metric

    def test_both_paths_match_the_per_pair_metrics(self, kernel_path):
        rng = random.Random(61)
        cases = [(Grid((2**62, 1, 2**62)), [(0, 0, 0), (2**62 - 1, 0, 1), (5, 0, 2**61)])]
        for trial in range(100):
            g = Grid(tuple(rng.choice((1, 2, 3, 5, 8)) for _ in range(trial % 5 + 1)))
            pts = list(g.points())
            if len(pts) >= 2:
                cases.append((g, rng.sample(pts, rng.randint(2, min(len(pts), 40)))))
        for g, pts in cases:
            got = pairwise_distance_extremes(g, pts)
            assert list(got) == list(METRICS)
            for metric in METRICS:
                dist = metric_function(metric)
                dists = [dist(g, a, b) for a, b in itertools.combinations(pts, 2)]
                assert got[metric] == (min(dists), max(dists)), (g.dims, metric)
                assert all(type(v) is int for v in got[metric])

    def test_exact_past_int64(self):
        # Sides summing past int32 take int64 entries, and past int64 the
        # pure path's Python ints.
        for side in (2**40, 2**62):
            g = Grid((side, side, side))
            pts = [(0, 0, 0), (side - 1, side - 1, side - 1), (1, 0, 0)]
            assert pairwise_distance_extremes(g, pts) == {
                "manhattan": (1, 3 * (side - 1)), "lee": (1, 4), "hamming": (1, 3),
            }

    def test_peak_memory_of_the_blocks(self):
        # Five CHUNK-row buffers must hold no more cells than two 512-row
        # blocks; 1000 points take five blocks of int32s.  The warm-up keeps
        # numpy's lazy imports out of the trace.
        g = Grid((10, 10, 10))
        pts = list(g.points())
        pairwise_distance_extremes(g, pts[:3])
        tracemalloc.start()
        try:
            pairwise_distance_extremes(g, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 512 * len(pts) * 4 + 2**19

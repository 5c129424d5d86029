import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcodes import (
    BallSpec,
    DomainError,
    Grid,
    enumerate_ball,
    hamming_distance,
    lee_distance,
    manhattan_distance,
    pairwise_distance_extremes,
    parse_point,
)
from gridcodes.grid import CHUNK, metric_function

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

    def test_volume_diameter(self):
        g = Grid((5, 2))
        assert g.volume() == 10
        assert g.diameter() == 5

    def test_contains_and_require(self):
        g = Grid((5, 2))
        assert (4, 1) in g
        assert (5, 0) not in g
        assert (0, 0, 0) not in g
        with pytest.raises(DomainError):
            g.require((4, 2))

    def test_points_lexicographic(self):
        pts = list(Grid((2, 2)).points())
        assert pts == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_parse_point(self):
        assert parse_point("4,1") == (4, 1)
        with pytest.raises(DomainError):
            parse_point("4,")


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
        assert pairwise_distance_extremes(g, pts, "manhattan") == (8, 20)
        assert pairwise_distance_extremes(g, pts, "hamming") == (2, 4)

    def test_single_point_undefined(self):
        g = Grid((3, 3))
        with pytest.raises(DomainError):
            pairwise_distance_extremes(g, [(0, 0)])

    def test_brute_force_agreement(self):
        # The 600-point set spans two kernel blocks (CHUNK = 512 rows).
        small = (Grid((4, 3)), [(0, 0), (3, 2), (1, 1), (2, 0)])
        big = Grid((30, 30))
        many = random.Random(3).sample(list(big.points()), 600)
        assert len(many) > CHUNK
        for g, pts in (small, (big, many)):
            for metric in ("manhattan", "lee", "hamming"):
                dist = metric_function(metric)
                dists = [dist(g, a, b) for a, b in itertools.combinations(pts, 2)]
                got = pairwise_distance_extremes(g, pts, metric)
                assert got == (min(dists), max(dists)), metric

    def test_exact_past_int64(self):
        side = 2**62
        g = Grid((side, side, side))
        pts = [(0, 0, 0), (side - 1, side - 1, side - 1), (1, 0, 0)]
        assert pairwise_distance_extremes(g, pts) == (1, 3 * (side - 1))
        assert pairwise_distance_extremes(g, pts, "lee") == (1, 4)
        assert pairwise_distance_extremes(g, pts, "hamming") == (1, 3)

import random

import pytest

from conftest import enumerate_zn_ball, random_grid_family

from gridcodes import (
    DomainError,
    Grid,
    bound_report,
    exact_max_code,
    gv_bound,
    hamming_bound,
    zn_ball_size,
)


class TestZnBall:
    def test_regression(self):
        assert zn_ball_size(2, 3) == 25

    def test_brute_force(self):
        for n in range(1, 4):
            for r in range(6):
                assert zn_ball_size(n, r) == len(
                    enumerate_zn_ball(n, (0,) * n, r)
                )

    def test_domain(self):
        assert zn_ball_size(3, -1) == 0
        with pytest.raises(DomainError):
            zn_ball_size(0, 2)


class TestBoundReport:
    def test_hamming_regression(self):
        g = Grid((5, 2))
        assert hamming_bound(g, 5) == 2
        assert hamming_bound(g, 3) == 3

    def test_hamming_bound_is_the_report_upper(self):
        for dims in random_grid_family():
            g = Grid(dims)
            for d in range(1, g.diameter() + 2):
                assert hamming_bound(g, d) == bound_report(g, d).hamming_upper, (dims, d)
        with pytest.raises(DomainError):
            hamming_bound(Grid((5, 2)), 0)

    def test_gv_regression(self):
        # The strong lower bound certifies at least 2 codewords at d = 5.
        assert gv_bound(Grid((10, 4, 4)), 5)[1] == 2

    def test_weak_never_beats_strong(self):
        rng = random.Random(3)
        for _ in range(20):
            dims = tuple(rng.randint(1, 7) for _ in range(rng.randint(1, 3)))
            g = Grid(dims)
            for d in range(1, g.diameter() + 2):
                weak, strong = gv_bound(g, d)
                assert 1 <= weak <= strong <= hamming_bound(g, d)

    def test_degenerate_flag(self):
        g = Grid((3, 3))
        assert not bound_report(g, 5).degenerate
        assert bound_report(g, 6).degenerate
        assert bound_report(g, 6).hamming_upper == 1

    def test_distance_one(self):
        g = Grid((4, 4))
        report = bound_report(g, 1)
        assert report.hamming_upper == 16
        assert report.gv_lower_strong == 16

    def test_rejects_bad_distance(self):
        with pytest.raises(DomainError):
            bound_report(Grid((3,)), 0)

    def test_json_fields(self):
        data = bound_report(Grid((5, 2)), 3).to_json_dict()
        assert data["dims"] == [5, 2]
        assert data["packing_radius"] == 1
        assert set(data) == {
            "dims",
            "distance",
            "packing_radius",
            "hamming_upper",
            "gv_lower_strong",
            "gv_lower_weak",
            "degenerate",
        }


class TestSandwich:
    def test_small_grids_all_distances(self):
        for dims in [(5, 2), (4, 4), (3, 3, 3), (7,)]:
            g = Grid(dims)
            for d in range(1, g.diameter() + 2):
                size, code = exact_max_code(g, d, time_budget=10)
                report = bound_report(g, d)
                assert (
                    report.gv_lower_weak
                    <= report.gv_lower_strong
                    <= size
                    <= report.hamming_upper
                ), (dims, d)

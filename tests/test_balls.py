import math
import random

import pytest

from gridcodes import (
    BallSpec,
    BudgetError,
    DomainError,
    Grid,
    ball_size_at,
    decompose_ball_orthants,
    decompose_ball_slices,
    enumerate_ball,
    eta,
    eta_value,
    exclusion_levels,
    gamma,
    gamma_value,
    innermost_set,
    outermost_set,
    simplex_count,
)
from gridcodes import balls
from gridcodes.balls import _ball_at, _eta, _profile, _sizes, orthant_subgrid_dims

from conftest import ball_size_table, enumerate_zn_ball, random_grid_family


def _cube_eta(n, m, r):
    """Corner ball size of the cube [0, m-1]^n by the binomial shortcut."""
    return sum(
        (-1) ** k * math.comb(n, k) * simplex_count(n, r - k * m)
        for k in range(r // m + 1)
    )


class TestCountingPrimitives:
    def test_simplex_count_small(self):
        assert simplex_count(1, 4) == 5
        assert simplex_count(2, 2) == 6
        assert simplex_count(3, 0) == 1
        assert simplex_count(3, -1) == 0

    def test_simplex_count_is_partial_sum(self):
        for n in range(1, 5):
            for r in range(8):
                assert simplex_count(n, r) == sum(
                    math.comb(j + n - 1, j) for j in range(r + 1)
                )

    def test_cross_polytope_brute_force(self):
        # A ball centred in a grid of side 2r + 1 is never clipped: it is the
        # full cross-polytope of Z^n, as enumerated by the oracle.
        for n in range(1, 4):
            for r in range(6):
                g = Grid((2 * r + 1,) * n)
                want = len(enumerate_zn_ball(n, (0,) * n, r))
                assert ball_size_at(g, (r,) * n, r).value == want

    def test_cross_polytope_regression(self):
        assert ball_size_at(Grid((7, 7)), (3, 3), 3).value == 25


class TestExclusionLevels:
    def test_contents(self):
        levels = exclusion_levels((2, 2, 10), 5)
        assert levels[0].k == 1
        assert levels[0].subsets == ((0,), (1,))
        assert levels[0].slacks == (3, 3)
        assert levels[1].subsets == ((0, 1),)
        assert levels[1].slacks == (1,)
        assert len(levels) == 2

    def test_downward_closed(self):
        levels = exclusion_levels((2, 3, 4, 5), 9)
        sets = [set(level.subsets) for level in levels]
        for k in range(1, len(sets)):
            for subset in sets[k]:
                for i in range(len(subset)):
                    assert subset[:i] + subset[i + 1 :] in sets[k - 1]

    def test_empty_when_radius_small(self):
        assert exclusion_levels((5, 5), 3) == []


class TestEtaGamma:
    def test_eta_regressions(self):
        assert eta_value((2, 2, 10), 5) == 20
        assert eta_value((7, 7), 9) == 43
        assert eta_value((5, 2), 2) == 5
        assert eta_value((5, 2), 1) == 3

    def test_gamma_regressions(self):
        assert gamma_value((9, 4, 4), 4) == 80
        assert gamma_value((9, 4), 4) == 28
        assert gamma_value((10, 4, 4), 4) == 80

    def test_gamma_small_grid_brute_force(self):
        # Max over every center, verified by enumeration: 8 at center (2, 0).
        g = Grid((5, 2))
        sizes = {
            p: len(enumerate_ball(g, BallSpec(p, 2))) for p in g.points()
        }
        assert max(sizes.values()) == 8
        assert gamma_value((5, 2), 2) == 8
        assert gamma_value((5, 2), 1) == 4

    def test_reports(self):
        g = Grid((5, 2))
        report = eta(g, 2)
        assert report.value == 5
        assert report.kind == "eta"
        assert eta(g, 0).path == "formula-direct"
        assert gamma(g, 0).path == "gamma-trivial-small"
        assert gamma(g, 9).value == g.volume()

    def test_large_boxes_cost_the_radius(self):
        # A long profile is cut above r: each axis keeps only the points near
        # the center; a radius that leaves the profile large is refused.
        assert eta_value((20000,) * 3, 3) == math.comb(6, 3)
        assert gamma_value((2**40, 2), 2) == 8
        with pytest.raises(BudgetError, match="ball profile needs 19922969 products"):
            eta_value((10**9,) * 3, 10**6)
        # The cut is at the power of two above r, so a sweep over r builds
        # one profile per power of two, not one per radius.
        _profile.cache_clear()
        sizes = [gamma_value((20000,) * 3, r) for r in range(300)]
        assert _profile.cache_info().currsize == 10  # t = 1, 2, 4, ..., 512
        assert sizes[:3] == [1, 7, 25] and sizes == sorted(sizes)

    def test_cut_profile_matches_the_full_one(self, monkeypatch):
        # A budget of 10^5 stores none of these full profiles, but admits
        # every cut profile these radii need.
        rng = random.Random(7)
        cases = []
        for dims in [(3, 1700), (2, 5, 1100)]:
            for _ in range(150):
                x = tuple(rng.randrange(m) for m in dims)
                axes, full = _sizes(dims, x)
                r = rng.randint(0, sum(dims))
                cases.append((dims, x, r, full[min(r, len(full) - 1)]))
        monkeypatch.setattr(balls, "DEFAULT_BUDGET", 10**5)
        _sizes.cache_clear()
        try:
            for dims, x, r, expected in cases:
                assert ball_size_at(Grid(dims), x, r).value == expected, (dims, x, r)
                assert _sizes(dims, x)[1] is None, dims
        finally:
            _sizes.cache_clear()

    def test_center_memo_is_bounded(self):
        # One query per center of a box of 4590 points fills the memo to its
        # cap and no further; the centers it drops still get the same sizes.
        dims = (18, 17, 15)
        table = ball_size_table(dims)
        centers = list(Grid(dims).points())
        _sizes.cache_clear()
        try:
            for _ in range(2):
                for i, x in enumerate(centers):
                    assert ball_size_at(Grid(dims), x, 5).value == table[i, 5], x
                info = _sizes.cache_info()
                assert info.currsize == info.maxsize == 4096
        finally:
            _sizes.cache_clear()

    def test_profile_memo_is_bounded(self):
        # The centers (x, y) with x < 100 and y < 50 of the 199x99 box have
        # 5000 distinct (far, near) profiles, so one query each fills the
        # profile memo to its cap and no further; every size stays exact.
        m1, m2, r = 199, 99, 5

        def size(x, y):
            return sum(1 + min(r - abs(dx), y) + min(r - abs(dx), m2 - 1 - y)
                       for dx in range(-min(r, x), min(r, m1 - 1 - x) + 1))

        grid = Grid((m1, m2))
        _profile.cache_clear()
        try:
            for _ in range(2):
                for x in range(100):
                    for y in range(50):
                        assert ball_size_at(grid, (x, y), r).value == size(x, y), (x, y)
                info = _profile.cache_info()
                assert info.currsize == info.maxsize == 4096
        finally:
            _profile.cache_clear()

    def test_kernel_matches_the_distance_table(self):
        # Every center and radius of random small boxes, against the tests'
        # own numpy oracle; the full and the cut profile both.
        rng = random.Random(25)
        for _ in range(40):
            dims = tuple(rng.randint(1, 7) for _ in range(rng.randint(1, 4)))
            table = ball_size_table(dims)
            for i, x in enumerate(Grid(dims).points()):
                axes, full = _sizes(dims, x)
                for r in range(table.shape[1]):
                    assert full[min(r, len(full) - 1)] == table[i, r], (dims, x, r)
                    assert _profile(axes, r)[-1] == table[i, r], (dims, x, r)

    def test_kernel_matches_windows_on_long_sides(self):
        # On two axes the ball is a sum of one-dimensional windows, one per
        # coordinate of the first axis: no code shared with the kernel.
        rng = random.Random(26)
        for _ in range(12):
            m1, m2 = rng.randint(10**3, 10**4), rng.randint(10**3, 10**4)
            for x1, x2 in [(0, 0), ((m1 - 1) // 2, (m2 - 1) // 2),
                           (rng.randrange(m1), rng.randrange(m2))]:
                r = rng.randint(0, m1 + m2)
                want = sum(
                    min(x2 + k, m2 - 1) - max(x2 - k, 0) + 1
                    for t in range(m1) if (k := r - abs(t - x1)) >= 0
                )
                got = ball_size_at(Grid((m1, m2)), (x1, x2), r).value
                assert got == want, (m1, m2, x1, x2, r)
            assert eta_value((m1, m2), r) <= got <= gamma_value((m1, m2), r)

    def test_negative_radius(self):
        with pytest.raises(DomainError):
            eta(Grid((3,)), -1)
        with pytest.raises(DomainError):
            gamma(Grid((3,)), -2)

    def test_extremes_match_enumeration(self):
        rng = random.Random(11)
        for _ in range(12):
            dims = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
            g = Grid(dims)
            for r in range(g.diameter() + 2):
                sizes = [
                    len(enumerate_ball(g, BallSpec(p, r))) for p in g.points()
                ]
                assert eta_value(dims, r) == min(sizes), (dims, r)
                assert gamma_value(dims, r) == max(sizes), (dims, r)
        # The paper's recursions (the reproduction path) agree with the
        # kernel; on equal sides the corner size has a binomial shortcut too.
        cubes = [(7, 7), (3, 3, 3), (4, 4, 4, 4), (2,) * 6, (5,) * 5]
        for dims in sorted(set(random_grid_family())) + cubes:
            reduced = tuple(sorted(m for m in dims if m > 1))
            middle = tuple((m - 1) // 2 for m in reduced)
            for r in range(Grid(dims).diameter() + 2):
                assert _eta(reduced, r) == eta_value(dims, r), (dims, r)
                assert _ball_at(reduced, middle, r) == gamma_value(dims, r), (dims, r)
                if len(set(reduced)) == 1:
                    cube = _cube_eta(len(reduced), reduced[0], r)
                    assert cube == _eta(reduced, r), (dims, r)

    def test_monotone_and_saturating(self):
        dims = (4, 5, 3)
        volume = math.prod(dims)
        last_eta = last_gamma = 0
        for r in range(sum(dims)):
            e, c = eta_value(dims, r), gamma_value(dims, r)
            assert last_eta <= e and last_gamma <= c
            assert e <= c <= volume
            last_eta, last_gamma = e, c
        assert last_eta == last_gamma == volume

    def test_extremal_sets(self):
        g = Grid((5, 2))
        assert outermost_set(g) == {(0, 0), (0, 1), (4, 0), (4, 1)}
        assert innermost_set(g) == {(2, 0), (2, 1)}
        assert innermost_set(Grid((3,))) == {(1,)}


class TestBallSizeAt:
    def test_matches_enumeration(self):
        rng = random.Random(5)
        for _ in range(10):
            dims = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
            g = Grid(dims)
            for _ in range(6):
                x = tuple(rng.randrange(m) for m in dims)
                r = rng.randrange(g.diameter() + 2)
                want = len(enumerate_ball(g, BallSpec(x, r)))
                assert ball_size_at(g, x, r).value == want, (dims, x, r)
        # The section/orthant recursion agrees with the kernel.
        for dims in sorted(set(random_grid_family())):
            g = Grid(dims)
            for _ in range(2):
                x = tuple(rng.randrange(m) for m in dims)
                for r in range(g.diameter() + 2):
                    want = _ball_at(dims, x, r)
                    assert ball_size_at(g, x, r).value == want, (dims, x, r)

    def test_worked_example(self):
        g = Grid((5, 2))
        assert ball_size_at(g, (2, 0), 2).value == 8
        assert ball_size_at(g, (0, 0), 2).value == 5
        assert ball_size_at(g, (4, 1), 0).value == 1

    def test_center_validated(self):
        with pytest.raises(DomainError):
            ball_size_at(Grid((5, 2)), (5, 0), 1)


class TestDecompositions:
    def _random_cases(self, count):
        rng = random.Random(23)
        for _ in range(count):
            dims = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
            g = Grid(dims)
            x = tuple(rng.randrange(m) for m in dims)
            r = rng.randrange(g.diameter() + 2)
            yield g, x, r

    def test_slices_partition_ball(self):
        for g, x, r in self._random_cases(25):
            ball = set(enumerate_ball(g, BallSpec(x, r)))
            dec = decompose_ball_slices(g, x, r)
            pieces = [pts for _, pts in dec.pieces()]
            union = [p for pts in pieces for p in pts]
            assert len(union) == len(set(union)) == len(ball)
            assert set(union) == ball

    def test_slice_sizes_are_lower_dimensional_balls(self):
        for g, x, r in self._random_cases(25):
            if g.n < 2:
                continue
            dec = decompose_ball_slices(g, x, r)
            sub = Grid(g.dims[:-1])
            for h in range(1, r + 1):
                for sign, pts in (("+", dec.plus[h]), ("-", dec.minus[h])):
                    coord = x[-1] + h if sign == "+" else x[-1] - h
                    if not 0 <= coord <= g.dims[-1] - 1:
                        assert pts == ()
                        continue
                    assert len(pts) == ball_size_at(sub, x[:-1], r - h).value

    def test_orthants_partition_ball(self):
        for g, x, r in self._random_cases(25):
            ball = set(enumerate_ball(g, BallSpec(x, r)))
            dec = decompose_ball_orthants(g, x, r)
            union = list(dec.centric)
            for pts in dec.orthants.values():
                union.extend(pts)
            assert len(union) == len(set(union)) == len(ball)
            assert set(union) == ball
            if r < g.n:
                assert dec.orthants == {}

    def test_orthant_sizes_are_corner_balls(self):
        for g, x, r in self._random_cases(25):
            if r < g.n:
                continue
            dec = decompose_ball_orthants(g, x, r)
            for b, pts in dec.orthants.items():
                inside = all(
                    0 <= xi + bi <= m - 1
                    for xi, bi, m in zip(x, b, g.dims)
                )
                if not inside:
                    assert pts == ()
                    continue
                sub = orthant_subgrid_dims(g, x, b)
                assert len(pts) == eta_value(sub, r - g.n), (g.dims, x, r, b)

"""Exact Manhattan ball sizes in a grid.

All ball sizes come from one kernel.  Along an axis of side m, a center at
distances near <= far from its ends has 1 + [k <= near] + [k <= far] points
at each distance k >= 1: the factor G_near + G_far - 1 with G_L = 1 + z +
... + z^L.  The product over the axes counts the box by distance from the
center, and its prefix sums are the ball sizes at every radius.  Multiplying
by G_L takes a difference of two prefix sums, so each axis costs a few passes
over the product so far, and the list elements built are charged to the
budget.  ``eta`` (corners, the smallest balls), ``gamma`` (the middle, the
largest) and ``ball_size_at`` read a profile kept for the last 4096 grids
and centers, cut above the radius past 1% of the budget.

The paper's formulas stay as the reproduction path that the tests compare
with the kernel: the corner size by inclusion-exclusion over the directions
in which the ball overflows the box (``_eta``), and the size at any center by
the recursion over axis sections and corner-type orthant pieces
(``_ball_at``), whose pieces the decompositions below enumerate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, lru_cache

from .errors import check_budget
from .grid import DEFAULT_BUDGET, BallSpec, Grid, Point, enumerate_ball, integer


def simplex_count(n: int, r: int) -> int:
    """Points of the nonnegative orthant of Z^n with coordinate sum <= r.

    Equals sum_{j=0}^{r} C(j+n-1, j); zero for negative r.
    """
    n = integer(n, "dimension", 1)
    if r < 0:
        return 0
    return sum(math.comb(j + n - 1, j) for j in range(r + 1))


@dataclass(frozen=True)
class ExclusionIndex:
    """The k-subsets of coordinates whose side lengths sum to at most r.

    ``slacks[i]`` is r minus that sum for ``subsets[i]``.  These index the
    inclusion-exclusion terms of the corner ball size.
    """

    k: int
    subsets: tuple[tuple[int, ...], ...]
    slacks: tuple[int, ...]


def exclusion_levels(dims: tuple[int, ...], r: int) -> list[ExclusionIndex]:
    """Build the non-empty exclusion families level by level.

    A k-subset is admissible only if all its (k-1)-subsets are, so each level
    is grown from the previous one instead of scanning all of 2^n.
    """
    levels: list[ExclusionIndex] = []
    prev = [((), r)]
    k = 1
    while prev:
        cur = []
        for subset, slack in prev:
            start = subset[-1] + 1 if subset else 0
            for j in range(start, len(dims)):
                t = slack - dims[j]
                if t >= 0:
                    cur.append((subset + (j,), t))
        if not cur:
            break
        levels.append(
            ExclusionIndex(
                k,
                tuple(s for s, _ in cur),
                tuple(t for _, t in cur),
            )
        )
        prev = cur
        k += 1
    return levels


@dataclass(frozen=True)
class BallSizeReport:
    """One exact ball size; ``value`` comes from the generating-function kernel.

    ``path`` names the regime of the paper's formula for these inputs, not
    the code that ran: "formula-direct" (one point, the whole box, or a
    corner ball that overflows no side), "formula-inclusion-exclusion",
    "gamma-trivial-small" (the ball fits in the box), "gamma-trivial-large"
    (it covers the box) or "gamma-recursive" (sections and orthants).
    """

    grid: Grid
    radius: int
    kind: str  # "eta" | "gamma" | "at-point"
    value: int
    path: str
    center: Point | None = None

    def to_json_dict(self) -> dict:
        out = {
            "dims": list(self.grid.dims),
            "radius": self.radius,
            "kind": self.kind,
            "value": self.value,
            "path": self.path,
        }
        if self.center is not None:
            out["center"] = list(self.center)
        return out


def innermost_set(grid: Grid) -> set[Point]:
    """Centers whose balls are largest: the (near-)middle points of the box."""
    return set(
        itertools.product(*(((m - 1) // 2, m // 2) for m in grid.dims))
    )


def outermost_set(grid: Grid) -> set[Point]:
    """Centers whose balls are smallest: the corners of the box."""
    return set(itertools.product(*((0, m - 1) for m in grid.dims)))


def _reduced(dims) -> tuple[int, ...]:
    """Drop frozen coordinates (side length 1); they never extend a ball."""
    return tuple(m for m in dims if m > 1)


def _cost(axes, top: int) -> int:
    """List elements that ``_profile(axes, top)`` builds."""
    length, work = 1, 0
    for far, near in axes:
        length = min(length + far, top + 1)
        work += far + near + 5 * length + 3
    return work + length


@lru_cache(maxsize=4096)
def _profile(axes: tuple[tuple[int, int], ...], top: int) -> tuple[int, ...]:
    """Ball sizes at radii 0..top, fewer once the ball holds the whole box.

    ``axes`` holds one (far, near) pair per axis of side > 1: the center's
    distances to the two ends of the axis; cutting them to ``top`` saves work.
    """
    check_budget(_cost(axes, top), DEFAULT_BUDGET, "ball profile needs {} products")
    counts = [1]  # counts[k]: points of the box at distance k from the center
    for far, near in axes:
        w = [0] * far  # w[far + k] = counts[0] + ... + counts[k - 1]
        w += itertools.accumulate(counts, initial=0)
        w += [w[-1]] * (min(len(counts) + far, top + 1) - len(counts))
        # times G_far + G_near - 1: counts[k - far..k] + counts[k - near..k - 1]
        counts = [a + b - x - y for a, b, x, y
                  in zip(w[far + 1:], w[far:], w[far - near:], w)]
    return tuple(itertools.accumulate(counts))


@lru_cache(maxsize=4096)
def _sizes(dims: tuple[int, ...], center: tuple[int, ...] | None):
    """Sorted (far, near) axes around ``center`` (None: the middle); their profile if short."""
    dims = Grid(dims).dims  # the exported kernels take raw dims
    center = center or [(m - 1) // 2 for m in dims]
    axes = tuple(sorted((m - 1 - c, c) if 2 * c < m else (c, m - 1 - c)
                        for m, c in zip(dims, center) if m > 1))
    top = sum(far for far, _ in axes)
    return axes, _profile(axes, top) if _cost(axes, top) * 100 <= DEFAULT_BUDGET else None


def _ball(dims, center, r: int) -> int:
    """Size of the radius-r ball around ``center``; a long profile is cut at
    a power of two t > r, each axis keeping its points within t of the center."""
    r = integer(r, "radius", 0)
    axes, sizes = _sizes(tuple(dims), center)
    if sizes is None:  # a sweep over r builds few profiles
        t = 1 << r.bit_length()
        sizes = _profile(tuple((min(f, t), min(n, t)) for f, n in axes), t)
    return sizes[min(r, len(sizes) - 1)]


def eta_value(dims, r: int) -> int:
    """Minimum radius-r ball size over all centers: the size at a corner."""
    return _ball(dims, (0,) * len(dims), r)


def eta(grid: Grid, r: int) -> BallSizeReport:
    """Exact minimum radius-r ball size over all centers of the grid."""
    r = integer(r, "radius", 0)
    path = ("formula-direct" if r >= grid.diameter() or r < min(_reduced(grid.dims))
            else "formula-inclusion-exclusion")
    return BallSizeReport(grid, r, "eta", eta_value(grid.dims, r), path)


def gamma_value(dims, r: int) -> int:
    """Maximum radius-r ball size over all centers: the size at the middle."""
    return _ball(dims, None, r)


def gamma(grid: Grid, r: int) -> BallSizeReport:
    """Exact maximum radius-r ball size over all centers of the grid."""
    r = integer(r, "radius", 0)
    dims = _reduced(grid.dims)
    if not dims or r <= min((m - 1) // 2 for m in dims):
        path = "gamma-trivial-small"
    elif r >= sum(m // 2 for m in dims):
        path = "gamma-trivial-large"
    else:
        path = "gamma-recursive"
    return BallSizeReport(grid, r, "gamma", gamma_value(grid.dims, r), path)


def ball_size_at(grid: Grid, x: Point, r: int) -> BallSizeReport:
    """Exact ball size around an arbitrary center, without enumeration."""
    x = grid.require(x)
    r = integer(r, "radius", 0)
    path = ("formula-direct" if r == 0 or r >= grid.diameter()
            else "formula-inclusion-exclusion")
    value = _ball(grid.dims, x, r)
    return BallSizeReport(grid, r, "at-point", value, path, center=x)


# The paper's recursions: the reproduction path the tests check the kernel by.


@cache
def _eta(dims: tuple[int, ...], r: int) -> int:
    """Minimum ball size for the reduced, sorted dims tuple; 0 for r < 0."""
    if r < 0:
        return 0
    n = len(dims)
    if n == 0:
        return 1
    if r >= sum(m - 1 for m in dims):
        return math.prod(dims)
    if r < min(dims):
        return simplex_count(n, r)
    value = simplex_count(n, r)
    for level in exclusion_levels(dims, r):
        sign = 1 if level.k % 2 == 1 else -1
        value -= sign * sum(simplex_count(n, t) for t in level.slacks)
    return value


def _orthant_signs(dims, x):
    """Sign vectors b with x + b still inside the box."""
    out = []
    for b in itertools.product((-1, 1), repeat=len(dims)):
        if all(0 <= xi + bi <= m - 1 for xi, bi, m in zip(x, b, dims)):
            out.append(b)
    return out


def _orthant_side(m: int, xi: int, bi: int) -> int:
    """Largest coordinate of the orthant piece after folding onto N_{r-n}."""
    return abs(m - (xi + 2)) if bi == 1 else abs(xi - 1)


@cache
def _ball_at(dims: tuple[int, ...], x: tuple[int, ...], r: int) -> int:
    """Size of the radius-r ball around x intersected with the box ``dims``.

    Inclusion-exclusion over the axis sections through x, plus one
    corner-type term per orthant touched when r >= n.
    """
    if r < 0:
        return 0
    keep = [i for i, m in enumerate(dims) if m > 1]
    dims = tuple(dims[i] for i in keep)
    x = tuple(x[i] for i in keep)
    n = len(dims)
    if n == 0:
        return 1
    if n == 1:
        total = 1
        if r >= 1:
            for b in _orthant_signs(dims, x):
                total += _eta((_orthant_side(dims[0], x[0], b[0]) + 1,), r - 1)
        return total
    total = (-1) ** (n + 1)
    for k in range(1, n):
        sign = 1 if k % 2 == 1 else -1
        for drop in itertools.combinations(range(n), k):
            sub_dims = tuple(m for i, m in enumerate(dims) if i not in drop)
            sub_x = tuple(xi for i, xi in enumerate(x) if i not in drop)
            total += sign * _ball_at(sub_dims, sub_x, r)
    if r >= n:
        for b in _orthant_signs(dims, x):
            sub = tuple(
                _orthant_side(m, xi, bi) + 1 for m, xi, bi in zip(dims, x, b)
            )
            total += _eta(tuple(sorted(_reduced(sub))), r - n)
    return total


@dataclass(frozen=True)
class SliceDecomposition:
    """The ball split by the last coordinate's offset from the center.

    ``plus[h]``/``minus[h]`` hold the points with last coordinate
    center +/- h for h = 1..r; ``zero`` holds the equatorial section.
    Only the pieces that meet the grid are guaranteed non-empty.
    """

    center: Point
    radius: int
    zero: tuple[Point, ...]
    plus: dict[int, tuple[Point, ...]]
    minus: dict[int, tuple[Point, ...]]

    def pieces(self):
        yield ("S0", self.radius), self.zero
        for h, pts in self.plus.items():
            yield ("S+", h), pts
        for h, pts in self.minus.items():
            yield ("S-", h), pts


def decompose_ball_slices(
    grid: Grid, x: Point, r: int, budget: int = DEFAULT_BUDGET
) -> SliceDecomposition:
    x = grid.require(x)
    ball = enumerate_ball(grid, BallSpec(x, r), "manhattan", budget=budget)
    zero = []
    plus: dict[int, list[Point]] = {h: [] for h in range(1, r + 1)}
    minus: dict[int, list[Point]] = {h: [] for h in range(1, r + 1)}
    last = grid.n - 1
    for p in ball:
        off = p[last] - x[last]
        if off == 0:
            zero.append(p)
        elif off > 0:
            plus[off].append(p)
        else:
            minus[-off].append(p)
    return SliceDecomposition(
        x,
        r,
        tuple(zero),
        {h: tuple(pts) for h, pts in plus.items()},
        {h: tuple(pts) for h, pts in minus.items()},
    )


@dataclass(frozen=True)
class OrthantDecomposition:
    """The ball split into its centric section and its open orthant pieces.

    The centric section is the union of the axis hyperplane sections through
    the center; the orthant pieces (present only when r >= n) collect the
    points offset from the center in every coordinate.
    """

    center: Point
    radius: int
    centric: tuple[Point, ...]
    orthants: dict[tuple[int, ...], tuple[Point, ...]]


def decompose_ball_orthants(
    grid: Grid, x: Point, r: int, budget: int = DEFAULT_BUDGET
) -> OrthantDecomposition:
    x = grid.require(x)
    ball = enumerate_ball(grid, BallSpec(x, r), "manhattan", budget=budget)
    centric = []
    orthants: dict[tuple[int, ...], list[Point]] = {}
    if r >= grid.n:
        for b in itertools.product((-1, 1), repeat=grid.n):
            orthants[b] = []
    for p in ball:
        if any(pi == xi for pi, xi in zip(p, x)):
            centric.append(p)
        else:
            b = tuple(1 if pi > xi else -1 for pi, xi in zip(p, x))
            orthants[b].append(p)
    return OrthantDecomposition(
        x,
        r,
        tuple(centric),
        {b: tuple(pts) for b, pts in orthants.items()},
    )


def orthant_subgrid_dims(grid: Grid, x: Point, b: tuple[int, ...]) -> tuple[int, ...]:
    """Side lengths of the corner sub-problem an orthant piece folds onto."""
    x = grid.require(x)
    return tuple(
        _orthant_side(m, xi, bi) + 1 for m, xi, bi in zip(grid.dims, x, b)
    )

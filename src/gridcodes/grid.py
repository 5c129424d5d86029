"""Ambient grid, the three metrics, and exhaustive enumeration oracles.

Points are plain tuples of ints, which gives structural equality and a
total lexicographic order for free.  All counts use Python's exact
integers, so nothing here can silently overflow.

Every distance between many points comes from one numpy kernel,
``distance_block``, which sums the per-axis distances; the pairwise,
covering, greedy, conflict-graph and cyclic-chain scans call it in blocks of
at most ``CHUNK`` rows.  The per-pair functions serve single pairs and are
the tests' reference for the kernel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError

Point = tuple[int, ...]

#: Default cap on the number of grid points an exhaustive scan may visit.
DEFAULT_BUDGET = 10_000_000

METRICS = ("manhattan", "lee", "hamming")

#: Rows per block of the multi-point scans; a block holds CHUNK x columns int64s.
CHUNK = 512


@dataclass(frozen=True)
class Grid:
    """The box of integer tuples with coordinate i ranging over [0, dims[i]-1].

    Side lengths of 1 are allowed (the coordinate is frozen at 0); this
    shows up naturally in the recursive ball-size computations.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(m) for m in self.dims)
        if len(dims) == 0:
            raise DomainError("grid needs at least one dimension")
        for i, m in enumerate(dims):
            if m < 1:
                raise DomainError(f"side length {m} at coordinate {i} must be >= 1")
        object.__setattr__(self, "dims", dims)

    @property
    def n(self) -> int:
        return len(self.dims)

    def volume(self) -> int:
        return math.prod(self.dims)

    def diameter(self) -> int:
        """Largest Manhattan distance between two grid points."""
        return sum(m - 1 for m in self.dims)

    def __contains__(self, point) -> bool:
        if len(point) != self.n:
            return False
        return all(0 <= x <= m - 1 for x, m in zip(point, self.dims))

    def require(self, point: Point) -> Point:
        """Validate that ``point`` lies in the grid, naming the bad coordinate."""
        point = tuple(int(x) for x in point)
        if len(point) != self.n:
            raise DomainError(
                f"point has {len(point)} coordinates, grid has {self.n}"
            )
        for i, (x, m) in enumerate(zip(point, self.dims)):
            if not 0 <= x <= m - 1:
                raise DomainError(
                    f"coordinate {i} of {point} is outside [0, {m - 1}]"
                )
        return point

    def points(self):
        """All grid points in lexicographic order."""
        return itertools.product(*(range(m) for m in self.dims))

    @classmethod
    def parse(cls, text: str) -> "Grid":
        """Parse the comma-separated side-length form, e.g. ``"5,2"``."""
        try:
            dims = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise DomainError(f"cannot parse grid dims from {text!r}") from None
        return cls(dims)


def parse_point(text: str) -> Point:
    """Parse the comma-separated coordinate form, e.g. ``"4,1"``."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"cannot parse point from {text!r}") from None


@dataclass(frozen=True)
class BallSpec:
    """A closed ball: all points at distance at most ``radius`` from ``center``."""

    center: Point
    radius: int

    def __post_init__(self):
        if self.radius < 0:
            raise DomainError(f"radius {self.radius} must be >= 0")


def manhattan_distance(grid: Grid, a: Point, b: Point) -> int:
    """Sum of per-coordinate absolute differences."""
    a, b = grid.require(a), grid.require(b)
    return sum(abs(x - y) for x, y in zip(a, b))


def lee_distance(grid: Grid, a: Point, b: Point) -> int:
    """Sum of per-coordinate circular distances (wrap-around at dims[i])."""
    a, b = grid.require(a), grid.require(b)
    return sum(min(abs(x - y), m - abs(x - y)) for x, y, m in zip(a, b, grid.dims))


def hamming_distance(grid: Grid, a: Point, b: Point) -> int:
    """Number of coordinates where the two points differ."""
    a, b = grid.require(a), grid.require(b)
    return sum(1 for x, y in zip(a, b) if x != y)


_METRIC_FUNCS = {
    "manhattan": manhattan_distance,
    "lee": lee_distance,
    "hamming": hamming_distance,
}


def metric_function(metric: str):
    try:
        return _METRIC_FUNCS[metric]
    except KeyError:
        raise DomainError(
            f"unknown metric {metric!r}; choose one of {', '.join(METRICS)}"
        ) from None


def enumerate_ball(
    grid: Grid,
    spec: BallSpec,
    metric: str = "manhattan",
    budget: int = DEFAULT_BUDGET,
) -> list[Point]:
    """Brute-force ball enumeration: the ground truth the formulas are checked
    against.

    Returns the points in lexicographic order.  Raises BudgetError when the
    scan would visit more than ``budget`` points.
    """
    dist = metric_function(metric)
    center = grid.require(spec.center)
    r = spec.radius

    if metric == "manhattan":
        ranges = [
            range(max(0, c - r), min(m - 1, c + r) + 1)
            for c, m in zip(center, grid.dims)
        ]
    elif metric == "lee":
        ranges = [
            [x for x in range(m) if min(abs(x - c), m - abs(x - c)) <= r]
            for c, m in zip(center, grid.dims)
        ]
    else:
        ranges = [range(m) for m in grid.dims]

    count = math.prod(len(rng) for rng in ranges)
    if count > budget:
        raise BudgetError(
            f"ball enumeration would scan {count} points, budget is {budget}"
        )
    return [p for p in itertools.product(*ranges) if dist(grid, center, p) <= r]


def enumerate_zn_ball(n: int, center: Point, radius: int) -> list[Point]:
    """The unconstrained Manhattan ball in Z^n (internal oracle, not public API)."""
    out = []
    for offs in itertools.product(range(-radius, radius + 1), repeat=n):
        if sum(abs(o) for o in offs) <= radius:
            out.append(tuple(c + o for c, o in zip(center, offs)))
    out.sort()
    return out


def point_array(points, dims) -> np.ndarray:
    """Points as int64s, or as Python ints when the sides sum past int64."""
    dtype = np.int64 if sum(dims) <= np.iinfo(np.int64).max else object
    return np.asarray(points, dtype=dtype)


def distance_block(rows, cols, dims, metric: str) -> np.ndarray:
    """The len(rows) x len(cols) matrix of distances between two point lists.

    Points (lists or ``point_array``s) are not validated; callers pass points
    of the grid ``dims``.  The matrix has ``point_array``'s dtype.
    """
    metric_function(metric)  # raises the canonical DomainError
    rows, cols = point_array(rows, dims), point_array(cols, dims)
    total = np.zeros((len(rows), len(cols)), dtype=rows.dtype)
    diff = np.empty_like(total)
    for axis, m in enumerate(dims):
        np.subtract(rows[:, axis, None], cols[None, :, axis], out=diff)
        np.abs(diff, out=diff)
        if metric == "lee":
            np.minimum(diff, m - diff, out=diff)
        elif metric == "hamming":
            np.minimum(diff, 1, out=diff)
        total += diff
    return total


def pairwise_distance_extremes(grid: Grid, points, metric: str = "manhattan"):
    """(min, max) pairwise distance over a set of at least two points."""
    pts = sorted({grid.require(p) for p in points})
    if len(pts) < 2:
        raise DomainError("minimum distance undefined for fewer than two points")
    lows, highs = [], []
    # Each block pairs its rows with every later point; starting blocks only
    # while two points remain keeps a real pair in every block.
    for start in range(0, len(pts) - 1, CHUNK):
        block = distance_block(
            pts[start : start + CHUNK], pts[start:], grid.dims, metric
        )
        highs.append(int(block.max()))
        # The diagonal holds the only zeros (the points are distinct); lifting
        # it to the block maximum leaves the minimum to the real pairs.
        np.fill_diagonal(block, highs[-1])
        lows.append(int(block.min()))
    return min(lows), max(highs)


def code_min_distance(grid: Grid, points, metric: str = "manhattan") -> int:
    return pairwise_distance_extremes(grid, points, metric)[0]


def code_max_distance(grid: Grid, points, metric: str = "manhattan") -> int:
    return pairwise_distance_extremes(grid, points, metric)[1]

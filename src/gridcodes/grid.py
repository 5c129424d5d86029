"""Ambient grid, the three metrics, and the exhaustive ball-enumeration oracle.

Points are plain tuples of ints, which gives structural equality and a
total lexicographic order for free.  All counts use Python's exact
integers, so nothing here can silently overflow.

Every distance between many points comes from one numpy kernel, the
pairwise scan ``pairwise_distance_extremes``, which loads numpy on first use
and, in one pass over blocks of at most ``CHUNK`` rows, adds each axis's
|x - y| to the distances of all three metrics at once.  The
covering radius and the greedy scan need no point pairs: they work on the
dense box, and the exact search's conflict graph grows its balls from the
metric's graph on the box (see ``codes``).  The cyclic chain reads
its distances from one table of refined powers weighted by lᵢ (see
``cyclic``).  The per-pair functions serve single pairs and are the tests'
reference for the kernel and the conflict graph.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .errors import DomainError, check_budget

Point = tuple[int, ...]

#: Default cap on the number of grid points an exhaustive scan may visit.
DEFAULT_BUDGET = 10_000_000

METRICS = ("manhattan", "lee", "hamming")

#: Rows per block of the pairwise scan.  A block holds five CHUNK x points
#: arrays (three sums and two work buffers): 1020 rows of cells in all.
CHUNK = 204


def integer(value, what: str) -> int:
    """``value`` as an int: anything ``operator.index`` takes except bool."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise DomainError(f"{what} {value!r} is not an integer")
    return operator.index(value)


@dataclass(frozen=True)
class Grid:
    """The box of integer tuples with coordinate i ranging over [0, dims[i]-1].

    Side lengths of 1 are allowed (the coordinate is frozen at 0); this
    shows up naturally in the recursive ball-size computations.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(integer(m, "side length") for m in self.dims)
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

    def require(self, point: Point) -> Point:
        """Validate that ``point`` lies in the grid, naming the bad coordinate."""
        point = tuple(integer(x, "coordinate") for x in point)
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
    check_budget(count, budget, "ball enumeration would scan {} points")
    return [p for p in itertools.product(*ranges) if dist(grid, center, p) <= r]


def pairwise_distance_extremes(grid: Grid, points) -> dict[str, tuple[int, int]]:
    """{metric: (min, max)} pairwise distance over a set of at least two
    points, for every metric in ``METRICS``.

    The one pairwise kernel: numpy takes each axis's |x - y| once for a block
    of ``CHUNK`` points against every later point and adds it to three sums,
    as Manhattan |x - y|, Lee min(|x - y|, m - |x - y|) and Hamming
    min(|x - y|, 1).  Entries are int32s, or int64s or Python ints when the
    sides sum past int32 or int64."""
    import numpy as np
    pts = sorted({grid.require(p) for p in points})
    if len(pts) < 2:
        raise DomainError("minimum distance undefined for fewer than two points")
    top = sum(grid.dims)
    dtype = np.int32 if top < 2**31 else np.int64 if top < 2**63 else object
    arr = np.asarray(pts, dtype=dtype)
    # Every block's three sums and two work buffers are views of one array.
    work = np.empty(5 * min(CHUNK, len(pts)) * len(pts), dtype=dtype)
    lows, highs = [], []
    # Each block pairs its rows with every later point; starting blocks only
    # while two points remain keeps a real pair in every block.
    for start in range(0, len(pts) - 1, CHUNK):
        rows, cols = arr[start : start + CHUNK], arr[start:]
        shape = (5, len(rows), len(cols))
        view = work[: math.prod(shape)].reshape(shape)
        manhattan, lee, hamming, diff, tmp = view
        sums = view[:3]
        sums.fill(0)
        for axis, m in enumerate(grid.dims):
            np.subtract(rows[:, axis, None], cols[None, :, axis], out=diff)
            np.abs(diff, out=diff)
            manhattan += diff
            np.subtract(m, diff, out=tmp)
            lee += np.minimum(diff, tmp, out=tmp)
            hamming += np.minimum(diff, 1, out=tmp)
        highs.append(sums.max(axis=(1, 2)))
        # The diagonals hold the only zeros (the points are distinct); lifting
        # them to the block maxima leaves the minima to the real pairs.
        diagonal = np.arange(len(rows))
        sums[:, diagonal, diagonal] = highs[-1][:, None]
        lows.append(sums.min(axis=(1, 2)))
    pairs = zip(np.min(lows, axis=0).tolist(), np.max(highs, axis=0).tolist())
    return dict(zip(METRICS, pairs))

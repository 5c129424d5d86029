"""Ambient grid, the three metrics, and the exhaustive ball-enumeration oracle.

Points are plain tuples of ints, which gives structural equality and a
total lexicographic order for free.  All counts use Python's exact
integers, so nothing here can silently overflow.

Every distance between many points comes from one kernel, the pairwise
scan ``_extremes`` behind ``pairwise_distance_extremes``, which adds each
axis's |x - y| to the distances of all three metrics at once.  The
covering radius and the greedy scan need no point pairs: they work on the
box (see ``codes``), and the exact search's conflict graph grows its balls
from the metric's graph on the box without numpy.  The cyclic chain reads
its distances from one table of refined powers weighted by lᵢ (see
``cyclic``).  The per-pair functions validate a pair and call the raw
distance that ``enumerate_ball`` filters with; they are the tests'
reference for the kernel and the conflict graph.

Each of these four scans has a numpy path and a pure-Python path over exact
ints that gives the same answer.  ``numpy_for`` picks numpy when it is
loaded already, or when the scan's worst case would cost more than importing
it; a fresh process therefore runs small scans without loading numpy.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass

from .errors import DomainError, check_budget

Point = tuple[int, ...]

#: Default cap on the number of grid points an exhaustive scan may visit.
DEFAULT_BUDGET = 10_000_000

METRICS = ("manhattan", "lee", "hamming")

#: Rows per block of the pairwise scan.  A block holds five CHUNK x points
#: arrays (three sums and two work buffers): 1020 rows of cells in all.
CHUNK = 204

#: Steps of a pure-Python scan past which loading numpy pays: see ``numpy_for``.
#: A step takes 25-60 ns; at this limit the slowest pure path took 0.85-1.2
#: times as long as ``import numpy`` in a fresh process (about 100 ms; four
#: runs on a shared 2-core Xeon, Python 3.11, numpy 2.4).
NUMPY_WORK = 1_800_000


def numpy_for(work: int):
    """The numpy module for a scan of about ``work`` steps, or None.

    Once numpy is loaded every scan uses it, though it is not faster on every
    input (a small code's covering radius runs 2-4x faster pure).  Loading it
    costs about 100 ms, so a scan of at most ``NUMPY_WORK`` steps in a process
    without numpy runs its pure-Python path, whose worst case ``work`` bounds.
    """
    if work <= NUMPY_WORK and "numpy" not in sys.modules:
        return None
    import numpy

    return numpy


def integer(value, what: str, low: int | None = None) -> int:
    """The one check of an integer input: ``value`` as an int, refusing bool,
    anything ``operator.index`` refuses and, when given, values below ``low``."""
    if type(value) is not int:
        if isinstance(value, bool) or not hasattr(type(value), "__index__"):
            raise DomainError(f"{what} {value!r} is not an integer")
        value = operator.index(value)
    if low is not None and value < low:
        raise DomainError(f"{what} {value} must be >= {low}")
    return value


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
        object.__setattr__(self, "radius", integer(self.radius, "radius", 0))


def _manhattan(dims, a: Point, b: Point) -> int:
    return sum(map(abs, map(operator.sub, a, b)))


def _lee(dims, a: Point, b: Point) -> int:
    return sum(min(d, m - d) for d, m in zip(map(abs, map(operator.sub, a, b)), dims))


def _hamming(dims, a: Point, b: Point) -> int:
    return sum(map(operator.ne, a, b))


def manhattan_distance(grid: Grid, a: Point, b: Point) -> int:
    """Sum of per-coordinate absolute differences."""
    return _manhattan(grid.dims, grid.require(a), grid.require(b))


def lee_distance(grid: Grid, a: Point, b: Point) -> int:
    """Sum of per-coordinate circular distances (wrap-around at dims[i])."""
    return _lee(grid.dims, grid.require(a), grid.require(b))


def hamming_distance(grid: Grid, a: Point, b: Point) -> int:
    """Number of coordinates where the two points differ."""
    return _hamming(grid.dims, grid.require(a), grid.require(b))


_METRIC_FUNCS = {
    "manhattan": manhattan_distance,
    "lee": lee_distance,
    "hamming": hamming_distance,
}
_RAW = {"manhattan": _manhattan, "lee": _lee, "hamming": _hamming}


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
    scan would visit more than ``budget`` points.  The center is validated
    once; the scanned points lie in the grid by construction.
    """
    metric_function(metric)  # raises the canonical DomainError
    dist = _RAW[metric]
    center = grid.require(spec.center)
    r = spec.radius

    if metric == "manhattan":
        ranges = [
            range(max(0, c - r), min(m - 1, c + r) + 1)
            for c, m in zip(center, grid.dims)
        ]
    elif metric == "lee":
        # The window c - r .. c + r around the cycle, or the whole side.
        ranges = [
            range(m) if 2 * r + 1 >= m else sorted((c + k) % m for k in range(-r, r + 1))
            for c, m in zip(center, grid.dims)
        ]
    else:
        ranges = [range(m) for m in grid.dims]

    count = math.prod(len(rng) for rng in ranges)
    check_budget(count, budget, "ball enumeration would scan {} points")
    dims = grid.dims
    return [p for p in itertools.product(*ranges) if dist(dims, center, p) <= r]


def pairwise_distance_extremes(grid: Grid, points) -> dict[str, tuple[int, int]]:
    """{metric: (min, max)} pairwise distance over a set of at least two
    points, for every metric in ``METRICS``."""
    pts = sorted({grid.require(p) for p in points})
    if len(pts) < 2:
        raise DomainError("minimum distance undefined for fewer than two points")
    return _extremes(grid.dims, pts)


def _extremes(dims: tuple[int, ...], pts) -> dict[str, tuple[int, int]]:
    """The one pairwise kernel, on distinct points of the box ``dims``, at
    least two of them, that are already validated.

    Each pair's three distances come from one pass over its axes, which adds
    |x - y| to the Manhattan sum, min(|x - y|, m - |x - y|) to the Lee sum
    and min(|x - y|, 1) to the Hamming sum.  Without numpy each point is
    paired with every later point, one axis at a time, over lists of exact
    ints.  With numpy, each axis's |x - y| is
    taken once for a block of ``CHUNK`` points against every later point;
    entries are int32s, or int64s when the sides sum past int32; past int64
    the pure path, faster there than numpy's Python ints, runs instead."""
    top = sum(dims)
    # A pair costs about six steps per axis and two for the row's extremes.
    steps = (6 * len(dims) + 2) * math.comb(len(pts), 2)
    np = None if top >= 2**63 else numpy_for(steps)
    if np is None:
        cols = list(zip(*pts))
        lows, highs = [], []
        for i in range(len(pts) - 1):
            # Row i against every later point, one axis at a time.
            manhattan = lee = hamming = None
            for x, col, m in zip(pts[i], cols, dims):
                diff = [x - y if x > y else y - x for y in col[i + 1 :]]
                if manhattan is None:
                    manhattan = diff
                    lee = [d if d + d <= m else m - d for d in diff]
                    hamming = list(map(bool, diff))
                else:
                    manhattan = list(map(operator.add, manhattan, diff))
                    lee = [s + (d if d + d <= m else m - d) for s, d in zip(lee, diff)]
                    hamming = list(map(operator.add, hamming, map(bool, diff)))
            sums = (manhattan, lee, hamming)
            lows.append([min(row) for row in sums])
            highs.append([max(row) for row in sums])
        pairs = zip(map(min, zip(*lows)), map(max, zip(*highs)))
        return {metric: (int(lo), int(hi)) for metric, (lo, hi) in zip(METRICS, pairs)}
    dtype = np.int32 if top < 2**31 else np.int64
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
        for axis, m in enumerate(dims):
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

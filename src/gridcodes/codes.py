"""Analysis of explicit grid codes and search for maximum-size codes.

The exact search is a branch-and-bound maximum independent set on the
conflict graph (points closer than the design distance are in conflict),
with a clique-partition upper bound and candidate sets held as Python-int
bitsets.  The greedy search adds points in scan order and is maximal by
construction, which is exactly the (d-1)-covering property.

Every multi-point distance here (the conflict graph, the covering scan and
the greedy scan) comes from the one kernel, ``grid.distance_block``.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .balls import eta_value
from .bounds import hamming_bound
from .errors import BudgetError, DomainError
from .grid import (
    CHUNK,
    DEFAULT_BUDGET,
    Grid,
    Point,
    distance_block,
    pairwise_distance_extremes,
    point_array,
)

#: Largest grid volume the exact conflict-graph search accepts by default.
DEFAULT_EXACT_VOLUME = 512


@dataclass(frozen=True)
class GridCode:
    grid: Grid
    codewords: tuple[Point, ...]

    def __post_init__(self):
        words = [self.grid.require(p) for p in self.codewords]
        if not words:
            raise DomainError("a code needs at least one codeword")
        if len(set(words)) != len(words):
            raise DomainError("duplicate codewords are not allowed")
        object.__setattr__(self, "codewords", tuple(sorted(words)))

    def size(self) -> int:
        return len(self.codewords)

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.grid.dims),
            "codewords": [list(p) for p in self.codewords],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GridCode":
        try:
            dims = data["dims"]
            words = data["codewords"]
        except (KeyError, TypeError):
            raise DomainError(
                'code JSON must be an object with "dims" and "codewords"'
            ) from None
        return cls(Grid(tuple(dims)), tuple(tuple(w) for w in words))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "GridCode":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class CodeAnalysis:
    code: GridCode
    min_distance: dict  # metric -> int; empty for one-word codes
    max_distance: dict  # metric -> int; empty for one-word codes
    packing_radius: int
    covering_radius: int
    is_perfect: bool
    attains_hamming_bound: bool
    covering_property: dict = field(default_factory=dict)  # radius -> bool

    def to_json_dict(self) -> dict:
        return {
            "size": self.code.size(),
            "min_distance": self.min_distance.get("manhattan"),
            "min_distance_by_metric": dict(self.min_distance),
            "max_distance": self.max_distance.get("manhattan"),
            "packing_radius": self.packing_radius,
            "covering_radius": self.covering_radius,
            "perfect": self.is_perfect,
            "attains_hamming_bound": self.attains_hamming_bound,
            "covering_property": {str(r): v for r, v in self.covering_property.items()},
        }


def covering_radius(code: GridCode, budget: int = DEFAULT_BUDGET) -> int:
    """Smallest s such that the s-balls around the codewords cover the grid."""
    grid = code.grid
    if grid.volume() > budget:
        raise BudgetError(
            f"covering radius needs a full scan of {grid.volume()} points, "
            f"budget is {budget}"
        )
    points = grid.points()
    worst = 0
    while block := list(itertools.islice(points, CHUNK)):
        nearest = distance_block(block, code.codewords, grid.dims, "manhattan")
        worst = max(worst, int(nearest.min(axis=1).max()))
    return worst


def covering_property(code: GridCode, r: int, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff every grid point is within distance r of some codeword."""
    if r < 0:
        raise DomainError(f"radius {r} must be >= 0")
    return covering_radius(code, budget=budget) <= r


def analyze(
    code: GridCode,
    requested_covering_radii=(),
    budget: int = DEFAULT_BUDGET,
) -> CodeAnalysis:
    grid = code.grid
    mins: dict[str, int] = {}
    maxs: dict[str, int] = {}
    if code.size() >= 2:
        for metric in ("manhattan", "lee", "hamming"):
            lo, hi = pairwise_distance_extremes(grid, code.codewords, metric)
            mins[metric] = lo
            maxs[metric] = hi
        t = (mins["manhattan"] - 1) // 2
    else:
        # A single word packs balls of any radius; use the largest meaningful one.
        t = grid.diameter()
    s = covering_radius(code, budget=budget)
    attains = code.size() * eta_value(grid.dims, t) == grid.volume()
    return CodeAnalysis(
        code=code,
        min_distance=mins,
        max_distance=maxs,
        packing_radius=t,
        covering_radius=s,
        is_perfect=s <= t,
        attains_hamming_bound=attains,
        covering_property={r: s <= r for r in requested_covering_radii},
    )


def greedy_code(grid: Grid, distance: int, order=None) -> GridCode:
    """Maximal code with minimum distance >= distance, built by scan order.

    ``order`` defaults to the lexicographic point order; pass an explicit
    sequence of points to experiment with other scans.
    """
    if distance < 1:
        raise DomainError(f"design distance {distance} must be >= 1")
    pts = list(grid.points()) if order is None else [grid.require(p) for p in order]
    arr = point_array(pts, grid.dims)
    # free[j]: pts[j] is at distance >= distance from every chosen point.  A
    # repeated point is at distance 0 from itself, so it is never chosen twice.
    free = np.ones(len(pts), dtype=bool)
    chosen: list[Point] = []
    while free.any():
        i = int(free.argmax())
        chosen.append(pts[i])
        far = distance_block(arr[i : i + 1], arr[i:], grid.dims, "manhattan")[0]
        free[i:] &= far >= distance
    return GridCode(grid, tuple(chosen))


@lru_cache(maxsize=8)
def _distance_matrix(dims: tuple[int, ...], metric: str):
    """All pairwise distances between the grid points, in lexicographic order."""
    pts = list(Grid(dims).points())
    return pts, distance_block(pts, pts, dims, metric)


def _conflict_graph(grid: Grid, distance: int, metric: str):
    """Vertices are grid points; neighbors are pairs at distance < distance."""
    pts, dmat = _distance_matrix(grid.dims, metric)
    conflict = (dmat < distance) & (dmat > 0)
    adj = [
        int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
        for row in conflict
    ]
    return pts, adj


def _clique_partition(adj: list[int]) -> list[int]:
    """Greedily partition the vertices into conflict cliques (as bitmasks).

    An independent set meets each clique at most once, so the number of
    cliques meeting a candidate set bounds the remaining independent-set
    size.
    """
    n = len(adj)
    masks = []
    covered = 0
    for i in range(n):
        if covered >> i & 1:
            continue
        clique = 1 << i
        cand = adj[i] & ~covered
        while cand:
            v = (cand & -cand).bit_length() - 1
            clique |= 1 << v
            cand &= adj[v]
        covered |= clique
        masks.append(clique)
    return masks


def max_independent_set(
    adj: list[int], initial=None, time_budget: float | None = None
) -> list[int]:
    """Deterministic branch-and-bound maximum independent set on bitset adjacency.

    Branches over the members of one clique of a fixed clique partition
    (at most one can be chosen), which also supplies the pruning bound.
    Raises BudgetError when the optional wall-clock budget runs out before
    optimality is proved.
    """
    n = len(adj)
    closed = [adj[v] | (1 << v) for v in range(n)]
    cliques = _clique_partition(adj)
    best = list(initial) if initial else []
    best_size = len(best)
    deadline = None if time_budget is None else time.monotonic() + time_budget
    nodes = 0

    def expand(cand: int, chosen: list[int]) -> None:
        nonlocal best, best_size, nodes
        nodes += 1
        if deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline:
            raise BudgetError(
                f"independent-set search exceeded its {time_budget}s time budget"
            )
        if not cand:
            if len(chosen) > best_size:
                best = list(chosen)
                best_size = len(best)
            return
        # Bound by the number of partition cliques the candidates still meet,
        # and branch over the clique meeting them in the fewest vertices.
        bound = 0
        pick = 0
        pick_size = n + 1
        for mask in cliques:
            inter = mask & cand
            if inter:
                bound += 1
                size = bin(inter).count("1")
                if size < pick_size:
                    pick, pick_size = inter, size
        if len(chosen) + bound <= best_size:
            return
        while pick:
            v = (pick & -pick).bit_length() - 1
            pick &= pick - 1
            chosen.append(v)
            expand(cand & ~closed[v], chosen)
            chosen.pop()
            cand &= ~(1 << v)
        expand(cand, chosen)

    expand((1 << n) - 1, [])
    return sorted(best)


def _best_incumbent(pts, adj, n_coords: int, distance: int) -> list[int]:
    """Strongest cheap independent set: greedy over several scan orders.

    Besides the plain lexicographic scan, points are grouped by weighted
    congruence classes (which recovers lattice-like packings) and by a few
    seeded shuffles.
    """
    count = len(pts)
    orders = [list(range(count))]
    moduli = sorted({distance, distance + 1, 2 * distance - 1})
    for q in moduli:
        if q < 2:
            continue
        for weights in (tuple(range(1, n_coords + 1)), tuple(range(n_coords, 0, -1))):
            orders.append(
                sorted(
                    range(count),
                    key=lambda i, w=weights: (
                        sum(a * b for a, b in zip(w, pts[i])) % q,
                        pts[i],
                    ),
                )
            )
    rng = random.Random(0)
    for _ in range(3):
        shuffled = list(range(count))
        rng.shuffle(shuffled)
        orders.append(shuffled)
    best: list[int] = []
    for order in orders:
        blocked = 0
        chosen = []
        for i in order:
            if not blocked >> i & 1:
                chosen.append(i)
                blocked |= adj[i] | 1 << i
        if len(chosen) > len(best):
            best = chosen
    return best


def _inflate(points, dims):
    """Re-insert the frozen (side length 1) coordinates into reduced points."""
    its = (iter(p) for p in points)
    return [tuple(0 if m == 1 else next(it) for m in dims) for it in its]


def exact_max_code(
    grid: Grid,
    distance: int,
    metric: str = "manhattan",
    max_volume: int = DEFAULT_EXACT_VOLUME,
    time_budget: float | None = None,
) -> tuple[int, GridCode]:
    """Exact maximum code size with minimum distance >= distance, plus a witness.

    Closed forms handle distance 1, distance 2, one effective dimension,
    and distances beyond the diameter; everything else is exhaustive over
    the conflict graph, so the grid volume is capped and an optional
    wall-clock budget aborts with BudgetError instead of running open-ended.
    Use greedy_code past either limit.
    """
    if distance < 1:
        raise DomainError(f"design distance {distance} must be >= 1")
    volume = grid.volume()
    if volume > max_volume:
        raise BudgetError(
            f"exact search limited to volume {max_volume} (grid has {volume}); "
            "consider greedy_code"
        )
    if distance == 1:
        return volume, GridCode(grid, tuple(grid.points()))
    dims = grid.dims
    free = [m for m in dims if m > 1]
    if metric == "manhattan":
        if distance > grid.diameter() or not free:
            return 1, GridCode(grid, (tuple(0 for _ in dims),))
        if len(free) == 1:
            m = free[0]
            size = (m - 1) // distance + 1
            words = _inflate([(k * distance,) for k in range(size)], dims)
            return size, GridCode(grid, tuple(words))
        if distance == 2:
            # The conflict graph is the grid graph, which is bipartite with a
            # near-perfect matching, so one parity class is optimal.
            words = [p for p in grid.points() if sum(p) % 2 == 0]
            return len(words), GridCode(grid, tuple(words))
    pts, adj = _conflict_graph(grid, distance, metric)
    if metric == "manhattan":
        seed = _best_incumbent(pts, adj, grid.n, distance)
        # If a cheap upper bound already meets the incumbent, it is optimal.
        upper = min(hamming_bound(grid, distance), len(_clique_partition(adj)))
        if len(seed) == upper:
            code = GridCode(grid, tuple(pts[i] for i in seed))
            return code.size(), code
    else:
        seed = None
    chosen = max_independent_set(adj, initial=seed, time_budget=time_budget)
    code = GridCode(grid, tuple(pts[i] for i in chosen))
    return code.size(), code

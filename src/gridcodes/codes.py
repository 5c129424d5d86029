"""Analysis of explicit grid codes and search for maximum-size codes.

The exact search is a branch-and-bound maximum independent set on the
conflict graph (points closer than the design distance are in conflict),
with candidate sets held as Python-int bitsets over vertices relabelled by
ascending degree.  At every search node a greedy cover of the candidates by
conflict cliques bounds what they can still add, in the style of the
colouring bounds of MCS and BBMC; a node budget stops it deterministically
and a time budget by the clock.  The greedy search adds points in scan
order and is maximal by construction, which is exactly the (d-1)-covering
property.

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
#: Search nodes the CLI grants an exact search (seconds on the hardest grids).
DEFAULT_NODE_BUDGET = 10**5


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
    import numpy as np
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
    return pts, _bitsets((dmat < distance) & (dmat > 0))


def _bitsets(matrix) -> list[int]:
    """Row i of a 0/1 matrix as an int whose bit j is matrix[i, j]."""
    import numpy as np
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _matrix(adj: list[int]):
    """The 0/1 matrix of bitset rows, the inverse of ``_bitsets``."""
    import numpy as np
    size = (len(adj) + 7) // 8
    raw = b"".join(a.to_bytes(size, "little") for a in adj)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(adj), size)
    return np.unpackbits(rows, axis=1, bitorder="little")[:, : len(adj)]


def _clique_cover(adj: list[int], cand: int) -> list[int]:
    """Greedily cover the candidate set with conflict cliques (as bitmasks).

    Each clique starts at the lowest uncovered candidate and grows through
    the lowest candidates adjacent to all its members.  An independent set
    meets each clique at most once, so the candidates covered by the first
    k cliques hold at most k independent vertices.
    """
    cliques = []
    while cand:
        v = (cand & -cand).bit_length() - 1
        clique = 1 << v
        q = cand & adj[v]
        while q:
            u = (q & -q).bit_length() - 1
            clique |= 1 << u
            q &= adj[u]
        cand &= ~clique
        cliques.append(clique)
    return cliques


def max_independent_set(
    adj: list[int],
    initial=None,
    time_budget: float | None = None,
    node_budget: int | None = None,
) -> list[int]:
    """Deterministic branch-and-bound maximum independent set on bitset adjacency.

    The vertices are relabelled once by ascending degree (ties by index).
    At every node the candidates are covered greedily by cliques
    (``_clique_cover``); a vertex of the k-th clique can extend the chosen
    set by at most k, so the search branches on the vertices in reverse
    cover order and cuts as soon as ``len(chosen) + k`` cannot beat the
    best set.  The result is returned sorted, in the caller's labels.

    ``node_budget`` caps the number of search nodes, deterministically;
    ``time_budget`` caps the wall-clock seconds.  When either runs out,
    BudgetError is raised with ``lower`` (the best size found) and
    ``upper`` (the root cover's size) set to what the search proved.
    """
    import numpy as np
    n = len(adj)
    order = sorted(range(n), key=lambda v: (adj[v].bit_count(), v))
    label = {v: i for i, v in enumerate(order)}
    adj = _bitsets(_matrix(adj)[np.ix_(order, order)])
    closed = [a | 1 << v for v, a in enumerate(adj)]
    best = [label[v] for v in initial] if initial else []
    best_size = len(best)
    root = _clique_cover(adj, (1 << n) - 1)
    deadline = None if time_budget is None else time.monotonic() + time_budget
    nodes = 0

    def stop(budget: str):
        error = BudgetError(
            f"independent-set search stopped by its {budget} after {nodes} nodes"
        )
        error.lower, error.upper = best_size, len(root)
        return error

    def expand(cand: int, chosen: list[int], cliques: list[int]) -> None:
        nonlocal best, best_size, nodes
        if nodes == node_budget:
            raise stop("node budget")
        nodes += 1
        if deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline:
            raise stop(f"{time_budget}s time budget")
        if not cand:
            if len(chosen) > best_size:
                best = list(chosen)
                best_size = len(best)
            return
        for k in range(len(cliques), 0, -1):
            members = cliques[k - 1]
            while members:
                if len(chosen) + k <= best_size:
                    return
                v = members.bit_length() - 1
                members ^= 1 << v
                chosen.append(v)
                sub = cand & ~closed[v]
                expand(sub, chosen, _clique_cover(adj, sub))
                chosen.pop()
                cand &= ~(1 << v)

    expand((1 << n) - 1, [], root)
    return sorted(order[v] for v in best)


def _best_incumbent(pts, adj, n_coords: int, distance: int) -> list[int]:
    """Strongest cheap independent set: greedy over several scan orders.

    Besides the plain lexicographic scan, points are grouped by weighted
    congruence classes (which recovers lattice-like packings) and by a few
    seeded shuffles.
    """
    count = len(pts)
    orders = [list(range(count))]
    moduli = sorted({distance, distance + 1, 2 * distance - 1})
    dots = [
        [sum(a * b for a, b in zip(weights, p)) for p in pts]
        for weights in (range(1, n_coords + 1), range(n_coords, 0, -1))
    ]
    for q in moduli:
        if q < 2:
            continue
        for dot in dots:
            # The points are in lexicographic order, so the stable sort
            # breaks residue ties by point.
            orders.append(sorted(range(count), key=lambda i, d=dot: d[i] % q))
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
    node_budget: int | None = None,
) -> tuple[int, GridCode]:
    """Exact maximum code size with minimum distance >= distance, plus a witness.

    Closed forms handle distance 1, distance 2, one effective dimension,
    and distances beyond the diameter.  Otherwise, under the Manhattan
    metric, the best of a few greedy scans is returned at once when it meets
    the smaller of the Hamming bound and the size of one clique cover of the
    conflict graph; failing that, ``max_independent_set`` searches the graph
    exhaustively.  The grid volume is capped, and the optional node and
    wall-clock budgets of that search abort with BudgetError, whose message
    gives the nodes searched and the proven ``lower <= A <= upper``.  Use
    greedy_code past these limits.
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
    # Every code meets each clique of a cover at most once; under the
    # Manhattan metric the Hamming bound holds as well.
    upper = len(_clique_cover(adj, (1 << len(adj)) - 1))
    seed = None
    if metric == "manhattan":
        upper = min(upper, hamming_bound(grid, distance))
        seed = _best_incumbent(pts, adj, grid.n, distance)
        # If the upper bound already meets the incumbent, it is optimal.
        if len(seed) == upper:
            code = GridCode(grid, tuple(pts[i] for i in seed))
            return code.size(), code
    try:
        chosen = max_independent_set(
            adj, initial=seed, time_budget=time_budget, node_budget=node_budget
        )
    except BudgetError as error:
        raise BudgetError(
            f"{error}: {error.lower} <= A <= {min(upper, error.upper)}"
        ) from None
    code = GridCode(grid, tuple(pts[i] for i in chosen))
    return code.size(), code

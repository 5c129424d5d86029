"""Analysis of explicit grid codes and search for maximum-size codes.

The exact search is Östergård's Russian-doll maximum independent set on the
conflict graph (points closer than the design distance are in conflict),
with candidate sets held as Python-int bitsets over the points in
lexicographic order, longest axis first.  It learns the largest code inside
every suffix of that order, from the last point back to the first, and cuts
a search node when the largest code inside its lowest candidate's suffix
cannot lift it to the next size.  It stops at the Hamming bound, which caps
codes under all three metrics, at a node budget deterministically, or at a
time budget by the clock.  The greedy search adds points in scan order and
is maximal by construction, which is exactly the (d-1)-covering property.

The covering radius and the greedy scan work on the box and compute no
pairwise distances.  Each has two paths that give the same answer, and
``grid.numpy_for`` picks one from the scan's worst-case work.  Without
numpy, both grow balls one grid step at a time on a Python-int bitset of the
box: the covering radius counts the layers of a breadth-first search from
the codewords, and the greedy scan clears each word's ball from the free
points.  With numpy, the covering radius is the largest value of the code's
exact L1 distance transform on the dense box, and the greedy scan clears a
stencil of the later half of each word's ball, or else its dense distance
row, from a mask of free points.  Only ``analyze`` scans point pairs, in one
call of the pairwise kernel ``grid._extremes`` for all three metrics, on
words that ``GridCode`` has already validated.  The conflict graph grows its
balls one radius at a time over the metric's graph on the box, without numpy.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import time
from dataclasses import dataclass, field
from functools import lru_cache

from .balls import eta_value
from .bounds import hamming_bound
from .errors import BudgetError, DomainError, check_budget
from .grid import (
    DEFAULT_BUDGET,
    Grid,
    Point,
    _extremes,
    integer,
    metric_function,
    numpy_for,
)

#: Largest grid volume the exact conflict-graph search accepts.
DEFAULT_EXACT_VOLUME = 512
#: Search nodes the CLI grants an exact search (0.05-0.07 s on the hardest
#: volume-512 grids on an idle core).
DEFAULT_NODE_BUDGET = 10**5
#: Completed exact searches kept per process; the oldest is dropped first.
SOLVED_LIMIT = 4096

#: (canonical dims, distance, metric) -> (canonical witness, search nodes).
_solved: dict[tuple, tuple[tuple[Point, ...], int]] = {}


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

    @classmethod
    def _trusted(cls, grid: Grid, codewords: tuple[Point, ...]) -> "GridCode":
        """A code from words built inside the grid: a non-empty sorted tuple
        of distinct tuples of ints.  Nothing is validated."""
        code = object.__new__(cls)
        object.__setattr__(code, "grid", grid)
        object.__setattr__(code, "codewords", codewords)
        return code

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
        if not (
            isinstance(dims, list)
            and isinstance(words, list)
            and all(isinstance(w, list) for w in words)
        ):
            raise DomainError(
                'code JSON needs "dims" as a list and "codewords" as a list of lists'
            )
        try:
            return cls(Grid(tuple(dims)), tuple(tuple(w) for w in words))
        except DomainError as exc:
            raise DomainError(f"code JSON: {exc}") from None

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


def _box_steps(dims: tuple[int, ...]):
    """The box as a Python-int bitset in lexicographic order, for the pure scans.

    Returns the strides, the set of all points, and the step that adds to a
    set its grid neighbours: per axis, the set shifted by the stride both
    ways, masked to the points off the axis's last face, (m - 1)·stride ones
    every m·stride bits.
    """
    strides = [math.prod(dims[i + 1 :]) for i in range(len(dims))]
    full = (1 << math.prod(dims)) - 1
    steps = [(((1 << (m - 1) * s) - 1) * full // ((1 << m * s) - 1), s)
             for m, s in zip(dims, strides) if m > 1]

    def step(points: int) -> int:
        grown = points
        for lower, s in steps:
            grown |= (points & lower) << s | (points >> s) & lower
        return grown

    return strides, full, step


def covering_radius(code: GridCode, budget: int = DEFAULT_BUDGET) -> int:
    """Smallest s such that the s-balls around the codewords cover the grid.

    This is the number of layers of a breadth-first search from the
    codewords over the grid graph, the largest value of the code's exact L1
    distance transform.  Without numpy the search holds the reached points
    as one Python-int bitset, and a layer is one step of ``_box_steps``.
    With numpy, the transform is computed on the dense box (Rosenfeld &
    Pfaltz 1966): starting from 0 at the codewords and diameter + 1
    elsewhere, one forward and one backward running minimum per axis, min
    over i of a[i] + |i - j|, leave every point's distance to the nearest
    codeword: O(n·V) for volume V.
    """
    grid = code.grid
    volume = grid.volume()
    check_budget(volume, budget, "covering radius needs a full scan of {} points")
    far = grid.diameter() + 1
    # Up to diameter + 1 layers, each of six bitset operations per axis.
    np = numpy_for(far * grid.n * (volume // 20 + 16))
    if np is None:
        strides, full, step = _box_steps(grid.dims)
        start = bytearray(volume // 8 + 1)  # the codewords' bits, little-endian
        for word in code.codewords:
            flat = sum(map(operator.mul, word, strides))
            start[flat >> 3] |= 1 << (flat & 7)
        reached, radius = int.from_bytes(start, "little"), 0
        while reached != full:
            reached, radius = step(reached), radius + 1
        return radius
    dist = np.full(grid.dims, far, dtype=np.int32 if far < 2**31 else np.int64)
    dist[tuple(np.array(code.codewords).T)] = 0
    for axis, m in enumerate(grid.dims):
        if m == 1:
            continue
        idx = np.arange(m, dtype=dist.dtype).reshape(
            [-1 if i == axis else 1 for i in range(grid.n)]
        )
        # On the flipped view the same pass runs from the far end.
        for view in (dist, np.flip(dist, axis)):
            view -= idx
            np.minimum.accumulate(view, axis=axis, out=view)
            view += idx
    return int(dist.max())


def analyze(
    code: GridCode,
    requested_covering_radii=(),
    budget: int = DEFAULT_BUDGET,
) -> CodeAnalysis:
    requested_covering_radii = [integer(r, "radius", 0) for r in requested_covering_radii]
    grid = code.grid
    s = covering_radius(code, budget=budget)
    pairs = math.comb(code.size(), 2)
    check_budget(pairs, budget, "pairwise scan needs {} codeword pairs")
    if code.size() >= 2:
        extremes = _extremes(grid.dims, code.codewords)
        t = (extremes["manhattan"][0] - 1) // 2
    else:
        # A single word packs balls of any radius; use the largest meaningful one.
        extremes, t = {}, grid.diameter()
    attains = code.size() * eta_value(grid.dims, t) == grid.volume()
    return CodeAnalysis(
        code=code,
        min_distance={metric: lo for metric, (lo, _) in extremes.items()},
        max_distance={metric: hi for metric, (_, hi) in extremes.items()},
        packing_radius=t,
        covering_radius=s,
        is_perfect=s <= t,
        attains_hamming_bound=attains,
        covering_property={r: s <= r for r in requested_covering_radii},
    )


def _later_half_ball(np, dims: tuple[int, ...], r: int):
    """The stencil of the lexicographic greedy scan: the later half of the r-ball.

    Returns ``(flat, cols)``: the flat box offsets of the o with |o|_1 <= r
    and |o_i| <= dims[i] - 1 that lead to a later point (with |o_i| <
    dims[i], exactly the o with a positive flat offset), and per axis i
    their steps o_i, which reach min(r, dims[i] - 1) either way.  Returns
    None when the stencil would hold more offsets than the box has points,
    or its face masks, one per axis and coordinate within that reach of a
    face, more cells than eight dense distance rows take additions (n·V
    each): the row scan is cheaper then.
    """
    volume = math.prod(dims)
    cols = []
    weight = np.zeros(1, dtype=np.int64)
    for m in reversed(dims):
        # Each offset so far extends by every step that keeps it in the ball.
        # No extension drops an offset, so the counts only grow.
        reach = np.minimum(m - 1, r - weight)
        count = 2 * reach + 1
        total = int(count.sum())
        if total > 2 * volume + 1:
            return None
        rep = np.repeat(np.arange(len(weight)), count)
        step = np.arange(total) - np.repeat(np.cumsum(count) - count + reach, count)
        cols = [step] + [col[rep] for col in cols]
        weight = weight[rep] + np.abs(step)
    flat = sum(col * math.prod(dims[i + 1 :]) for i, col in enumerate(cols))
    later = flat > 0
    if int(later.sum()) * sum(min(m, 2 * min(r, m - 1)) for m in dims) > 8 * len(dims) * volume:
        return None
    return flat[later], [col[later] for col in cols]


def greedy_code(grid: Grid, distance: int, budget: int = DEFAULT_BUDGET) -> GridCode:
    """Maximal code with minimum distance >= distance, built in lexicographic order.

    The scan raises BudgetError when the box holds more than ``budget``
    points.  The first free point is the next word, and its (distance-1)-ball
    leaves the free points.  Without numpy these are a Python-int bitset,
    and each ball grows from its word by steps of ``_box_steps``.  With
    numpy they are a mask, and each word clears the later half of its ball:
    a stencil of flat offsets built once (``_later_half_ball``) and masked
    near the faces, each axis's mask built when a word first needs it, or
    else its dense distance row.
    """
    distance = integer(distance, "design distance", 1)
    count = grid.volume()
    check_budget(count, budget, "greedy scan needs a mask of {} points")
    # Every distance past the diameter gives the same one-word code.
    distance = min(distance, grid.diameter() + 1)
    # The words' t-balls are disjoint and hold 1 + sum of min(t, m - 1) >= t + 1
    # points each (d - 1 is at most the diameter), so count/(t + 1) words grow
    # d - 1 <= 2t + 1 steps each, of n box shifts a step.
    np = numpy_for(2 * count * grid.n * (count // 20 + 16))
    r, dims, chosen = distance - 1, grid.dims, []  # chosen: the words' flat indices
    if np is None:
        strides, free, step = _box_steps(dims)
        while free:
            ball = free & -free
            chosen.append(ball.bit_length() - 1)
            for _ in range(r):
                ball = step(ball)
            free &= ~ball
    else:
        flat, cols = _later_half_ball(np, dims, r) or (None, [None] * grid.n)
        strides = [math.prod(dims[i + 1 :]) for i in range(grid.n)]
        # Per axis: stride, side, the stencil's reach and steps, masks by coordinate.
        axes = [(s, m, min(r, m - 1), col, {}) for s, m, col in zip(strides, dims, cols)]
        free, p = np.ones(count + 1, dtype=bool), 0  # free points, then a sentinel
        while p < count:
            chosen.append(p)
            if flat is None:
                gaps = (np.abs(np.arange(m) - p // s % m) for s, m in zip(strides, dims))
                free[p:count] &= sum(np.ix_(*gaps)).reshape(-1)[p:] > r
            else:
                keep = None
                for s, m, e, col, masks in axes:
                    c = p // s % m
                    if c < e or c >= m - e:
                        if c not in masks:
                            masks[c] = (col >= -c) & (col < m - c)
                        keep = masks[c] if keep is None else keep & masks[c]
                free[p + (flat if keep is None else flat[keep])] = False
            p += 1 + int(free[p + 1 :].argmax())
    words = zip(*([p // s % m for p in chosen] for s, m in zip(strides, dims)))
    return GridCode._trusted(grid, tuple(words))


@lru_cache(maxsize=8)
def _balls(dims: tuple[int, ...], metric: str):
    """The box's points in lexicographic order, edges and ball rows.

    Each metric is the path metric of a graph on the box: the grid graph,
    the torus and the Hamming graph.  Its edges come as cliques along the
    axis lines: ``pairs`` holds the neighbours on a line, plus the
    wrap-around pair on the torus, and ``lines`` the Hamming graph's lines
    of more than two points.  ``balls[r][v]`` is the r-ball around point v
    as a bitset, grown by ``_conflict_graph`` up to the eccentricity.
    """
    volume = math.prod(dims)
    pairs, lines = [], []
    stride = volume
    for m in dims:
        stride //= m
        if m == 1:
            continue
        for top in range(0, volume, m * stride):
            for start in range(top, top + stride):
                line = range(start, start + m * stride, stride)
                if metric == "hamming" and m > 2:
                    lines.append(line)
                else:
                    pairs += zip(line, line[1:])
                    if metric == "lee" and m > 2:
                        pairs.append((line[-1], line[0]))
    pts = list(itertools.product(*(range(m) for m in dims)))
    return pts, (pairs, lines), [[1 << v for v in range(volume)]]


def _conflict_graph(grid: Grid, distance: int, metric: str):
    """Vertices are grid points; neighbors are pairs at distance < distance.

    Row v is the (distance-1)-ball around v without v.  The r-ball is the
    union of the (r-1)-balls over the closed neighbourhood: each edge of
    ``_balls`` adds either end's ball to the other's, and each line adds the
    union over its members.
    """
    pts, (pairs, lines), balls = _balls(grid.dims, metric)
    while len(balls) < distance:
        prev = balls[-1]
        grown = list(prev)
        for u, w in pairs:
            grown[u] |= prev[w]
            grown[w] |= prev[u]
        for line in lines:
            union = 0
            for u in line:
                union |= prev[u]
            for u in line:
                grown[u] |= union
        if grown == prev:
            break  # past the eccentricity the balls stop growing
        balls.append(grown)
    top = balls[min(distance, len(balls)) - 1]
    return pts, [ball ^ bit for ball, bit in zip(top, balls[0])]


def _clique_cover(adj: list[int], cand: int) -> list[int]:
    """Greedily cover the candidate set with conflict cliques (as bitmasks).

    Each clique starts at the lowest uncovered candidate and grows through
    the lowest candidates adjacent to all its members.  An independent set
    meets each clique at most once, so the candidates covered by the first
    k cliques hold at most k independent vertices.
    """
    cliques = []
    while cand:
        clique = cand & -cand
        q = cand & adj[clique.bit_length() - 1]
        while q:
            low = q & -q
            clique |= low
            q &= adj[low.bit_length() - 1]
        cand ^= clique
        cliques.append(clique)
    return cliques


def max_independent_set(
    adj: list[int],
    upper: int | None = None,
    time_budget: float | None = None,
    node_budget: int | None = None,
    stats: dict | None = None,
) -> list[int]:
    """Russian-doll maximum independent set on bitset adjacency (Östergård 2002).

    c[i] is the size of a largest independent set inside the suffix
    {i, ..., n-1}.  It is computed for i = n-1 down to 0, and each step only
    asks whether an independent set of size c[i+1] + 1 contains vertex i.
    A search node branches on its candidates in increasing order and cuts as
    soon as its size plus the number of candidates, or plus c of the lowest
    candidate, cannot reach that target; a branch that reaches it returns
    its vertices from the bottom up.  The scan stops once c[i] reaches
    ``upper`` or the size of a greedy clique cover of the whole graph
    (``_clique_cover``), as both bound every independent set.  The result is
    returned sorted.

    ``node_budget`` caps the number of search nodes, deterministically;
    ``time_budget`` caps the wall-clock seconds, read every 1024 nodes.
    When either runs out in step i, BudgetError is raised with ``best``, the
    best set found (sorted), ``lower`` = c[i+1], its size, and ``upper`` the
    smallest of ``upper``, the root cover and c[i+1] plus the size of a
    clique cover of the prefix {0, ..., i}.  A completed search stores its
    node count in ``stats["nodes"]`` when ``stats`` is given.
    """
    n = len(adj)
    root = len(_clique_cover(adj, (1 << n) - 1))
    upper = root if upper is None else min(upper, root)
    c = [0] * (n + 1)
    best: list[int] = []
    non = [~row for row in adj]
    deadline = None if time_budget is None else time.monotonic() + time_budget
    # A node checks the budgets only when the count reaches ``check``.
    limit = 1 << 63 if node_budget is None else node_budget
    check = limit if deadline is None else min(limit, 1024)
    nodes = 0

    def stop(budget: str):
        error = BudgetError(
            f"independent-set search stopped by its {budget} after {nodes} nodes"
        )
        prefix = len(_clique_cover(adj, (1 << i + 1) - 1))
        error.best = sorted(best)
        error.lower, error.upper = len(best), min(upper, len(best) + prefix)
        return error

    def found(cand: int, need: int) -> list[int] | None:
        """``need`` vertices of ``cand`` that are pairwise independent, or None."""
        nonlocal nodes, check
        if nodes == check:
            if nodes == limit:
                raise stop("node budget")
            if time.monotonic() > deadline:
                raise stop(f"{time_budget}s time budget")
            check = min(limit, nodes + 1024)
        nodes += 1
        if not need:
            return []
        count = cand.bit_count()
        while count >= need:
            low = cand & -cand
            v = low.bit_length() - 1
            if c[v] < need:
                return None
            cand ^= low
            rest = found(cand & non[v], need - 1)
            if rest is not None:
                rest.append(v)
                return rest
            count -= 1
        return None

    later = 0
    for i in range(n - 1, -1, -1):
        rest = found(later & non[i], c[i + 1])
        if rest is not None:
            best = rest + [i]
        c[i] = len(best)
        if c[i] == upper:
            break
        later |= 1 << i
    if stats is not None:
        stats["nodes"] = nodes
    return sorted(best)


def _best_incumbent(pts, adj, distance: int) -> list[int]:
    """Strongest cheap independent set: greedy over several scan orders.

    Besides the plain lexicographic scan, points are grouped by weighted
    congruence classes, which recovers lattice-like packings.
    """
    count, n = len(pts), len(pts[0])
    weights = (range(1, n + 1), range(n, 0, -1))
    dots = [[sum(map(operator.mul, w, p)) for p in pts] for w in weights]
    orders = [range(count)]
    for q in sorted({distance, distance + 1, 2 * distance - 1}):
        for dot in dots:
            # The points are in lexicographic order, so the stable sort
            # breaks residue ties by point.
            orders.append(sorted(range(count), key=lambda i, d=dot: d[i] % q))
    best: list[int] = []
    for order in orders:
        blocked, chosen = 0, []
        for i in order:
            if not blocked >> i & 1:
                chosen.append(i)
                blocked |= adj[i] | 1 << i
        if len(chosen) > len(best):
            best = chosen
    return best


def _to_axes(words, axes: list[int], n: int) -> tuple[Point, ...]:
    """Canonical words in the caller's n axes, sorted: coordinate k of a
    word goes to axis ``axes[k]`` and the other axes (sides of 1) hold 0."""
    out = []
    for p in words:
        word = [0] * n
        for a, x in zip(axes, p):
            word[a] = x
        out.append(tuple(word))
    return tuple(sorted(out))


def exact_max_code(
    grid: Grid,
    distance: int,
    metric: str = "manhattan",
    time_budget: float | None = None,
    node_budget: int | None = None,
) -> tuple[int, GridCode]:
    """Exact maximum code size with minimum distance >= distance, plus a witness.

    An unknown ``metric``, a ``node_budget`` that is not an integer >= 0 or a
    negative or NaN ``time_budget`` is a DomainError before any closed form.  Closed forms
    handle distance 1, distance 2, one effective dimension, and distances
    beyond the diameter.  Otherwise ``max_independent_set`` searches the
    conflict graph of the canonical box (sides of 1 dropped, the rest sorted
    longest first) and stops at ``hamming_bound``, which holds under every
    metric, lowered to the Singleton bound under the Hamming metric; the
    witness is mapped back to the caller's axes.  A completed search is kept
    per (canonical dims, distance, metric) with its node count and serves
    later calls whose ``node_budget`` is None or at least that count, so no
    budget stop depends on earlier calls.  The conflict graph's volume is
    capped at ``DEFAULT_EXACT_VOLUME``, the points a closed form visits at
    ``DEFAULT_BUDGET``.  The optional node and wall-clock budgets stop the
    search with its BudgetError, whose ``lower`` is raised to the best of a
    few greedy scans (``_best_incumbent``) and whose message then ends in the
    proven ``lower <= A <= upper``; a stop whose best set meets ``upper``
    returns it.  Use greedy_code past these limits.
    """
    distance = integer(distance, "design distance", 1)
    node_budget = None if node_budget is None else integer(node_budget, "node budget", 0)
    if time_budget is not None and not time_budget >= 0:  # "not >=" also refuses NaN
        raise DomainError(f"time budget {time_budget} must be >= 0")
    metric_function(metric)  # raises the canonical DomainError
    volume, visited = grid.volume(), "exact closed form visits {} points"
    if distance == 1 or metric == "manhattan" and distance == 2:
        # Every point, or under Manhattan distance 2 one parity class: the
        # conflict graph is the grid graph, bipartite with a near-perfect matching.
        check_budget(volume, DEFAULT_BUDGET, visited)
        words = tuple(p for p in grid.points() if sum(p) % distance == 0)
        return len(words), GridCode._trusted(grid, words)
    dims = grid.dims
    # Longest axis first: every suffix of the lexicographic order is then a
    # slab sub-box plus a partial slab, which keeps the c-vector tight.
    axes = sorted((a for a in range(grid.n) if dims[a] > 1), key=lambda a: -dims[a])
    canon = tuple(dims[a] for a in axes)
    if not canon or (metric == "manhattan" and distance > grid.diameter()):
        return 1, GridCode._trusted(grid, (tuple(0 for _ in dims),))
    key = (canon, distance, metric)
    hit = _solved.get(key)
    if metric == "manhattan" and len(canon) == 1:
        check_budget(len(range(0, canon[0], distance)), DEFAULT_BUDGET, visited)
        words = [(k,) for k in range(0, canon[0], distance)]
    elif hit is not None and (node_budget is None or node_budget >= hit[1]):
        words = hit[0]
    else:
        check_budget(volume, DEFAULT_EXACT_VOLUME,
                     "exact search needs a conflict graph on {} points")
        box = Grid(canon)
        pts, adj = _conflict_graph(box, distance, metric)
        upper = hamming_bound(box, distance)
        if metric == "hamming":
            # Singleton: deleting the d - 1 longest axes keeps the words distinct.
            upper = min(upper, math.prod(canon[distance - 1:]))
        stats: dict = {}
        try:
            chosen = max_independent_set(
                adj, upper=upper, time_budget=time_budget, node_budget=node_budget,
                stats=stats,
            )
        except BudgetError as stop:
            chosen = max(stop.best, _best_incumbent(pts, adj, distance), key=len)
            if len(chosen) < stop.upper:
                stop.best, stop.lower = sorted(chosen), len(chosen)
                stop.args = (f"{stop}: {stop.lower} <= A <= {stop.upper}",)
                raise
        else:
            if len(_solved) >= SOLVED_LIMIT:
                del _solved[next(iter(_solved))]
            _solved[key] = (tuple(pts[i] for i in chosen), stats["nodes"])
        words = [pts[i] for i in chosen]
    return len(words), GridCode._trusted(grid, _to_axes(words, axes, grid.n))

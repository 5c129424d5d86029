"""Reference answers computed apart from the gridcodes program.

Nothing here imports gridcodes.  Ball sizes come from generating functions:
for a centre x of the box prod_i [0, m_i - 1], the number of points at
distance k is the coefficient of z^k in prod_i P_i(z), where
P_i(z) = sum_{j=0}^{m_i-1} z^{|j - x_i|} counts the offsets along axis i.
Distances, covering radii, greedy codes and cyclic codes are recomputed
with numpy scans.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from functools import reduce
from pathlib import Path

import numpy as np

#: Seed of the grid family shared with the acceptance criteria.
FAMILY_SEED = 20260823

#: Largest volume of the exact-search family; see README.md.
EXACT_VOLUME_CAP = 96

EXACT_OPTIMA = Path(__file__).with_name("exact_optima.json")


def grid_family(count=200, max_n=4, max_side=9, max_volume=20000):
    """The seeded random grid family of the acceptance criteria."""
    rng = random.Random(FAMILY_SEED)
    family = []
    while len(family) < count:
        n = rng.randint(1, max_n)
        dims = tuple(rng.randint(1, max_side) for _ in range(n))
        if math.prod(dims) <= max_volume:
            family.append(dims)
    return family


def exact_family(cap=EXACT_VOLUME_CAP):
    """Distinct family grids of volume at most ``cap``, sorted."""
    return [dims for dims in sorted(set(grid_family())) if math.prod(dims) <= cap]


def instance_key(dims, d) -> str:
    return ",".join(map(str, dims)) + f"|{d}"


def load_exact_optima() -> dict[str, int]:
    with open(EXACT_OPTIMA, encoding="utf-8") as fh:
        return json.load(fh)["optima"]


# --- ball sizes -----------------------------------------------------------


def _multiply(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def ball_profile(dims, centre) -> list[int]:
    """sizes[r] = |B_r(centre)| for r = 0..diameter, exact integers."""
    poly = [1]
    for m, x in zip(dims, centre):
        axis = [0] * m
        for j in range(m):
            axis[abs(j - x)] += 1
        poly = _multiply(poly, axis)
    return list(itertools.accumulate(poly))


def size_at(profile: list[int], r: int) -> int:
    if r < 0:
        return 0
    return profile[min(r, len(profile) - 1)]


def corner_profile(dims) -> list[int]:
    return ball_profile(dims, [0] * len(dims))


def centre_profile(dims) -> list[int]:
    return ball_profile(dims, [(m - 1) // 2 for m in dims])


def zn_ball(n: int, r: int) -> int:
    """|B_r| in Z^n: prefix sum of (1 + 2z + ... + 2z^r)^n up to degree r."""
    if r < 0:
        return 0
    axis = [1] + [2] * r
    poly = [1]
    for _ in range(n):
        poly = _multiply(poly, axis)[: r + 1]
    return sum(poly)


def brute_extremes(dims) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) ball size over all centres for every radius, by a full
    distance histogram.  Only for small grids."""
    pts = points_array(dims)
    width = sum(m - 1 for m in dims) + 1
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    rows = len(pts)
    flat = (dist + (np.arange(rows) * width)[:, None]).ravel()
    counts = np.bincount(flat, minlength=rows * width).reshape(rows, width)
    sizes = np.cumsum(counts, axis=1)
    return sizes.min(axis=0), sizes.max(axis=0)


def expected_bounds(dims, d: int, eta_profile, gamma_profile) -> dict:
    """The fields of bound_report(grid, d), from reference ball sizes."""
    volume = math.prod(dims)
    t = (d - 1) // 2
    return {
        "distance": d,
        "packing_radius": t,
        "hamming_upper": volume // size_at(eta_profile, t),
        "gv_lower_strong": -(-volume // size_at(gamma_profile, d - 1)),
        "gv_lower_weak": -(-volume // zn_ball(len(dims), d - 1)),
        "degenerate": d > sum(m - 1 for m in dims) + 1,
    }


# --- codes -----------------------------------------------------------------


def points_array(dims) -> np.ndarray:
    """All grid points in lexicographic order, one row each."""
    grids = np.meshgrid(*(np.arange(m) for m in dims), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.int32)


def pairwise_extremes(words, sides=None, metric="manhattan", chunk=256):
    """(min, max) distance over all unordered pairs of distinct rows."""
    words = np.asarray(words, dtype=np.int16)
    count = len(words)
    lo, hi = None, 0
    for start in range(0, count - 1, chunk):
        block, rest = words[start : start + chunk], words[start:]
        diff = np.abs(block[:, None, :] - rest[None, :, :])
        if metric == "manhattan":
            dist = diff.sum(axis=2, dtype=np.int32)
        elif metric == "lee":
            dist = np.minimum(diff, np.asarray(sides, dtype=np.int16) - diff).sum(
                axis=2, dtype=np.int32
            )
        else:
            dist = (diff != 0).sum(axis=2, dtype=np.int32)
        # Row b is word start+b and column c is word start+c: keep c > b.
        vals = dist[np.triu(np.ones(dist.shape, dtype=bool), k=1)]
        lo = int(vals.min()) if lo is None else min(lo, int(vals.min()))
        hi = max(hi, int(vals.max()))
    return lo, hi


def covering_radius_bfs(dims, codewords) -> int:
    """Largest grid-graph distance to the nearest codeword (multi-source BFS).

    In a box the grid-graph distance equals the Manhattan distance.
    """
    inf = np.iinfo(np.int32).max
    dist = np.full(tuple(dims), inf, dtype=np.int32)
    frontier = np.zeros(tuple(dims), dtype=bool)
    for word in codewords:
        frontier[tuple(word)] = True
    dist[frontier] = 0
    level = 0
    while frontier.any():
        level += 1
        grown = np.zeros_like(frontier)
        for axis in range(len(dims)):
            lead = [slice(None)] * len(dims)
            rest = [slice(None)] * len(dims)
            lead[axis], rest[axis] = slice(1, None), slice(None, -1)
            grown[tuple(lead)] |= frontier[tuple(rest)]
            grown[tuple(rest)] |= frontier[tuple(lead)]
        frontier = grown & (dist == inf)
        dist[frontier] = level
    return int(dist.max())


def lex_greedy(dims, d: int) -> list[tuple[int, ...]]:
    """Scan the points in lexicographic order; keep each point at distance
    >= d from all kept ones.  Kept points block their (d-1)-ball."""
    n = len(dims)
    offsets = np.array(
        [o for o in itertools.product(range(-(d - 1), d), repeat=n)
         if sum(map(abs, o)) <= d - 1],
        dtype=np.int32,
    ).reshape(-1, n)
    upper = np.asarray(dims, dtype=np.int32)
    blocked = np.zeros(tuple(dims), dtype=bool)
    kept = []
    for p in itertools.product(*(range(m) for m in dims)):
        if blocked[p]:
            continue
        kept.append(p)
        ball = offsets + np.asarray(p, dtype=np.int32)
        inside = ((ball >= 0) & (ball < upper)).all(axis=1)
        blocked[tuple(ball[inside].T)] = True
    return kept


def expected_analysis(dims, words, radii=()) -> dict:
    """The fields of analyze(code, radii).to_json_dict() for a code of at
    least two words."""
    words = np.asarray(words, dtype=np.int32).reshape(-1, len(dims))
    mins, maxs = {}, {}
    for metric in ("manhattan", "lee", "hamming"):
        mins[metric], maxs[metric] = pairwise_extremes(words, dims, metric)
    t = (mins["manhattan"] - 1) // 2
    s = covering_radius_bfs(dims, words)
    return {
        "size": len(words),
        "min_distance": mins["manhattan"],
        "min_distance_by_metric": mins,
        "max_distance": maxs["manhattan"],
        "packing_radius": t,
        "covering_radius": s,
        "perfect": s <= t,
        "attains_hamming_bound": len(words) * size_at(corner_profile(dims), t)
        == math.prod(dims),
        "covering_property": {str(r): s <= int(r) for r in radii},
    }


def code_violations(dims, words, d: int) -> list[str]:
    """Why ``words`` is not a code of minimum distance >= d in the grid."""
    arr = np.asarray(words, dtype=np.int32).reshape(-1, len(dims))
    problems = []
    if len(arr) == 0:
        return ["empty code"]
    if ((arr < 0) | (arr >= np.asarray(dims))).any():
        problems.append("codeword outside the grid")
    if len({tuple(w) for w in arr.tolist()}) != len(arr):
        problems.append("duplicate codewords")
    elif len(arr) > 1:
        lo, _ = pairwise_extremes(arr)
        if lo < d:
            problems.append(f"two codewords at distance {lo} < {d}")
    return problems


# --- cyclic codes ------------------------------------------------------------


def cyclic_reference(orders, exponents) -> dict:
    """Distance parameters of the code generated by ``exponents`` in
    C_{m_1} x ... x C_{m_n}, from its codewords.

    Manhattan minima and maxima scan every pair of codewords.  Hamming and
    Lee weights are translation invariant in the group, so the scan of each
    codeword against the identity gives all pair distances.
    """
    orders = np.asarray(orders, dtype=np.int64)
    exps = np.asarray(exponents, dtype=np.int64)
    support = np.nonzero(exps)[0]
    gcds = np.gcd(exps[support], orders[support])
    hat_sides = orders[support] // gcds
    cofactors = exps[support] // gcds
    order = int(reduce(math.lcm, hat_sides.tolist(), 1))
    k = np.arange(order, dtype=np.int64)[:, None]
    words = (k * exps[None, :]) % orders[None, :]
    hat = (k * cofactors[None, :]) % hat_sides[None, :]
    weights = (words[1:] != 0).sum(axis=1)
    lee = np.minimum(words[1:], orders - words[1:]).sum(axis=1)
    hat_lee = np.minimum(hat[1:], hat_sides - hat[1:]).sum(axis=1)
    d_man, delta_man = pairwise_extremes(words)
    hat_d_man, _ = pairwise_extremes(hat)
    return {
        "order": order,
        "min_gcd": int(gcds.min()),
        "d_hamming": int(weights.min()),
        "delta_hamming": int(weights.max()),
        "d_lee": int(lee.min()),
        "hat_d_lee": int(hat_lee.min()),
        "d_manhattan": d_man,
        "delta_manhattan": delta_man,
        "hat_d_manhattan": hat_d_man,
        "delta_upper": int((orders[support] - gcds).sum()),
    }


def expected_chain(orders, exponents) -> dict:
    """bound_chain(spec).to_json_dict() from the reference parameters."""
    ref = cyclic_reference(orders, exponents)
    l = ref["min_gcd"]
    return {
        "order": ref["order"],
        "d_hamming": ref["d_hamming"],
        "delta_hamming": ref["delta_hamming"],
        "chain": {
            "l": l,
            "l_times_d_hamming": l * ref["d_hamming"],
            "l_times_hat_d_lee": l * ref["hat_d_lee"],
            "d_lee": ref["d_lee"],
            "l_times_hat_d_manhattan": l * ref["hat_d_manhattan"],
            "max_mid": max(ref["d_lee"], l * ref["hat_d_manhattan"]),
            "d_manhattan": ref["d_manhattan"],
            "delta_manhattan": ref["delta_manhattan"],
            "delta_upper": ref["delta_upper"],
        },
    }


def cyclic_order(orders, exponents) -> int:
    return reduce(
        math.lcm, (m // math.gcd(e, m) for m, e in zip(orders, exponents) if e), 1
    )

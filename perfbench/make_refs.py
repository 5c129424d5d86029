"""Regenerate exact_optima.json, the exact-search references, with HiGHS.

Each instance (grid, d) of the exact-search family is solved as a 0/1
integer program with scipy.optimize.milp: one variable per grid point,
maximise their sum, subject to x_u + x_v <= 1 for every pair closer than d
and to one clique row per ball clique.  For odd d the cliques are the balls
B_t(p), t = (d-1)/2; for even d they are B_t(p) u B_t(p+e_i), t = (d-2)/2.
Every solution is checked to be a code of minimum distance >= d.

    python3 perfbench/make_refs.py

Needs scipy; the benchmark run itself does not.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np
from scipy.optimize import LinearConstraint, milp
from scipy.sparse import coo_matrix

import refs


def _ball_cliques(pts: np.ndarray, dist: np.ndarray, d: int):
    t = (d - 1) // 2
    if d % 2:
        yield from (dist[i] <= t for i in range(len(pts)))
        return
    index = {tuple(p): i for i, p in enumerate(pts.tolist())}
    for i, p in enumerate(pts.tolist()):
        for axis in range(len(p)):
            q = list(p)
            q[axis] += 1
            j = index.get(tuple(q))
            if j is not None:
                yield (dist[i] <= t) | (dist[j] <= t)


def max_code_size(dims, d: int) -> int:
    pts = refs.points_array(dims)
    volume = len(pts)
    if d == 1:
        return volume
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    rows = [np.array([u, v]) for u, v in zip(*np.nonzero(np.triu(dist < d, k=1)))]
    rows += [np.nonzero(mask)[0] for mask in _ball_cliques(pts, dist, d)]
    row_ids = np.concatenate([np.full(len(r), k) for k, r in enumerate(rows)])
    matrix = coo_matrix(
        (np.ones(len(row_ids)), (row_ids, np.concatenate(rows))),
        shape=(len(rows), volume),
    )
    res = milp(
        c=-np.ones(volume),
        constraints=LinearConstraint(matrix, -np.inf, 1),
        integrality=np.ones(volume),
        bounds=(0, 1),
        options={"mip_rel_gap": 0},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not prove optimality on {dims} d={d}: {res.message}")
    chosen = np.nonzero(res.x > 0.5)[0]
    size = round(-res.fun)
    problems = refs.code_violations(dims, pts[chosen], d)
    if len(chosen) != size or problems:
        raise RuntimeError(f"bad MILP witness on {dims} d={d}: {problems}")
    return size


def main() -> int:
    start = time.perf_counter()
    optima = {}
    for dims in refs.exact_family():
        for d in range(1, sum(m - 1 for m in dims) + 2):
            optima[refs.instance_key(dims, d)] = max_code_size(dims, d)
    payload = {
        "family_seed": refs.FAMILY_SEED,
        "volume_cap": refs.EXACT_VOLUME_CAP,
        "solver": "scipy.optimize.milp (HiGHS), conflict-edge and ball-clique rows",
        "optima": optima,
    }
    with open(refs.EXACT_OPTIMA, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(
        f"{len(optima)} instances on {len(refs.exact_family())} grids "
        f"in {time.perf_counter() - start:.1f} s",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

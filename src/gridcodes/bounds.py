"""Sphere-packing upper bound and Gilbert-Varshamov lower bounds for grid codes.

The upper bound divides the grid volume by the smallest ball of the packing
radius; the lower bounds divide it by the largest ball of radius d-1 (strong)
or by the free-space ball size in Z^n (weak, always at most the strong one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .balls import eta_value, gamma_value
from .grid import Grid, integer


@lru_cache(maxsize=None, typed=True)  # True must not hit the entry of 1
def zn_ball_size(n: int, r: int) -> int:
    """Size of the Manhattan r-ball in Z^n (center-independent)."""
    n = integer(n, "dimension", 1)
    if r < 0:
        return 0
    return sum(
        2**j * math.comb(n, j) * math.comb(r, j) for j in range(min(r, n) + 1)
    )


@dataclass(frozen=True)
class BoundReport:
    grid: Grid
    distance: int
    packing_radius: int
    hamming_upper: int
    gv_lower_strong: int
    gv_lower_weak: int
    degenerate: bool  # distance exceeds diameter + 1: only one-point codes pair-free

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.grid.dims),
            "distance": self.distance,
            "packing_radius": self.packing_radius,
            "hamming_upper": self.hamming_upper,
            "gv_lower_strong": self.gv_lower_strong,
            "gv_lower_weak": self.gv_lower_weak,
            "degenerate": self.degenerate,
        }


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def bound_report(grid: Grid, distance: int) -> BoundReport:
    distance = integer(distance, "design distance", 1)
    volume = grid.volume()
    return BoundReport(
        grid=grid,
        distance=distance,
        packing_radius=(distance - 1) // 2,
        hamming_upper=hamming_bound(grid, distance),
        gv_lower_strong=_ceil_div(volume, gamma_value(grid.dims, distance - 1)),
        gv_lower_weak=_ceil_div(volume, zn_ball_size(grid.n, distance - 1)),
        degenerate=distance > grid.diameter() + 1,
    )


def hamming_bound(grid: Grid, distance: int) -> int:
    """Upper bound on the size of a code with minimum distance >= distance.

    Lee and Hamming distances never exceed the Manhattan one, so the bound
    holds under all three metrics.
    """
    distance = integer(distance, "design distance", 1)
    return grid.volume() // eta_value(grid.dims, (distance - 1) // 2)


def gv_bound(grid: Grid, distance: int) -> tuple[int, int]:
    """(weak, strong) lower bounds on the maximum code size."""
    report = bound_report(grid, distance)
    return report.gv_lower_weak, report.gv_lower_strong

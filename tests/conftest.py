"""Shared helpers: seeded random families and numpy brute-force oracles."""

import importlib.util
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest

import gridcodes.codes
import gridcodes.cyclic
import gridcodes.grid
from gridcodes import Grid, codeword, derive

FAMILY_SEED = 20260823

#: One "CRITERION n (...): PASS/FAIL" line per acceptance criterion, echoed
#: after the run (appended by tests/test_acceptance.py).
CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for line in CRITERION_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(params=["pure", "numpy"])
def kernel_path(request, monkeypatch):
    """Runs a test on each path of the distance kernels.  This process has
    numpy loaded, so without the patch only the numpy paths would run."""
    module = None if request.param == "pure" else np
    for owner in (gridcodes.grid, gridcodes.codes, gridcodes.cyclic):
        monkeypatch.setattr(owner, "numpy_for", lambda work: module)
    return request.param


def load_tool(name):
    """The script ``tools/<name>.py`` as a module."""
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_grid_family(count=200, max_n=4, max_side=9, max_volume=20000):
    """The deterministic random grid family used across the suite."""
    rng = random.Random(FAMILY_SEED)
    family = []
    while len(family) < count:
        n = rng.randint(1, max_n)
        dims = tuple(rng.randint(1, max_side) for _ in range(n))
        if math.prod(dims) <= max_volume:
            family.append(dims)
    return family


def enumerate_zn_ball(n, center, radius):
    """The unconstrained Manhattan ball in Z^n, sorted: the oracle for
    ``zn_ball_size``."""
    out = []
    for offs in itertools.product(range(-radius, radius + 1), repeat=n):
        if sum(abs(o) for o in offs) <= radius:
            out.append(tuple(c + o for c, o in zip(center, offs)))
    out.sort()
    return out


def power_support_extremes(spec):
    """(min, max) support size over the non-identity powers of the generator:
    the power-scan oracle for ``min_hamming_distance``."""
    supports = [
        sum(1 for c in codeword(spec, k) if c != 0) for k in range(1, derive(spec).order)
    ]
    return min(supports), max(supports)


def ball_size_table(dims):
    """sizes[i, r] = |B_r(p_i)| for every grid point p_i (lexicographic order).

    Chunked numpy distance histograms; the independent oracle for the
    eta/gamma/ball_size_at formulas.
    """
    grid = Grid(dims)
    pts = np.array(list(grid.points()), dtype=np.int16)
    volume = len(pts)
    diameter = grid.diameter()
    sizes = np.zeros((volume, diameter + 1), dtype=np.int32)
    width = diameter + 1
    for start in range(0, volume, 512):
        block = pts[start : start + 512]
        dists = np.abs(block[:, None, :] - pts[None, :, :]).sum(
            axis=2, dtype=np.int32
        )
        rows = len(block)
        flat = (dists + (np.arange(rows) * width)[:, None]).ravel()
        counts = np.bincount(flat, minlength=rows * width).reshape(rows, width)
        sizes[start : start + rows] = np.cumsum(counts, axis=1)
    return sizes

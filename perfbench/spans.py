"""Spans around the calls into each gridcodes module, recorded from outside.

A span is recorded by replacing a module attribute with a wrapper, in every
gridcodes module that binds the same function, so a call is caught whether
it comes from the benchmark or from another module (``bounds.eta_value``
catches the calls from ``bound_report``).  Spans are kept in memory; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import time

from refs import cyclic_order

LAYERS = ("grid", "balls", "bounds", "codes", "cyclic", "cli")

#: The functions wrapped in each layer: those the per-layer metrics name.
#: Smaller helpers (codeword, manhattan_distance, ...) are not wrapped;
#: their time is their caller's.
TRACED = {
    "grid": ("pairwise_distance_extremes",),
    "balls": ("eta_value", "gamma_value", "ball_size_at"),
    "bounds": ("bound_report",),
    "codes": (
        "analyze", "covering_radius", "greedy_code", "exact_max_code",
        "max_independent_set",
    ),
    "cyclic": ("derive", "bound_chain"),
    "cli": ("main",),
}


def _pairs(grid, points, *_, **__):
    return math.comb(len(set(points)), 2)


def _cover_points(code, *_, **__):
    return code.grid.volume() * code.size()


def _cyclic_pairs(spec, *_, **__):
    # Two Manhattan scans, in the ambient and in the refined coordinates.
    return 2 * math.comb(cyclic_order(spec.orders, spec.generator_exponents), 2)


#: Work counts computed from a call's inputs, not reported by the program.
WORK = {
    "grid.pairwise_distance_extremes": _pairs,
    "codes.covering_radius": _cover_points,
    "cyclic.bound_chain": _cyclic_pairs,
}


class Tracer:
    """Collects spans as [name, start, end, parent, op, work] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def _wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, 0.0, 0.0, parent, self.op, work(*args, **kwargs) if work else 0]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def adopt(self, spans: list[list]) -> None:
        """Append spans recorded by another process (a traced CLI child)."""
        offset = len(self.spans)
        for name, start, end, parent, _, work in spans:
            parent = None if parent is None else parent + offset
            self.spans.append([name, start, end, parent, self.op, work])

    def install(self) -> None:
        """Wrap every function of TRACED wherever a gridcodes module binds it."""
        modules = [importlib.import_module("gridcodes")] + [
            importlib.import_module(f"gridcodes.{layer}") for layer in LAYERS
        ]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"gridcodes.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and summed work."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _, _, work) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        entry["work"] += work
    return out

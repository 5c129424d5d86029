import collections
import dataclasses
import functools
import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from gridcodes import (
    BudgetError,
    CyclicCodeSpec,
    DomainError,
    Grid,
    GridCode,
    analyze,
    bound_chain,
    bound_report,
    covering_radius,
    exact_max_code,
    greedy_code,
    hamming_bound,
    hamming_distance,
    lee_distance,
    manhattan_distance,
    pairwise_distance_extremes,
)
from gridcodes import codes
from gridcodes.codes import (
    _best_incumbent,
    _clique_cover,
    _conflict_graph,
    _later_half_ball,
    max_independent_set,
)
from gridcodes.grid import CHUNK, METRICS, _extremes, metric_function

from conftest import load_tool, random_grid_family


def per_point_covering_radius(code):
    """Reference covering radius: the largest nearest-codeword distance, point by point."""
    return max(
        min(manhattan_distance(code.grid, p, c) for c in code.codewords)
        for p in code.grid.points()
    )


def lexicographic_greedy(grid, distance):
    """Reference greedy scan, pair by pair: each point in lexicographic order
    joins the code when it is at distance >= distance from every word so far."""
    code = []
    for p in grid.points():
        if all(manhattan_distance(grid, p, w) >= distance for w in reversed(code)):
            code.append(p)
    return tuple(code)


def dense_greedy(grid, distance):
    """Reference greedy scan, one dense distance row per word: each point in
    lexicographic order joins the code unless an earlier word is closer than
    distance."""
    pts = np.array(list(grid.points()))
    free = np.ones(len(pts), dtype=bool)
    code = []
    for i, p in enumerate(pts):
        if free[i]:
            code.append(tuple(int(x) for x in p))
            free &= np.abs(pts - p).sum(axis=1) >= distance
    return tuple(code)


def bfs_covering_radius(code):
    """Reference covering radius: a breadth-first search from the codewords,
    one grid step at a time."""
    dims = code.grid.dims
    dist = dict.fromkeys(code.codewords, 0)
    queue = collections.deque(code.codewords)
    while queue:
        p = queue.popleft()
        for i, m in enumerate(dims):
            for x in (p[i] - 1, p[i] + 1):
                q = p[:i] + (x,) + p[i + 1 :]
                if 0 <= x < m and q not in dist:
                    dist[q] = dist[p] + 1
                    queue.append(q)
    return max(dist.values())


def min_distance(grid, words, metric="manhattan"):
    """Minimum pairwise distance of ``words`` under ``metric``, from the kernel."""
    return pairwise_distance_extremes(grid, words)[metric][0]


def brute_force_max_code(grid, distance, metric="manhattan"):
    """Reference exponential search, usable only on tiny grids."""
    pts = list(grid.points())
    best = 1
    for size in range(len(pts), 1, -1):
        for combo in itertools.combinations(pts, size):
            if min_distance(grid, combo, metric) >= distance:
                return size
    return best


class TestGridCode:
    def test_sorted_and_validated(self):
        code = GridCode(Grid((5, 2)), ((4, 1), (0, 0)))
        assert code.codewords == ((0, 0), (4, 1))
        assert code.size() == 2

    def test_rejects_duplicates_and_outsiders(self):
        g = Grid((5, 2))
        with pytest.raises(DomainError):
            GridCode(g, ((0, 0), (0, 0)))
        with pytest.raises(DomainError):
            GridCode(g, ((5, 0),))
        with pytest.raises(DomainError):
            GridCode(g, ())

    def test_json_round_trip(self, tmp_path):
        code = GridCode(Grid((5, 2)), ((0, 0), (4, 1)))
        path = tmp_path / "code.json"
        code.save(path)
        loaded = GridCode.load(path)
        assert loaded == code
        raw = json.loads(path.read_text())
        assert set(raw) == {"dims", "codewords"}

    def test_from_json_dict_rejects_malformed(self):
        with pytest.raises(DomainError):
            GridCode.from_json_dict({"dims": [5, 2]})
        for dims, words in (
            ([5, 2], 5), ([5, 2], [5]), ([5, 2], "ab"), ([5, 2], None),
            (5, [[0]]), (["a"], [[0]]), ([5], [["a"]]), ([5], [[None]]),
            ([5.9, 2], [[1.5, 0], [4, 1.2]]), ([5.0, 2], [[0, 0]]),
            ([5, 2], [[1.0, 0]]), ([True, 2], [[0, 0]]), ([5, 2], [[True, 0]]),
        ):
            with pytest.raises(DomainError):
                GridCode.from_json_dict({"dims": dims, "codewords": words})

    def test_constructor_rejects_non_integers(self):
        with pytest.raises(DomainError, match="5.9"):
            GridCode(Grid((5.9, 2)), ((1.5, 0),))
        with pytest.raises(DomainError, match="1.5"):
            GridCode(Grid((5, 2)), ((1.5, 0),))


class TestAnalysis:
    def test_perfect_and_attaining(self):
        code = GridCode(Grid((5, 2)), ((0, 0), (4, 1)))
        result = analyze(code)
        assert result.min_distance["manhattan"] == 5
        assert result.packing_radius == 2
        assert result.covering_radius == 2
        assert result.is_perfect
        assert result.attains_hamming_bound

    def test_perfect_without_attaining(self):
        code = GridCode(Grid((5, 2)), ((0, 1), (2, 0), (4, 1)))
        result = analyze(code)
        assert result.packing_radius == 1
        assert result.is_perfect
        assert not result.attains_hamming_bound

    def test_single_codeword(self):
        g = Grid((3, 3))
        result = analyze(GridCode(g, ((1, 1),)))
        assert result.min_distance == {}
        assert result.packing_radius == g.diameter()
        assert result.covering_radius == 2
        assert result.is_perfect

    def test_covering_radius_brute(self):
        g = Grid((5, 2))
        code = GridCode(g, ((0, 0), (4, 1)))
        assert covering_radius(code) == 2
        # Random codes on grids of more than CHUNK points.
        rng = random.Random(11)
        for dims in ((30, 20), (9, 8, 10), (4, 5, 6, 7)):
            g = Grid(dims)
            assert g.volume() > CHUNK
            pts = list(g.points())
            for size in (1, 5, 40):
                code = GridCode(g, tuple(rng.sample(pts, size)))
                assert covering_radius(code) == per_point_covering_radius(code)
        # A long line, sides of 1, one codeword and the whole grid as the code.
        for dims in ((700,), (1,), (1, 1, 1), (1, 9, 1, 4), (7, 1, 5)):
            g = Grid(dims)
            pts = list(g.points())
            codes = [GridCode(g, (p,)) for p in (pts[0], pts[-1], pts[len(pts) // 3])]
            codes += [GridCode(g, tuple(pts))]
            codes += [GridCode(g, tuple(rng.sample(pts, min(3, len(pts)))))]
            for code in codes:
                assert covering_radius(code) == per_point_covering_radius(code)
        assert covering_radius(GridCode(Grid((700,)), ((0,),))) == 699

    def test_covering_budget(self):
        code = GridCode(Grid((40, 40)), ((0, 0),))
        with pytest.raises(BudgetError):
            covering_radius(code, budget=100)

    def test_requested_radii(self):
        code = GridCode(Grid((5, 2)), ((0, 0), (4, 1)))
        result = analyze(code, requested_covering_radii=(1, 2, 3))
        assert result.covering_property == {1: False, 2: True, 3: True}

    def test_one_kernel_call(self, monkeypatch):
        # One pass of the pairwise kernel gives all three metrics.
        calls = []

        def counted(dims, points):
            calls.append(len(points))
            return _extremes(dims, points)

        monkeypatch.setattr(codes, "_extremes", counted)
        code = greedy_code(Grid((9, 8, 10)), 4)
        result = analyze(code)
        assert calls == [code.size()]
        extremes = pairwise_distance_extremes(code.grid, code.codewords)
        assert result.min_distance == {m: lo for m, (lo, _) in extremes.items()}
        assert result.max_distance == {m: hi for m, (_, hi) in extremes.items()}
        analyze(GridCode(code.grid, code.codewords[:1]))
        assert len(calls) == 1

    def test_budget_gates_the_pairwise_scan(self, monkeypatch):
        # The covering check charges the box's points and then the pairwise
        # scan C(|C|, 2) pairs, both before the kernel runs.
        def kernel(dims, points):
            raise AssertionError("the pairwise kernel ran")

        monkeypatch.setattr(codes, "_extremes", kernel)
        box = Grid((150, 100))
        with pytest.raises(BudgetError, match="full scan of 15000 points, budget is 100$"):
            analyze(GridCode(box, tuple(box.points())), budget=100)
        line = Grid((4473,))
        words = tuple(line.points())
        with pytest.raises(BudgetError, match="10001628 codeword pairs, budget is 10000000$"):
            analyze(GridCode(line, words))
        # C(4472, 2) = 9997156 pairs fit the default budget.
        monkeypatch.setattr(
            codes, "_extremes",
            lambda dims, points: {metric: (1, 1) for metric in METRICS},
        )
        assert analyze(GridCode(line, words[:-1])).min_distance["lee"] == 1

    def test_negative_requested_radius(self):
        code = GridCode(Grid((5, 2)), ((0, 0), (4, 1)))
        with pytest.raises(DomainError, match="radius -1"):
            analyze(code, requested_covering_radii=(2, -1))


def test_distance_outputs_are_python_ints():
    # json.dumps rejects numpy integers, so nothing numpy may leave the package.
    g = Grid((9, 8, 10))
    result = analyze(greedy_code(g, 4))
    values = [result.covering_radius, result.packing_radius]
    values += [*result.min_distance.values(), *result.max_distance.values()]
    assert len(values) == 8
    extremes = pairwise_distance_extremes(g, [(0, 0, 0), (3, 7, 9), (8, 1, 2)])
    assert len(extremes) == 3
    values += [v for pair in extremes.values() for v in pair]
    chain = bound_chain(CyclicCodeSpec((8, 12, 9), (2, 3, 4)))
    values += [getattr(chain, f.name) for f in dataclasses.fields(chain) if f.name != "spec"]
    assert all(type(v) is int for v in values)


class TestGreedy:
    def test_maximality(self):
        # Every remaining point is within d-1 of the greedy code.
        g = Grid((6, 5))
        code = greedy_code(g, 4)
        assert min_distance(g, code.codewords) >= 4
        assert covering_radius(code) <= 3

    def test_stencil_scan_matches_row_scan(self, monkeypatch):
        # The stencil scan must match the dense-row scan it falls back to on
        # every case, and the pair-by-pair reference, which is quadratic in
        # the volume, on the boxes of at most 200 points (452 of the 557).
        rng = random.Random(12)
        cases = []
        for trial in range(150):
            n = trial % 5 + 1
            g = Grid(tuple(rng.randint(1, 9 if n < 4 else 5) for _ in range(n)))
            for d in {1, 2, rng.randint(1, g.diameter() + 2), g.diameter() + 2}:
                cases.append((g, d, greedy_code(g, d)))
        monkeypatch.setattr(codes, "_later_half_ball", lambda *a: None)
        for g, d, code in cases:
            assert code == greedy_code(g, d), (g.dims, d)
            if g.volume() <= 200:
                assert code.codewords == lexicographic_greedy(g, d), (g.dims, d)
            assert code == GridCode(g, code.codewords)
            assert code.size() == 1 or min_distance(g, code.codewords) >= d
            assert covering_radius(code) <= d - 1

    def test_row_scan_past_stencil(self, monkeypatch):
        # From radius 3 on, the half ball clipped to |o_i| <= 2 holds more
        # than the box's 9 offsets.
        g = Grid((3, 3))
        assert len(_later_half_ball(np, g.dims, 2)[0]) == 6
        assert _later_half_ball(np, g.dims, 3) is None
        assert greedy_code(g, 5).codewords == ((0, 0),)
        assert greedy_code(g, 4).codewords == ((0, 0), (2, 2))
        # On a long line the stencil's face masks would outgrow the row scan;
        # on the square the stencil would hold more offsets than the box.
        line, square = Grid((2000,)), Grid((300, 300))
        assert _later_half_ball(np, line.dims, 149) is None
        assert _later_half_ball(np, square.dims, 399) is None
        cases = [(g, d) for d in range(1, 6)] + [(line, 150), (square, 400)]
        scanned = [greedy_code(grid, d) for grid, d in cases]
        monkeypatch.setattr(codes, "_later_half_ball", lambda *a: None)
        for (grid, d), code in zip(cases, scanned):
            assert code == greedy_code(grid, d), (grid.dims, d)
            assert code.codewords == lexicographic_greedy(grid, d), (grid.dims, d)

    def test_row_scan_memory(self):
        # The row scan holds a few dense rows of the box, not a list of its
        # points.  The warm-up keeps numpy's lazy imports out of the trace.
        greedy_code(Grid((3, 3)), 4)
        g = Grid((300, 300))
        tracemalloc.start()
        try:
            greedy_code(g, 400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * g.volume()

    def test_budget(self):
        with pytest.raises(BudgetError, match="budget is 100"):
            greedy_code(Grid((40, 40)), 3, budget=100)

    def test_larger_boxes_on_both_paths(self, kernel_path):
        # Two boxes whose words the pure scan once checked pair by pair, too
        # slowly to run without numpy, and a long line at a large distance.
        for dims, d in [((100, 50), 3), ((2,) * 12, 3), ((1000,), 100)]:
            g = Grid(dims)
            assert greedy_code(g, d).codewords == dense_greedy(g, d), (dims, d)


class TestBothPaths:
    """Each distance kernel of ``codes`` gives the same answers on its
    pure-Python path and its numpy path."""

    def test_greedy_covering_and_analysis(self, kernel_path):
        rng = random.Random(67)
        for trial in range(120):
            n = trial % 5 + 1
            g = Grid(tuple(rng.randint(1, 7 if n < 4 else 3) for _ in range(n)))
            pts = list(g.points())
            one_word = [rng.choice(pts)]
            several = rng.sample(pts, min(len(pts), rng.randint(2, 6)))
            for d in sorted({1, 2, rng.randint(1, g.diameter() + 2), g.diameter() + 2}):
                code = greedy_code(g, d)
                assert code.codewords == lexicographic_greedy(g, d), (g.dims, d)
                assert covering_radius(code) == bfs_covering_radius(code), (g.dims, d)
            for sample in (one_word, several):
                code = GridCode(g, tuple(sample))
                result = analyze(code)
                assert result.covering_radius == bfs_covering_radius(code), g.dims
                for metric in METRICS if code.size() > 1 else ():
                    dist = metric_function(metric)
                    dists = [dist(g, a, b) for a, b in itertools.combinations(sample, 2)]
                    assert result.min_distance[metric] == min(dists)
                    assert result.max_distance[metric] == max(dists)
        # Half the points of the 16-cube, so every other point is one flip
        # away: 32,768 words, whose start set the pure path builds in one pass.
        g = Grid((2,) * 16)
        parity = GridCode(g, tuple(p for p in g.points() if sum(p) % 2 == 0))
        assert covering_radius(parity) == 1


class TestExactSearch:
    def test_worked_example(self):
        g = Grid((5, 2))
        assert exact_max_code(g, 5)[0] == 2
        assert exact_max_code(g, 3)[0] == 3

    def test_trivial_distances(self):
        g = Grid((3, 3))
        assert exact_max_code(g, 1)[0] == 9
        assert exact_max_code(g, 4)[0] == 2
        assert exact_max_code(g, 5)[0] == 1

    def test_lee_and_hamming_past_the_eccentricity(self):
        # The balls stop growing at the eccentricity, so a huge distance
        # neither loops per unit of d nor caches a level per unit of d.
        g = Grid((3, 3))
        for metric in ("lee", "hamming"):
            size, code = exact_max_code(g, 10**18, metric=metric)
            assert size == 1 and code.size() == 1
            assert len(codes._balls(g.dims, metric)[2]) <= g.diameter() + 1

    def test_distance_two_is_parity_class(self):
        for dims in [(3, 3), (4, 5), (2, 2, 3)]:
            g = Grid(dims)
            size, code = exact_max_code(g, 2)
            assert size == (g.volume() + 1) // 2
            assert min_distance(g, code.codewords) >= 2

    def test_one_dimensional(self):
        size, code = exact_max_code(Grid((9,)), 4)
        assert size == 3
        assert code.codewords == ((0,), (4,), (8,))

    def test_matches_brute_force(self):
        rng = random.Random(2)
        for _ in range(8):
            dims = tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 2)))
            if dims == (4, 4):
                dims = (3, 4)
            g = Grid(dims)
            for d in range(2, g.diameter() + 1):
                size, code = exact_max_code(g, d, time_budget=10)
                assert min_distance(g, code.codewords) >= d
                assert size == brute_force_max_code(g, d), (dims, d)

    def test_witness_is_valid(self):
        g = Grid((4, 4))
        size, code = exact_max_code(g, 3, time_budget=10)
        assert code.size() == size
        assert min_distance(g, code.codewords) >= 3

    def test_other_metrics(self):
        g = Grid((3, 3))
        size, code = exact_max_code(g, 2, metric="hamming", time_budget=10)
        assert size == 3  # a diagonal: pairwise Hamming distance 2
        assert min_distance(g, code.codewords, "hamming") >= 2
        # The Singleton bound 2 * 7 closes the search in a few hundred nodes;
        # the clique cover alone stops at 14 <= A <= 28 after 10^5.
        size, code = exact_max_code(Grid((2, 9, 7)), 2, metric="hamming", node_budget=1000)
        assert size == 14
        assert min_distance(code.grid, code.codewords, "hamming") >= 2

    def test_volume_cap(self):
        with pytest.raises(BudgetError):
            exact_max_code(Grid((100, 100)), 3)

    def test_closed_forms_pass_the_volume_cap(self):
        # Only the conflict graph is capped at DEFAULT_EXACT_VOLUME; the
        # closed forms charge the points they visit to DEFAULT_BUDGET.
        square = Grid((100, 100))
        size, code = exact_max_code(square, 2)
        assert size == 5000
        assert code.codewords == tuple(p for p in square.points() if sum(p) % 2 == 0)
        size, code = exact_max_code(Grid((30, 30)), 1)
        assert size == 900 and code.codewords == tuple(Grid((30, 30)).points())
        size, code = exact_max_code(Grid((1000,)), 7)
        assert size == 143 and code.codewords == tuple((k,) for k in range(0, 1000, 7))
        assert exact_max_code(Grid((30, 30)), 60) == (1, GridCode(Grid((30, 30)), ((0, 0),)))
        assert exact_max_code(Grid((10**8,)), 10**6)[0] == 100
        for d in (1, 3):
            with pytest.raises(BudgetError, match="exact closed form visits"):
                exact_max_code(Grid((10**8,)), d)

    def test_time_budget(self):
        with pytest.raises(BudgetError):
            exact_max_code(Grid((6, 8, 8)), 3, time_budget=0.05)

    def test_node_budget(self):
        g = Grid((4, 4, 8, 4))
        with pytest.raises(BudgetError) as stop:
            exact_max_code(g, 3, node_budget=2000)
        message = str(stop.value)
        assert "2000" in message and "<= A <=" in message
        lower, upper = (int(x) for x in message.rsplit(": ", 1)[1].split(" <= A <= "))
        assert (lower, upper) == (stop.value.lower, stop.value.upper)
        assert lower <= upper <= bound_report(g, 3).hamming_upper
        # A stopped search has only seen a suffix of the points, so the lower
        # bound also takes the greedy incumbent of the graph it searched,
        # whose axes are sorted longest first.
        pts, adj = _conflict_graph(Grid((8, 4, 4, 4)), 3, "manhattan")
        assert lower >= len(_best_incumbent(pts, adj, 3))
        # A budget of 0 stops at once; a negative one is an error, not an
        # unlimited search.
        with pytest.raises(BudgetError, match="after 0 nodes"):
            exact_max_code(Grid((6, 6, 4)), 3, node_budget=0)
        with pytest.raises(DomainError, match="node budget -1"):
            exact_max_code(Grid((6, 6, 4)), 3, node_budget=-1)
        # So is a negative or NaN clock, which would never stop the search,
        # also where a closed form answers.
        for seconds in (-1, float("nan")):
            for d in (3, 1):
                with pytest.raises(DomainError, match=f"time budget {seconds} "):
                    exact_max_code(Grid((4, 4, 8, 4)), d, time_budget=seconds)

    def test_twin_boxes_stop_alike(self, monkeypatch):
        # A budget stop depends only on the canonical box: the caller's sides
        # of 1 and axis order change neither its message nor its bounds.
        monkeypatch.setattr(codes, "_solved", {})

        def outcome(dims, d, metric):
            try:
                return exact_max_code(Grid(dims), d, metric=metric, node_budget=2000)[0]
            except BudgetError as stop:
                return str(stop), stop.lower, stop.upper

        twins = [((8, 1, 5, 9), (9, 8, 5), 6, (6, 11)), ((9, 6, 1, 7), (9, 7, 6), 5, (9, 26))]
        for first, second, d, lee in twins:
            for metric in METRICS:
                assert outcome(first, d, metric) == outcome(second, d, metric), (first, metric)
            assert outcome(first, d, "lee")[1:] == lee

    def test_lee_stop_is_capped_by_the_hamming_bound(self):
        # Lee distances never exceed Manhattan ones, so the Hamming bound
        # caps Lee codes too; the root clique cover alone gives 116 here.
        g = Grid((8, 8, 6))
        with pytest.raises(BudgetError) as stop:
            exact_max_code(g, 3, metric="lee", node_budget=2000)
        assert stop.value.lower <= stop.value.upper <= hamming_bound(g, 3) == 96

    def test_slowest_family_instances(self):
        # Sizes confirmed by a HiGHS MILP.
        cases = [
            ((9, 9), 3, 17), ((1, 6, 4, 4), 3, 16), ((4, 6, 4), 3, 16),
            ((4, 3, 7), 3, 14), ((9, 7, 3), 3, 30), ((4, 3, 9, 3), 4, 27),
        ]
        for dims, d, size in cases:
            g = Grid(dims)
            found, code = exact_max_code(g, d, node_budget=10**6)
            assert found == size == code.size(), dims
            assert min_distance(g, code.codewords) >= d

    def test_witness_in_callers_axis_order(self):
        # The search runs with the axes sorted longest first and maps its
        # witness back to the caller's axes.
        for dims in [(3, 7, 2), (2, 9, 7), (1, 3, 2), (2, 4, 1)]:
            g = Grid(dims)
            for metric in ("manhattan", "lee", "hamming"):
                for d in range(2, 5):
                    size, code = exact_max_code(g, d, metric=metric, node_budget=10**5)
                    assert code.grid.dims == dims and code.size() == size
                    assert code == GridCode(g, code.codewords)
                    if size > 1:
                        assert min_distance(g, code.codewords, metric) >= d
                    if g.volume() <= 8:
                        assert size == brute_force_max_code(g, d, metric), (dims, metric, d)
                    elif g.volume() <= 42:
                        _, adj = _conflict_graph(g, d, metric)
                        assert size == len(exhaustive_independent_set(adj)), (dims, metric, d)
                    elif metric == "manhattan":
                        report = bound_report(g, d)
                        assert report.gv_lower_strong <= size <= report.hamming_upper

    def test_budget_stop_that_meets_its_bound_is_exact(self, monkeypatch):
        # The Singleton bound 2 * 7 = 14 holds and the greedy incumbent meets
        # it, so a stop after 100 nodes (of the 358 the search takes) proves
        # 14 <= A <= 14.
        monkeypatch.setattr(codes, "_solved", {})
        g = Grid((2, 9, 7))
        size, code = exact_max_code(g, 2, metric="hamming", node_budget=100)
        assert size == code.size() == 14
        assert code == GridCode(g, code.codewords)
        assert min_distance(g, code.codewords, "hamming") >= 2
        # Only completed searches are kept.
        assert not codes._solved

    def test_canonical_memo_serves_only_sufficient_budgets(self, monkeypatch):
        # (1, 3, 6, 1, 4) and (6, 4, 3) are one canonical box.  Its search
        # takes N nodes; a twin must stop at N - 1 nodes exactly as with an
        # empty memo, and return the same witness at N nodes.
        monkeypatch.setattr(codes, "_solved", {})
        canon, twin, d = Grid((6, 4, 3)), Grid((1, 3, 6, 1, 4)), 3
        exact_max_code(canon, d)
        (key, (words, nodes)), = codes._solved.items()
        assert key == ((6, 4, 3), 3, "manhattan") and len(words) == 12

        def stop(budget):
            with pytest.raises(BudgetError) as error:
                exact_max_code(twin, d, node_budget=budget)
            return str(error.value), error.value.lower, error.value.upper

        codes._solved.clear()
        fresh_stop = stop(nodes - 1)
        fresh = exact_max_code(twin, d, node_budget=nodes)
        assert f"after {nodes - 1} nodes: 12 <= A <= 13" in fresh_stop[0]
        assert fresh[0] == 12 and fresh[1].grid == twin

        codes._solved.clear()
        exact_max_code(canon, d)
        searches = []
        search = codes.max_independent_set
        monkeypatch.setattr(
            codes, "max_independent_set",
            lambda *a, **k: searches.append(a) or search(*a, **k),
        )
        assert stop(nodes - 1) == fresh_stop
        assert len(searches) == 1
        assert exact_max_code(twin, d, node_budget=nodes) == fresh
        assert exact_max_code(twin, d) == fresh
        assert len(searches) == 1

    def test_memo_drops_its_oldest_search(self, monkeypatch):
        # At the limit a new search drops the oldest one kept, which a later
        # call searches again, charging its nodes again.
        monkeypatch.setattr(codes, "_solved", {})
        monkeypatch.setattr(codes, "SOLVED_LIMIT", 2)
        first, *rest = [Grid((3, 3)), Grid((4, 3)), Grid((4, 4))]
        answer = exact_max_code(first, 3)
        (key, (_, nodes)), = codes._solved.items()
        for g in rest:
            exact_max_code(g, 3)
        assert list(codes._solved) == [((4, 3), 3, "manhattan"), ((4, 4), 3, "manhattan")]
        searched = []
        search = codes.max_independent_set

        def counted(*args, **kwargs):
            result = search(*args, **kwargs)
            searched.append(kwargs["stats"]["nodes"])
            return result

        monkeypatch.setattr(codes, "max_independent_set", counted)
        assert exact_max_code(first, 3) == answer
        assert searched == [nodes] and nodes > 0
        assert list(codes._solved) == [((4, 4), 3, "manhattan"), key]

    def test_criterion_5_family_at_fixed_node_budget(self):
        # The criterion-5 family (volume <= 512) at a fixed node budget, so
        # the stops do not depend on machine load.  Their count and their
        # total gap, upper - lower summed over the stops, may only go down.
        frontier = load_tool("frontier")
        stops = frontier.open_at(frontier.instances(), "manhattan", node_budget=20_000)
        assert len(stops) <= 48 and total_gap(stops) <= 935

    def test_lee_and_hamming_family_at_fixed_node_budget(self):
        # The same instances under the torus and the Hamming graph, whose
        # balls grow through wrap-around pairs and whole lines; the Lee
        # count and gap may only go down, and Hamming has no stop.
        frontier = load_tool("frontier")
        family = frontier.instances()
        stops = frontier.open_at(family, "lee", node_budget=20_000)
        assert len(stops) <= 82 and total_gap(stops) <= 697
        assert frontier.open_at(family, "hamming", node_budget=20_000) == []

    def test_search_tree_is_pinned(self, monkeypatch):
        # Node totals of the searches behind every family grid of volume
        # <= 96, each d, each metric.  Any change to the cuts or to the
        # branching order moves them.
        monkeypatch.setattr(codes, "_solved", {})
        for dims in sorted(set(random_grid_family())):
            if math.prod(dims) > 96:
                continue
            grid = Grid(dims)
            for metric in METRICS:
                for d in range(1, grid.diameter() + 2):
                    exact_max_code(grid, d, metric=metric)
        totals = {metric: [0, 0] for metric in METRICS}
        for (_, _, metric), (_, nodes) in codes._solved.items():
            totals[metric][0] += 1
            totals[metric][1] += nodes
        assert totals == {
            "manhattan": [298, 28_989], "lee": [416, 660_284], "hamming": [416, 2_889],
        }


def total_gap(stops):
    """Sum of upper - lower over ``tools/frontier.py`` stops."""
    return sum(upper - lower for *_, lower, upper in stops)


def exhaustive_independent_set(adj):
    """Reference maximum independent set: plain two-way branching, no bounds."""

    @functools.cache
    def best(cand):
        if not cand:
            return frozenset()
        v = cand.bit_length() - 1
        skip = best(cand & ~(1 << v))
        take = best(cand & ~adj[v] & ~(1 << v)) | {v}
        return take if len(take) > len(skip) else skip

    return best((1 << len(adj)) - 1)


def random_graph(rng, n, density):
    adj = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < density:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


class TestConflictGraph:
    def test_rows_match_pair_distances(self):
        # Sides of 1 and 2 included: on a side of 2 the Lee wrap meets itself.
        oracle = {"manhattan": manhattan_distance, "lee": lee_distance,
                  "hamming": hamming_distance}
        rng = random.Random(14)
        boxes = [(1,), (2,), (7,), (2, 2, 2), (1, 5, 2), (3, 1), (4, 4), (5, 2, 3, 2)]
        while len(boxes) < 30:
            dims = tuple(rng.choice((1, 2, 2, 3, 4, 5, 6)) for _ in range(rng.randint(1, 4)))
            if math.prod(dims) <= 60:
                boxes.append(dims)
        for dims in boxes:
            g = Grid(dims)
            pts = list(g.points())
            for metric, dist in oracle.items():
                table = [[dist(g, p, q) for q in pts] for p in pts]
                for d in {4, 1, 2, rng.randint(1, g.diameter() + 2), g.diameter() + 2}:
                    got_pts, adj = _conflict_graph(g, d, metric)
                    assert got_pts == pts
                    want = [
                        sum(1 << u for u, x in enumerate(row) if 0 < x < d) for row in table
                    ]
                    assert adj == want, (dims, metric, d)

    def test_unknown_metric(self):
        # Checked before any closed form: distance 1, all sides 1, distance
        # 2, one dimension and distances beyond the diameter.
        for dims, d in [((3, 3), 3), ((3, 3), 1), ((1, 1), 3), ((3, 3), 2),
                        ((9,), 4), ((3, 3), 5)]:
            with pytest.raises(DomainError, match="unknown metric"):
                exact_max_code(Grid(dims), d, metric="euclid")


class TestIndependentSetSolver:
    def test_against_exhaustive(self):
        rng = random.Random(9)
        for trial in range(120):
            n = rng.randint(1, 16)
            adj = random_graph(rng, n, 0.1 + 0.6 * trial / 119)
            optimum = exhaustive_independent_set(adj)
            found = max_independent_set(adj)
            assert found == sorted(found)
            assert all(0 <= v < n for v in found)
            assert not any(adj[u] >> v & 1 for u in found for v in found)
            assert len(found) == len(optimum), adj

    def test_node_budget(self):
        rng = random.Random(4)
        adj = random_graph(rng, 40, 0.2)
        with pytest.raises(BudgetError) as first:
            max_independent_set(adj, node_budget=5)
        with pytest.raises(BudgetError) as second:
            max_independent_set(adj, node_budget=5)
        assert str(first.value) == str(second.value)
        assert "node budget after 5 nodes" in str(first.value)
        alpha = len(exhaustive_independent_set(adj))
        assert first.value.lower <= alpha <= first.value.upper
        assert len(max_independent_set(adj, node_budget=10**6)) == alpha
        # Every stop brackets the optimum, and its upper bound never exceeds
        # the clique cover of the whole graph or the caller's bound.
        for trial in range(60):
            n = rng.randint(8, 30)
            adj = random_graph(rng, n, 0.1 + 0.5 * trial / 59)
            alpha = len(exhaustive_independent_set(adj))
            root = len(_clique_cover(adj, (1 << n) - 1))
            for budget in (1, 3, 10, 40):
                for upper in (None, alpha + 1):
                    try:
                        found = max_independent_set(adj, upper=upper, node_budget=budget)
                    except BudgetError as stop:
                        assert stop.lower <= alpha <= stop.upper <= root
                        assert upper is None or stop.upper <= upper
                    else:
                        assert len(found) == alpha

    def test_clique_partition_covers(self):
        g = Grid((3, 4))
        _, adj = _conflict_graph(g, 3, "manhattan")
        rng = random.Random(3)
        full = (1 << len(adj)) - 1
        for cand in [full, 0] + [rng.getrandbits(len(adj)) for _ in range(20)]:
            union = 0
            for mask in _clique_cover(adj, cand):
                assert mask and union & mask == 0
                union |= mask
                members = [v for v in range(len(adj)) if mask >> v & 1]
                for u, v in itertools.combinations(members, 2):
                    assert adj[u] >> v & 1
            assert union == cand

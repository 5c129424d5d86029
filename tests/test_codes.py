import dataclasses
import itertools
import json
import random

import pytest

from gridcodes import (
    BudgetError,
    CyclicCodeSpec,
    DomainError,
    Grid,
    GridCode,
    analyze,
    bound_chain,
    code_min_distance,
    covering_property,
    covering_radius,
    exact_max_code,
    greedy_code,
    manhattan_distance,
    pairwise_distance_extremes,
)
from gridcodes.codes import _clique_partition, _conflict_graph, max_independent_set
from gridcodes.grid import CHUNK


def per_point_covering_radius(code):
    """Reference covering radius: the largest nearest-codeword distance, point by point."""
    return max(
        min(manhattan_distance(code.grid, p, c) for c in code.codewords)
        for p in code.grid.points()
    )


def brute_force_max_code(grid, distance):
    """Reference exponential search, usable only on tiny grids."""
    pts = list(grid.points())
    best = 1
    for size in range(len(pts), 1, -1):
        for combo in itertools.combinations(pts, size):
            if code_min_distance(grid, combo) >= distance:
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
        assert covering_property(code, 2)
        assert not covering_property(code, 1)
        # Random codes on grids that span several kernel blocks.
        rng = random.Random(11)
        for dims in ((30, 20), (9, 8, 10), (4, 5, 6, 7)):
            g = Grid(dims)
            assert g.volume() > CHUNK
            pts = list(g.points())
            for size in (1, 5, 40):
                code = GridCode(g, tuple(rng.sample(pts, size)))
                assert covering_radius(code) == per_point_covering_radius(code)

    def test_covering_budget(self):
        code = GridCode(Grid((40, 40)), ((0, 0),))
        with pytest.raises(BudgetError):
            covering_radius(code, budget=100)

    def test_requested_radii(self):
        code = GridCode(Grid((5, 2)), ((0, 0), (4, 1)))
        result = analyze(code, requested_covering_radii=(1, 2, 3))
        assert result.covering_property == {1: False, 2: True, 3: True}


def test_distance_outputs_are_python_ints():
    # json.dumps rejects numpy integers, so nothing numpy may leave the package.
    g = Grid((9, 8, 10))
    result = analyze(greedy_code(g, 4))
    values = [result.covering_radius, result.packing_radius]
    values += [*result.min_distance.values(), *result.max_distance.values()]
    assert len(values) == 8
    for metric in ("manhattan", "lee", "hamming"):
        values += pairwise_distance_extremes(g, [(0, 0, 0), (3, 7, 9), (8, 1, 2)], metric)
    chain = bound_chain(CyclicCodeSpec((8, 12, 9), (2, 3, 4)))
    values += [getattr(chain, f.name) for f in dataclasses.fields(chain) if f.name != "spec"]
    assert all(type(v) is int for v in values)


class TestGreedy:
    def test_maximality(self):
        # Every remaining point is within d-1 of the greedy code.
        g = Grid((6, 5))
        code = greedy_code(g, 4)
        assert code_min_distance(g, code.codewords) >= 4
        assert covering_radius(code) <= 3

    def test_custom_order(self):
        g = Grid((4,))
        code = greedy_code(g, 2, order=[(3,), (2,), (1,), (0,)])
        assert code.codewords == ((1,), (3,))
        # A repeated point is at distance 0 < d from its first copy.
        code = greedy_code(g, 1, order=[(2,), (0,), (2,)])
        assert code.codewords == ((0,), (2,))
        # Coordinates past int64 stay exact.
        huge = Grid((2**64,))
        code = greedy_code(huge, 2**63, order=[(2**63,), (1,), (0,)])
        assert code.codewords == ((0,), (2**63,))


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

    def test_distance_two_is_parity_class(self):
        for dims in [(3, 3), (4, 5), (2, 2, 3)]:
            g = Grid(dims)
            size, code = exact_max_code(g, 2)
            assert size == (g.volume() + 1) // 2
            assert code_min_distance(g, code.codewords) >= 2

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
                assert code_min_distance(g, code.codewords) >= d
                assert size == brute_force_max_code(g, d), (dims, d)

    def test_witness_is_valid(self):
        g = Grid((4, 4))
        size, code = exact_max_code(g, 3, time_budget=10)
        assert code.size() == size
        assert code_min_distance(g, code.codewords) >= 3

    def test_other_metrics(self):
        g = Grid((3, 3))
        size, code = exact_max_code(g, 2, metric="hamming", time_budget=10)
        assert size == 3  # a diagonal: pairwise Hamming distance 2
        assert code_min_distance(g, code.codewords, "hamming") >= 2

    def test_volume_cap(self):
        with pytest.raises(BudgetError):
            exact_max_code(Grid((100, 100)), 3)

    def test_time_budget(self):
        with pytest.raises(BudgetError):
            exact_max_code(Grid((6, 8, 8)), 3, time_budget=0.05)


class TestIndependentSetSolver:
    def test_against_exhaustive(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(1, 9)
            adj = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.4:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
            best = max_independent_set(adj)
            assert all(
                not adj[u] >> v & 1 for u in best for v in best
            )
            alpha = 0
            for mask in range(1 << n):
                if any(
                    mask >> i & 1 and adj[i] & mask for i in range(n)
                ):
                    continue
                alpha = max(alpha, bin(mask).count("1"))
            assert len(best) == alpha

    def test_clique_partition_covers(self):
        g = Grid((3, 4))
        _, adj = _conflict_graph(g, 3, "manhattan")
        masks = _clique_partition(adj)
        union = 0
        for mask in masks:
            assert union & mask == 0
            union |= mask
        assert union == (1 << len(adj)) - 1

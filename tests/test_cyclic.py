import itertools
import math
import random

import pytest

from gridcodes import (
    BudgetError,
    CyclicCodeSpec,
    DomainError,
    Grid,
    GridCodesError,
    bound_chain,
    codeword,
    codeword_distance,
    codewords,
    cyclic,
    derive,
    manhattan_distance,
    min_hamming_distance,
)


def vanishing_sets_by_subsets(derived):
    """Reference: the empty set, then every support subset of lcm below the
    order that no further support index divides, by size and then lexically."""
    hat = derived.hat_sides
    out = [frozenset()]
    for k in range(1, len(derived.support) + 1):
        for combo in itertools.combinations(derived.support, k):
            sub_order = math.lcm(*(hat[i] for i in combo))
            if sub_order < derived.order and all(
                sub_order % hat[j] != 0 for j in derived.support if j not in combo
            ):
                out.append(frozenset(combo))
    return tuple(out)


class TestSpecValidation:
    def test_rejects_trivial_generator(self):
        with pytest.raises(DomainError):
            CyclicCodeSpec((4, 4), (0, 0))

    def test_rejects_out_of_range_exponent(self):
        with pytest.raises(DomainError):
            CyclicCodeSpec((4,), (4,))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DomainError):
            CyclicCodeSpec((4, 4), (1,))

    def test_rejects_tiny_orders(self):
        with pytest.raises(DomainError):
            CyclicCodeSpec((1, 4), (0, 1))


class TestDerivation:
    def test_worked_example(self):
        spec = CyclicCodeSpec((8, 8, 8, 8), (2, 2, 4, 4))
        derived = derive(spec)
        assert derived.support == (0, 1, 2, 3)
        assert derived.gcds == {0: 2, 1: 2, 2: 4, 3: 4}
        assert derived.min_gcd == 2
        assert derived.order == 4
        assert derived.hat_sides == {0: 4, 1: 4, 2: 2, 3: 2}
        assert set(derived.vanishing_sets) == {frozenset(), frozenset({2, 3})}

    def test_vanishing_set_limit(self, monkeypatch):
        # Pairwise coprime sides make every proper support subset vanish.
        primes = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
        assert len(primes) == 25
        with pytest.raises(BudgetError):
            derive(CyclicCodeSpec(tuple(primes), (1,) * 25))
        monkeypatch.setattr(cyclic, "MAX_VANISHING_SETS", 8)
        derive.cache_clear()
        assert len(derive(CyclicCodeSpec((2, 3, 5), (1, 1, 1))).vanishing_sets) == 7
        with pytest.raises(BudgetError):
            derive(CyclicCodeSpec((2, 3, 5, 7), (1, 1, 1, 1)))

    def test_codewords(self):
        spec = CyclicCodeSpec((8, 8, 8, 8), (2, 2, 4, 4))
        assert codewords(spec) == [
            (0, 0, 0, 0),
            (2, 2, 4, 4),
            (4, 4, 0, 0),
            (6, 6, 4, 4),
        ]

    def test_order_is_subgroup_size(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(1, 3)
            orders = tuple(rng.randint(2, 12) for _ in range(n))
            exps = tuple(rng.randrange(m) for m in orders)
            if all(e == 0 for e in exps):
                continue
            spec = CyclicCodeSpec(orders, exps)
            derived = derive(spec)
            seen = set()
            k, word = 0, codeword(spec, 0)
            while word not in seen:
                seen.add(word)
                k += 1
                word = codeword(spec, k)
            assert derived.order == len(seen)


class TestHammingDistances:
    def test_worked_example(self):
        spec = CyclicCodeSpec((8, 8, 8, 8), (2, 2, 4, 4))
        assert min_hamming_distance(spec, verify=True) == (2, 4)

    def test_random_specs_against_support_scan(self):
        rng = random.Random(29)
        checked = 0
        while checked < 80:
            n = rng.randint(1, 10)
            # Sides up to 9 keep the order, and so the power scan, at most 2520.
            orders = tuple(rng.randint(2, 15 if n <= 4 else 9) for _ in range(n))
            exps = tuple(rng.randrange(m) for m in orders)
            if all(e == 0 for e in exps):
                continue
            spec = CyclicCodeSpec(orders, exps)
            derived = derive(spec)
            assert derived.vanishing_sets == vanishing_sets_by_subsets(derived), spec
            if derived.order < 2:
                continue
            # verify=True asserts the closed form against the power scan.
            min_hamming_distance(spec, verify=True)
            checked += 1
        # Support 30: far past any subset enumeration.
        spec = CyclicCodeSpec((2, 3, 4, 6) * 7 + (2, 3), (1,) * 30)
        derived = derive(spec)
        assert len(derived.support) == 30 and derived.order == 12
        assert min_hamming_distance(spec, verify=True) == (7, 30)

    def test_verify_raises_when_scan_disagrees(self, monkeypatch):
        spec = CyclicCodeSpec((4, 6), (1, 2))
        monkeypatch.setattr(cyclic, "codeword", lambda spec, k: (0,) * spec.n)
        with pytest.raises(GridCodesError):
            min_hamming_distance(spec, verify=True)

    def test_order_two_code(self):
        spec = CyclicCodeSpec((4, 4), (2, 2))
        assert derive(spec).order == 2
        assert min_hamming_distance(spec, verify=True) == (2, 2)


class TestCodewordDistance:
    def test_worked_example(self):
        spec = CyclicCodeSpec((8, 8, 8, 8), (2, 2, 4, 4))
        derive.cache_clear()
        assert codeword_distance(spec, 0, 1) == 12
        assert codeword_distance(spec, 0, 2) == 8
        assert derive.cache_info().misses == 1

    def test_equals_exponent_vector_distance(self):
        rng = random.Random(31)
        checked = 0
        while checked < 30:
            n = rng.randint(1, 4)
            orders = tuple(rng.randint(2, 20) for _ in range(n))
            exps = tuple(rng.randrange(m) for m in orders)
            if all(e == 0 for e in exps):
                continue
            spec = CyclicCodeSpec(orders, exps)
            order = derive(spec).order
            grid = Grid(orders)
            for _ in range(10):
                k1, k2 = rng.randrange(order), rng.randrange(order)
                want = manhattan_distance(
                    grid, codeword(spec, k1), codeword(spec, k2)
                )
                assert codeword_distance(spec, k1, k2) == want
            checked += 1

    def test_rejects_out_of_range_power(self):
        spec = CyclicCodeSpec((8, 8, 8, 8), (2, 2, 4, 4))
        with pytest.raises(DomainError):
            codeword_distance(spec, 0, 4)


class TestBoundChain:
    def test_worked_example(self):
        spec = CyclicCodeSpec((8, 8, 8, 8), (2, 2, 4, 4))
        chain = bound_chain(spec)
        assert chain.order == 4
        assert chain.d_hamming == 2
        assert chain.links == (4, 8, 8, 8)
        assert chain.delta_manhattan == 20
        assert chain.delta_upper == 20

    def test_single_generator_path(self):
        # In C_9 with generator g, consecutive powers sit one step apart on
        # the cycle but further apart as exponents.
        chain = bound_chain(CyclicCodeSpec((9,), (1,)))
        assert chain.order == 9
        assert chain.d_lee == 1
        assert chain.d_manhattan == 1
        assert chain.delta_manhattan == 8

    def test_hat_metric_needs_full_scan(self):
        # Scanning only against the identity would report hat distance 4
        # here; the true minimum 2 is between the powers k=1 and k=2.
        spec = CyclicCodeSpec((8, 8), (2, 6))
        chain = bound_chain(spec)
        assert chain.hat_d_manhattan == 2
        identity_scan = min(
            codeword_distance(spec, 0, k) // chain.min_gcd
            for k in range(1, chain.order)
        )
        assert identity_scan == 4

    def test_chain_monotone_on_random_specs(self):
        rng = random.Random(41)
        checked = 0
        while checked < 25:
            n = rng.randint(1, 4)
            orders = tuple(rng.randint(2, 15) for _ in range(n))
            exps = tuple(rng.randrange(m) for m in orders)
            if all(e == 0 for e in exps):
                continue
            spec = CyclicCodeSpec(orders, exps)
            derived = derive(spec)
            if derived.order < 2 or derived.order > 400:
                continue
            chain = bound_chain(spec)
            a, b, c, d = chain.links
            assert a <= b <= c <= d <= chain.delta_upper
            # Cross-check the Manhattan extremes against the exponent grid.
            words = codewords(spec)
            grid = Grid(orders)
            dists = [
                manhattan_distance(grid, words[i], words[j])
                for i in range(len(words))
                for j in range(i + 1, len(words))
            ]
            assert chain.d_manhattan == min(dists)
            assert chain.delta_manhattan == max(dists)
            checked += 1

    def test_order_budget(self):
        spec = CyclicCodeSpec((29, 27, 25), (1, 1, 1))
        with pytest.raises(BudgetError):
            bound_chain(spec, order_budget=1000)

    def test_delta_upper_formula(self):
        spec = CyclicCodeSpec((8, 8, 8, 8), (2, 2, 4, 4))
        derived = derive(spec)
        expected = sum(
            spec.orders[i] - derived.gcds[i] for i in derived.support
        )
        assert bound_chain(spec).delta_upper == expected == 20

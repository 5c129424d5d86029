import itertools
import math
import random

import pytest

from gridcodes import (
    BudgetError,
    CyclicCodeSpec,
    DomainError,
    Grid,
    bound_chain,
    codeword,
    codeword_distance,
    codewords,
    cyclic,
    derive,
    manhattan_distance,
    min_hamming_distance,
    pairwise_distance_extremes,
)

from conftest import power_support_extremes


PRIMES = [p for p in range(2, 100) if all(p % q for q in range(2, p))]


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

    def test_integers_only(self):
        for orders, exps in [((6.7,), (2.5,)), ((6,), (2.5,)), ((6.0,), (2,)),
                             ((6,), (True,)), ((True, 6), (0, 1))]:
            with pytest.raises(DomainError):
                CyclicCodeSpec(orders, exps)


class TestDerivation:
    def test_worked_example(self):
        spec = CyclicCodeSpec((8, 8, 8, 8), (2, 2, 4, 4))
        derived = derive(spec)
        assert derived.support == (0, 1, 2, 3)
        assert derived.gcds == {0: 2, 1: 2, 2: 4, 3: 4}
        assert derived.min_gcd == 2
        assert derived.order == 4
        assert derived.hat_sides == {0: 4, 1: 4, 2: 2, 3: 2}
        assert vanishing_sets_by_subsets(derived) == (frozenset(), frozenset({2, 3}))

    def test_pairwise_coprime_sides(self):
        # Every proper support subset vanishes on some power: 2^25 and 2^17
        # vanishing sets, none of which the coprime-base formula enumerates.
        assert len(PRIMES) == 25
        for primes in (PRIMES, PRIMES[:17]):
            spec = CyclicCodeSpec(tuple(primes), (1,) * len(primes))
            assert derive(spec).order == math.prod(primes)
            assert min_hamming_distance(spec) == (1, len(primes))

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
        assert min_hamming_distance(spec) == power_support_extremes(spec) == (2, 4)

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
            if derived.order < 2:
                continue
            # The paper's form: the support less the largest vanishing set.
            size = len(derived.support)
            largest = max(map(len, vanishing_sets_by_subsets(derived)))
            assert min_hamming_distance(spec) == (size - largest, size), spec
            assert min_hamming_distance(spec) == power_support_extremes(spec), spec
            checked += 1
        # Refined orders 3 and 2 from sides past int64.
        spec = CyclicCodeSpec((3 * 2**64, 10), (2**64, 5))
        assert derive(spec).order == 6
        assert min_hamming_distance(spec) == power_support_extremes(spec) == (1, 2)
        # Support 30: far past any subset enumeration.
        spec = CyclicCodeSpec((2, 3, 4, 6) * 7 + (2, 3), (1,) * 30)
        derived = derive(spec)
        assert len(derived.support) == 30 and derived.order == 12
        assert min_hamming_distance(spec) == power_support_extremes(spec) == (7, 30)

    def test_closed_form_past_any_scan(self):
        # Order 2^40: the closed form needs no pass over the powers.
        spec = CyclicCodeSpec((2**40,), (1,))
        assert min_hamming_distance(spec) == (1, 1)

    def test_order_two_code(self):
        spec = CyclicCodeSpec((4, 4), (2, 2))
        assert derive(spec).order == 2
        assert min_hamming_distance(spec) == power_support_extremes(spec) == (2, 2)


class TestCodewordDistance:
    def test_worked_example(self):
        spec = CyclicCodeSpec((8, 8, 8, 8), (2, 2, 4, 4))
        assert codeword_distance(spec, 0, 1) == 12
        assert codeword_distance(spec, 0, 2) == 8
        # The refined orders of 25 primes derive without enumerating subsets.
        spec25 = CyclicCodeSpec(tuple(PRIMES), (1,) * 25)
        assert codeword_distance(spec25, 0, 1) == 25

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
        # Scanning the identity alone would report hat distance 4 here;
        # the true minimum 2 is between the powers k=1 and k=2.
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


def brute_manhattan(spec):
    """(d_manhattan, delta_manhattan, hat_d_manhattan, d_lee, hat_d_lee) over
    all pairs of powers."""
    derived = derive(spec)
    words = codewords(spec)
    hats = [cyclic.hat_coordinates(derived, k) for k in range(derived.order)]
    hat_sides = [derived.hat_sides[i] for i in derived.support]

    def dist(a, b):
        return sum(abs(x - y) for x, y in zip(a, b))

    def lee(a, b, sides):
        return sum(min(abs(x - y), m - abs(x - y)) for x, y, m in zip(a, b, sides))

    ambient = [dist(a, b) for a, b in itertools.combinations(words, 2)]
    hat = min(dist(a, b) for a, b in itertools.combinations(hats, 2))
    d_lee = min(lee(a, b, spec.orders) for a, b in itertools.combinations(words, 2))
    hat_d_lee = min(lee(a, b, hat_sides) for a, b in itertools.combinations(hats, 2))
    return min(ambient), max(ambient), hat, d_lee, hat_d_lee


def chain_manhattan(chain):
    return (chain.d_manhattan, chain.delta_manhattan, chain.hat_d_manhattan,
            chain.d_lee, chain.hat_d_lee)


class TestDifferenceScan:
    """The Manhattan extremes come from scanning power differences in
    Lee-bound order; every pair of powers is the reference."""

    def test_random_specs_against_all_pairs(self):
        rng = random.Random(53)
        even = checked = 0
        while checked < 150:
            n = rng.randint(1, 4)
            orders = tuple(rng.randint(2, 16) for _ in range(n))
            exps = tuple(rng.randrange(m) for m in orders)
            if all(e == 0 for e in exps):
                continue
            spec = CyclicCodeSpec(orders, exps)
            order = derive(spec).order
            if not 2 <= order <= 300:
                continue
            assert chain_manhattan(bound_chain(spec)) == brute_manhattan(spec), spec
            even += order % 2 == 0
            checked += 1
        assert even >= 50

    def test_both_paths_against_all_pairs(self, kernel_path):
        # Exponents of 0 leave axes off the support, as sides of 1 do.
        rng = random.Random(71)
        specs = [CyclicCodeSpec((3 * 2**64, 5), (2**64, 1))]
        while len(specs) < 80:
            n = len(specs) % 5 + 1
            orders = tuple(rng.randint(2, 12) for _ in range(n))
            exps = tuple(rng.randrange(m) if rng.random() < 0.7 else 0 for m in orders)
            if any(exps) and derive(CyclicCodeSpec(orders, exps)).order <= 200:
                specs.append(CyclicCodeSpec(orders, exps))
        for spec in specs:
            chain = bound_chain(spec)
            assert chain_manhattan(chain) == brute_manhattan(spec), spec
            hamming = (chain.d_hamming, chain.delta_hamming)
            assert hamming == power_support_extremes(spec), spec

    def test_one_component(self):
        for m in range(2, 41):
            for e in range(1, m):
                spec = CyclicCodeSpec((m,), (e,))
                assert chain_manhattan(bound_chain(spec)) == brute_manhattan(spec)

    def test_large_supports(self):
        rng = random.Random(59)
        for support in (16, 17, 18) * 3:
            orders = tuple(rng.choice((2, 3, 4, 6)) for _ in range(support))
            spec = CyclicCodeSpec(orders, tuple(rng.randrange(1, m) for m in orders))
            assert chain_manhattan(bound_chain(spec)) == brute_manhattan(spec), spec

    def test_half_order_difference(self):
        # The order is 4; only the powers two apart, the difference order/2,
        # are at the minimum distance 2.
        spec = CyclicCodeSpec((4, 4), (1, 2))
        chain = bound_chain(spec)
        assert chain.order == 4
        assert chain_manhattan(chain) == brute_manhattan(spec) == (2, 5, 2, 2, 2)
        assert min(
            codeword_distance(spec, k, (k + 1) % 4) for k in range(4)
        ) > chain.d_manhattan

    def test_order_above_1000(self):
        spec = CyclicCodeSpec((58, 37, 4), (2, 1, 2))
        derived = derive(spec)
        assert derived.order == 2146
        chain = bound_chain(spec)
        words = codewords(spec)
        hat_sides = tuple(derived.hat_sides[i] for i in derived.support)
        hats = [cyclic.hat_coordinates(derived, k) for k in range(derived.order)]
        ambient = pairwise_distance_extremes(Grid(spec.orders), words)
        refined = pairwise_distance_extremes(Grid(hat_sides), hats)
        assert (chain.d_manhattan, chain.delta_manhattan) == ambient["manhattan"]
        assert chain.hat_d_manhattan == refined["manhattan"][0]
        assert chain.d_lee == ambient["lee"][0]
        assert chain.hat_d_lee == refined["lee"][0]

    def test_sides_past_int64(self):
        spec = CyclicCodeSpec((3 * 2**64, 5), (2**64, 1))
        chain = bound_chain(spec)
        assert chain.order == 15
        assert chain_manhattan(chain) == brute_manhattan(spec)
        assert chain.delta_manhattan > 2**64

    def test_maximum_needs_several_differences(self):
        # The difference of largest upper bound U is not where the maximum
        # lies, so the scan must go on past it.
        spec = CyclicCodeSpec((4, 6), (1, 5))
        chain = bound_chain(spec)
        assert chain_manhattan(chain) == brute_manhattan(spec)

        def upper(j):
            word = codeword(spec, j)
            return sum(m - min(s, m - s) for s, m in zip(word, spec.orders) if s)

        first = max(range(1, chain.order // 2 + 1), key=upper)
        assert max(
            codeword_distance(spec, k, (k + first) % chain.order)
            for k in range(chain.order)
        ) < chain.delta_manhattan

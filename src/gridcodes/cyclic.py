"""Cyclic subgroup codes of a finite abelian product group.

Elements are always exponent vectors with respect to the canonical
generating set implied by the component orders; the code generated by one
element is materialized through modular arithmetic only, never as abstract
group elements.  The k-th power vanishes on the axes whose refined order m̂ᵢ
divides k; the Hamming distances come from gcds over a pairwise coprime base
of the m̂ᵢ (see ``min_hamming_distance``), with no factoring and no subset
enumeration.  The Lee and Manhattan distances of the chain come from one
table of the powers over the refined generators, with axis i weighted by lᵢ
for the ambient coordinates and by 1 for the refined ones: the pairs at
power difference j differ by the j-th power, whose Lee weight bounds their
Manhattan distance, so ``bound_chain`` scans one difference at a time in
bound order instead of all pairs.  The scan runs over numpy arrays, or over
lists of exact ints when ``grid.numpy_for`` finds its worst case cheaper
than importing numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .errors import DomainError, GridCodesError, check_budget
from .grid import integer, numpy_for

#: Largest cyclic-code order that ``bound_chain``'s power-difference scans
#: accept by default.
DEFAULT_ORDER_BUDGET = 5000


@dataclass(frozen=True)
class CyclicCodeSpec:
    orders: tuple[int, ...]
    generator_exponents: tuple[int, ...]

    def __post_init__(self):
        orders = tuple(integer(m, "component order", 2) for m in self.orders)
        exps = tuple(integer(e, "exponent") for e in self.generator_exponents)
        if not orders:
            raise DomainError("at least one cyclic component is required")
        if len(exps) != len(orders):
            raise DomainError(
                f"generator has {len(exps)} exponents, group has {len(orders)} components"
            )
        for e, m in zip(exps, orders):
            if not 0 <= e <= m - 1:
                raise DomainError(f"exponent {e} outside [0, {m - 1}]")
        if all(e == 0 for e in exps):
            raise DomainError("trivial generator: all exponents are zero")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "generator_exponents", exps)


@dataclass(frozen=True)
class CyclicDerived:
    spec: CyclicCodeSpec
    support: tuple[int, ...]
    gcds: dict  # i -> gcd(e_i, m_i), for i in support
    cofactors: dict  # i -> e_i / gcd, for i in support
    min_gcd: int
    order: int
    hat_sides: dict  # i -> m_i / gcd, for i in support


def derive(spec: CyclicCodeSpec) -> CyclicDerived:
    support = tuple(i for i, e in enumerate(spec.generator_exponents) if e != 0)
    gcds = {i: math.gcd(spec.generator_exponents[i], spec.orders[i]) for i in support}
    cofactors = {i: spec.generator_exponents[i] // gcds[i] for i in support}
    hat_sides = {i: spec.orders[i] // gcds[i] for i in support}
    order = math.lcm(*hat_sides.values())
    return CyclicDerived(
        spec=spec,
        support=support,
        gcds=gcds,
        cofactors=cofactors,
        min_gcd=min(gcds.values()),
        order=order,
        hat_sides=hat_sides,
    )


def _coprime_base(values) -> set[int]:
    """Pairwise coprime integers > 1 whose powers multiply to every value:
    split two members sharing g > 1 into g, a/g and b/g until none do."""
    base = set(values) - {1}
    while True:
        for a, b in itertools.combinations(base, 2):
            g = math.gcd(a, b)
            if g > 1:
                base = base - {a, b} | {g, a // g, b // g} - {1}
                break
        else:
            return base


def codeword(spec: CyclicCodeSpec, k: int) -> tuple[int, ...]:
    """Exponent vector of the k-th power of the generator."""
    k = integer(k, "power")
    return tuple((e * k) % m for e, m in zip(spec.generator_exponents, spec.orders))


def codewords(spec: CyclicCodeSpec) -> list[tuple[int, ...]]:
    return [codeword(spec, k) for k in range(derive(spec).order)]


def min_hamming_distance(
    spec: CyclicCodeSpec, derived: CyclicDerived | None = None
) -> tuple[int, int]:
    """(minimum, maximum) Hamming distance of the cyclic code.

    The generator is non-zero on the whole support, the maximum.  A power
    k that is not the identity falls short of the order's b-part for some b
    in a coprime base of the refined orders m̂ᵢ, so it vanishes wherever the
    power order/b does: on the axes whose m̂ᵢ lacks the full b-part.  The
    minimum is the least count, over b, of the axes with gcd(order/m̂ᵢ, b) = 1.
    """
    derived = derived or derive(spec)
    cofactor_orders = [derived.order // m for m in derived.hat_sides.values()]
    d_h = min(
        sum(1 for c in cofactor_orders if math.gcd(c, b) == 1)
        for b in _coprime_base(derived.hat_sides.values())
    )
    delta_h = len(derived.support)
    return d_h, delta_h


def hat_coordinates(derived: CyclicDerived, k: int) -> tuple[int, ...]:
    """Exponents of the k-th power over the refined generators g_i^{l_i}."""
    return tuple(
        (derived.cofactors[i] * k) % derived.hat_sides[i] for i in derived.support
    )


def codeword_distance(spec: CyclicCodeSpec, k1: int, k2: int) -> int:
    """Exact Manhattan distance between the k1-th and k2-th generator powers."""
    derived = derive(spec)
    k1, k2 = integer(k1, "power"), integer(k2, "power")
    for k in (k1, k2):
        if not 0 <= k < derived.order:
            raise DomainError(f"power {k} outside [0, {derived.order - 1}]")
    a = hat_coordinates(derived, k1)
    b = hat_coordinates(derived, k2)
    return sum(
        derived.gcds[i] * abs(x - y) for i, x, y in zip(derived.support, a, b)
    )


@dataclass(frozen=True)
class DistanceChain:
    """All members of the layered lower-bound chain for the Manhattan distance."""

    spec: CyclicCodeSpec
    order: int
    min_gcd: int
    d_hamming: int
    delta_hamming: int
    d_lee: int
    d_manhattan: int
    delta_manhattan: int
    hat_d_lee: int
    hat_d_manhattan: int
    delta_upper: int

    @property
    def links(self) -> tuple[int, int, int, int]:
        """(l*d_H, l*hat_d_L, max(d_L, l*hat_d), d) - non-decreasing."""
        return (
            self.min_gcd * self.d_hamming,
            self.min_gcd * self.hat_d_lee,
            max(self.d_lee, self.min_gcd * self.hat_d_manhattan),
            self.d_manhattan,
        )

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "d_hamming": self.d_hamming,
            "delta_hamming": self.delta_hamming,
            "chain": {
                "l": self.min_gcd,
                "l_times_d_hamming": self.links[0],
                "l_times_hat_d_lee": self.links[1],
                "d_lee": self.d_lee,
                "l_times_hat_d_manhattan": self.min_gcd * self.hat_d_manhattan,
                "max_mid": self.links[2],
                "d_manhattan": self.d_manhattan,
                "delta_manhattan": self.delta_manhattan,
                "delta_upper": self.delta_upper,
            },
        }


def _power_extremes(derived: CyclicDerived) -> tuple[int, ...]:
    """(d_lee, d_manhattan, delta_manhattan, hat_d_lee, hat_d_manhattan).

    The k-th power has refined coordinates k·cᵢ mod m̂ᵢ, and as eᵢ = lᵢ·cᵢ
    and mᵢ = lᵢ·m̂ᵢ its ambient ones are these times lᵢ: one table of refined
    powers serves both, with axis i weighted by lᵢ (ambient) or 1 (refined).
    Powers k and k + j differ on axis i by s or m̂ - s, where s is the j-th
    power's coordinate, so their distance lies between the j-th power's Lee
    weight L(j) and U(j), the sum of m̂ - min(s, m̂ - s) over its non-zero
    coordinates, both weighted like the distance.  Differences j <= order/2
    are scanned, one row of all k each, by ascending L for each minimum and
    by descending U for the ambient maximum, until the bound cannot beat the
    extreme so far.  Without numpy the table is lists of exact ints, and a
    row reads, for each axis, s or m̂ - s from a list indexed by the
    coordinate of k.  With numpy, entries are Python ints where int64 could
    overflow, which at orders of 1,000-5,000 is still faster than pure.
    """
    support, order = derived.support, derived.order
    diffs = range(1, order // 2 + 1)
    np = numpy_for(3 * len(diffs) * order * len(support))
    if np is None:
        hats = [derived.hat_sides[i] for i in support]
        cols = [
            [k * derived.cofactors[i] % m for k in range(order)]
            for i, m in zip(support, hats)
        ]
        powers = list(zip(*cols))
        ambient, refined = [derived.gcds[i] for i in support], [1] * len(support)

        def lee_weights(weights):
            return [
                sum(w * min(s, m - s) for w, s, m in zip(weights, power, hats))
                for power in powers
            ]

        upper = [
            sum(w * (m - min(s, m - s)) for w, s, m in zip(ambient, power, hats) if s)
            for power in powers
        ]

        def row(j, weights):
            # k + j has coordinate x + s on axis i when x + s < m̂, else
            # x + s - m̂: a distance of s for the first m̂ - s values of x.
            steps = (
                map(([w * s] * (m - s) + [w * (m - s)] * s).__getitem__, col)
                for w, s, m, col in zip(weights, powers[j], hats, cols)
            )
            return functools.reduce(functools.partial(map, operator.add), steps)

        lowest, highest = min, max
    else:
        largest = max(order * max(derived.hat_sides.values()),
                      sum(derived.spec.orders[i] for i in support))
        dtype = np.int64 if largest <= np.iinfo(np.int64).max else object

        def column(values):
            return np.array([values[i] for i in support], dtype=dtype)

        m, ambient, refined = column(derived.hat_sides), column(derived.gcds), 1
        table = np.arange(order, dtype=dtype)[:, None] * column(derived.cofactors) % m
        axis_lee = np.minimum(table, m - table)

        def lee_weights(weights):
            return (axis_lee * weights).sum(axis=1).tolist()

        upper = ((np.where(table != 0, m, 0) - axis_lee) * ambient).sum(axis=1).tolist()

        def row(j, weights):
            return (np.abs(table - np.roll(table, -j, axis=0)) * weights).sum(axis=1)

        lowest, highest = np.min, np.max

    def minima(weights):
        lee = lee_weights(weights)
        low = math.inf
        for j in sorted(diffs, key=lee.__getitem__):
            if lee[j] >= low:
                break
            low = min(low, int(lowest(row(j, weights))))
        return min(lee[1:]), low

    high = 0
    for j in sorted(diffs, key=upper.__getitem__, reverse=True):
        if upper[j] <= high:
            break
        high = max(high, int(highest(row(j, ambient))))
    return (*minima(ambient), high, *minima(refined))


def bound_chain(
    spec: CyclicCodeSpec, order_budget: int = DEFAULT_ORDER_BUDGET
) -> DistanceChain:
    """Exact distance parameters of the cyclic code, with the chain checked.

    Hamming and Lee minima shift with the group action, so scanning the
    powers against the identity suffices; the Manhattan extremes do not, and
    come from comparing the powers at one difference at a time.  Both
    coordinate systems read one table of refined powers, see
    ``_power_extremes``.
    """
    derived = derive(spec)
    order = derived.order
    check_budget(order, order_budget, "cyclic code has order {}")

    d_h, delta_h = min_hamming_distance(spec, derived)
    d_lee, d_man, delta_man, hat_d_lee, hat_d_man = _power_extremes(derived)
    delta_upper = sum(spec.orders[i] - derived.gcds[i] for i in derived.support)
    chain = DistanceChain(
        spec=spec,
        order=order,
        min_gcd=derived.min_gcd,
        d_hamming=d_h,
        delta_hamming=delta_h,
        d_lee=d_lee,
        d_manhattan=d_man,
        delta_manhattan=delta_man,
        hat_d_lee=hat_d_lee,
        hat_d_manhattan=hat_d_man,
        delta_upper=delta_upper,
    )
    a, b, c, d = chain.links
    if not (a <= b <= c <= d <= delta_upper and delta_man <= delta_upper):
        raise GridCodesError(f"distance chain out of order: {chain}")
    return chain

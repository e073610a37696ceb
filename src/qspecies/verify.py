"""Randomized law-checking suites behind the `verify` command.

Every law compares exact rationals; a failure count of zero is the only
passing outcome.  Suites are deterministic for a fixed seed.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple

from .numeric import DomainError, rising_factorial
from .groupoid import (
    FiniteGroupoid,
    GroupAction,
    cardinality,
    increasing_factorial,
    power_quotient,
    quotient,
)
from .species import egf_of, geom_inverse, scaled_reciprocal, constant_species
from .catalog import default_catalog, exp_species, make
from .egf import one_series
from .groupoid import group_of_order

__all__ = ["LawReport", "SUITES", "valuation_suite", "inverse_suite", "quotient_suite", "factorial_suite", "run_suites"]


class LawReport(NamedTuple):
    law: str
    checked: int
    failed: int


def _catalog_instances():
    return [make(name, params) for name, params in default_catalog()]


def valuation_suite(order: int = 6, seed: int = 0, trials: int = 50) -> list[LawReport]:
    """Cardinality tables respect sum, product, Hadamard, derivative, compose."""
    rng = random.Random(seed)
    entries = _catalog_instances()
    compose_order = min(order, 6)
    fails = {"sum": 0, "prod": 0, "had": 0, "deriv": 0, "compose": 0}
    for _ in range(trials):
        f = rng.choice(entries)
        g = rng.choice(entries)
        ef, eg = egf_of(f, order), egf_of(g, order)
        if egf_of(f + g, order) != ef + eg:
            fails["sum"] += 1
        if egf_of(f * g, order) != ef * eg:
            fails["prod"] += 1
        if egf_of(f.hadamard(g), order) != ef.hadamard(eg):
            fails["had"] += 1
        if egf_of(f.derivative(), order) != egf_of(f, order + 1).derivative():
            fails["deriv"] += 1
        gp = g.positive_part()
        left = egf_of(f.compose(gp), compose_order)
        right = egf_of(f, compose_order).compose(egf_of(gp, compose_order))
        if left != right:
            fails["compose"] += 1
    return [LawReport("valuation-%s" % law, trials, bad) for law, bad in fails.items()]


def inverse_suite(order: int = 10, seed: int = 0, trials: int = 0) -> list[LawReport]:
    """(1 + |F|) |1/(1+F)| = 1 and the scaled-reciprocal law, deterministically,
    to order 8 at least."""
    del seed, trials  # the checked set is fixed
    order = max(order, 8)
    cases = [
        ("Exp+", exp_species().positive_part()),
        ("Z", make("Z")),
        ("half-Exp+", constant_species(group_of_order(2)) * exp_species().positive_part()),
        ("dZ+", make("Z").derivative().positive_part()),
    ]
    reports = []
    one = one_series(order)
    failed = 0
    for _, f in cases:
        lhs = (one + egf_of(f, order)) * egf_of(geom_inverse(f), order)
        if lhs != one:
            failed += 1
    reports.append(LawReport("inverse-geominv", len(cases), failed))
    failed = 0
    scaled_cases = [(1, 2), (2, 3)]
    for a, b in scaled_cases:
        f = exp_species().positive_part()
        sp = scaled_reciprocal(a, b, f)
        scale = Fraction(b, a)
        lhs = egf_of(sp, order) * (one.scalar_mul(1) + egf_of(f, order).scalar_mul(scale))
        if lhs != one.scalar_mul(scale):
            failed += 1
    reports.append(LawReport("inverse-scaledrecip", len(scaled_cases), failed))
    return reports


def _random_action(rng: random.Random) -> GroupAction:
    degree = rng.randint(2, 6)
    base = list(range(1, degree + 1))
    gens = []
    for _ in range(rng.randint(0, 2)):
        perm = base[:]
        rng.shuffle(perm)
        gens.append(tuple(perm))
    return GroupAction.from_generators(degree, gens)


def quotient_suite(order: int = 6, seed: int = 0, trials: int = 100) -> list[LawReport]:
    """|{1..m}/G| = m/|G| on random groups, plus the multiset-count identity."""
    del order  # group degrees and multiset sizes are fixed
    rng = random.Random(seed)
    failed = 0
    for _ in range(trials):
        action = _random_action(rng)
        if cardinality(quotient(action)) != Fraction(action.degree, len(action)):
            failed += 1
    reports = [LawReport("quotient-cardinality", trials, failed)]

    failed = checked = 0
    for n in range(1, 5):
        for k in range(1, 5):
            checked += 1
            got = cardinality(power_quotient(n, k, GroupAction.symmetric(k)))
            direct = Fraction(0)
            for split in itertools.product(range(k + 1), repeat=n):
                if sum(split) == k:
                    denom = 1
                    for s in split:
                        denom *= math.factorial(s)
                    direct += Fraction(1, denom)
            if got != direct or got != Fraction(n ** k, math.factorial(k)):
                failed += 1
    reports.append(LawReport("quotient-multiset-count", checked, failed))
    return reports


def _random_groupoid(rng: random.Random) -> FiniteGroupoid:
    counts = {}
    for _ in range(rng.randint(1, 3)):
        comp = (rng.randint(1, 3), rng.randint(1, 6))
        counts[comp] = counts.get(comp, 0) + rng.randint(1, 3)
    return FiniteGroupoid.from_counts(counts)


def factorial_suite(order: int = 6, seed: int = 0, trials: int = 50) -> list[LawReport]:
    """|g (g+[1]) ... (g+[n-1])| equals the rising factorial of |g|."""
    del order  # groupoid and factorial sizes are fixed
    rng = random.Random(seed)
    failed = 0
    for _ in range(trials):
        g = _random_groupoid(rng)
        n = rng.randint(0, 6)
        got = cardinality(increasing_factorial(g, n))
        if got != rising_factorial(cardinality(g), n):
            failed += 1
    return [LawReport("factorial-rising", trials, failed)]


# name -> suite; each suite takes (order, seed, trials)
SUITES = {
    "valuation": valuation_suite,
    "inverse": inverse_suite,
    "quotient": quotient_suite,
    "factorial": factorial_suite,
}


def run_suites(name: str, order: int = 6, seed: int = 0, trials: int = 50) -> list[LawReport]:
    """Run one suite by name, or all of them in table order."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise DomainError("unknown suite %r" % name)
    out: list[LawReport] = []
    for suite in names:
        out.extend(SUITES[suite](order, seed, trials))
    return out

"""Bernoulli and Euler numbers and polynomials, each by independent routes.

`ROUTES` lists every route of every kind, in the order the command line
prints them:

* "species"  - cardinality tables of groupoid-valued species built from the
  alternating geometric inverse, at every level N for Bernoulli.
* "series"   - truncated-series arithmetic (monomial division, reciprocal),
  at every level N for Bernoulli.
* "formula"  - a direct closed evaluation at level 1: the alternating sum over
  integer compositions for Bernoulli numbers, the classical recurrences for
  Euler numbers and both polynomial families.

The Bernoulli recurrence (`bernoulli_recurrence`) is no route of its own: it
is the independent oracle the acceptance gate checks the routes against.
Tables of the same kind computed by different routes must agree entrywise;
that equality is the whole point of the construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .numeric import (
    DomainError,
    charge,
    fraction_units,
    weight,
)
from .egf import (
    Polynomial,
    TruncatedEGF,
    diagonal_series,
    exp_series,
    one_series,
    promote_series,
)
from .species import Species, egf_of, geom_inverse, promote, substitute_xy, constant_species
from .groupoid import group_of_order
from .catalog import dec_fact, exp_species

__all__ = [
    "ROUTES",
    "routes",
    "route_table",
    "NumberTable",
    "PolynomialTable",
    "bernoulli_recurrence",
    "bernoulli_formula",
    "bernoulli_species",
    "bernoulli_series",
    "generalized_bernoulli_species",
    "generalized_bernoulli_series",
    "bernoulli_poly_classical",
    "bernoulli_poly_species",
    "bernoulli_poly_series",
    "euler_recurrence",
    "euler_species",
    "euler_series",
    "euler_poly_recurrence",
    "euler_poly_species",
    "euler_poly_series",
]


@dataclass(frozen=True)
class NumberTable:
    kind: str
    values: tuple[Fraction, ...]

    def matches(self, other: "NumberTable") -> bool:
        return self.kind == other.kind and self.values == other.values


@dataclass(frozen=True)
class PolynomialTable:
    kind: str
    polys: tuple[Polynomial, ...]

    def matches(self, other: "PolynomialTable") -> bool:
        return self.kind == other.kind and self.polys == other.polys


def _kind(base: str, level: int) -> str:
    return base if level == 1 else "%s(N=%d)" % (base, level)


def _coefficients(series: TruncatedEGF, count: int) -> tuple[Fraction, ...]:
    return tuple(series.coefficient((n,)) for n in range(count + 1))


def _row_polynomials(two: Species, count: int) -> tuple[Polynomial, ...]:
    """Rows 0..count of a two-sort table f(xy) * g(y): row n is the sum of
    |two(a, n)| x^a / a! over a <= n.

    The diagonal factor takes one label of each sort per pair, so two(a, n)
    is empty for a > n and only the triangle a <= n <= count is evaluated.
    """
    return tuple(
        Polynomial([two.cardinality_at((a, n)) / math.factorial(a) for a in range(n + 1)])
        for n in range(count + 1)
    )


# -- Bernoulli numbers -----------------------------------------------------


def bernoulli_recurrence(count: int) -> NumberTable:
    """Classical recurrence: sum of binom(n+1, k) B_k over k <= n vanishes.

    First kind convention: B_1 = -1/2.
    """
    values = [Fraction(1)]
    for n in range(1, count + 1):
        # B_n holds about n log2(n) / 2 bits at these sizes
        charge(2 * n * fraction_units(n * n.bit_length() // 2), "bernoulli recurrence", n)
        total = sum(math.comb(n + 1, k) * values[k] for k in range(n))
        values.append(Fraction(-total, n + 1))
    return NumberTable("bernoulli", tuple(values))


def bernoulli_formula(count: int) -> NumberTable:
    """Direct alternating sum over integer compositions:

        B_n = sum over compositions (a_1..a_k) of n of
              (-1)^k n! / ((a_1+1)! ... (a_k+1)!).

    The sum is taken by dynamic programming over the remaining size rather
    than by listing the compositions.  groups[m] maps each denominator
    (a_1+1)! ... (a_k+1)! to the signed count (-1)^k of compositions of m
    that produce it, starting from groups[0] = {1: +1}.  Splitting off the
    first part a gives groups[m] from groups[m-a] for a = 1..m, with the key
    multiplied by (a+1)! and the sign flipped.  Every row is reused by all
    larger sizes, so no composition is listed; a row holds one key per
    distinct denominator, a number that grows with the integer partitions of
    m, not with 2^(m-1).  B_n is n! times the sum of c/d over groups[n],
    taken over the least common denominator.  Each row is charged before it
    is built.
    """
    fact = [math.factorial(i + 1) for i in range(count + 2)]
    groups: list[dict[int, int]] = [{1: 1}]
    values = [Fraction(1)]
    for n in range(1, count + 1):
        adds = sum(len(groups[m]) for m in range(n))
        charge(adds * weight(fact[n].bit_length()), "composition formula", n)
        row: dict[int, int] = {}
        for first in range(1, n + 1):
            for denom, c in groups[n - first].items():
                key = denom * fact[first]
                row[key] = row.get(key, 0) - c
        groups.append(row)
        common = math.lcm(*row)
        total = sum(c * (common // d) for d, c in row.items())
        values.append(Fraction(math.factorial(n) * total, common))
    return NumberTable("bernoulli", tuple(values))


def _generalized_inverse_species(f: Species, level: int) -> Species:
    """The species whose cardinality table is the generalized Bernoulli EGF.

    Hadamard with the falling-factorial species kills sizes below `level`,
    the level-fold derivative shifts the survivors down, and the geometric
    inverse then inverts 1 plus level! copies of the positive part.
    """
    if level < 1:
        raise DomainError("level must be >= 1")
    if f.sorts != 1:
        raise DomainError("generalized table needs a single-sort species")
    from .groupoid import GRADED_UNIT

    if f.value((level,)) != GRADED_UNIT:
        raise DomainError("species must be the unit groupoid at size %d" % level)
    charge(weight(level * level.bit_length()) ** 2, "level factorial", level)
    kept = f.hadamard(dec_fact(level))
    # the level-fold derivative as one shift, not a chain of level species
    shifted = Species(
        1, lambda sizes: kept.value((sizes[0] + level,)), "d^%d/dx1^%d(%s)" % (level, level, kept.name)
    )
    positive = shifted.positive_part()
    copies = positive.replicate(math.factorial(level))
    if level > 4:  # past 4! the digits are longer than the name "level!"
        copies.name = "replicate(%d!,%s)" % (level, positive.name)
    return geom_inverse(copies)


def generalized_bernoulli_species(f: Species, level: int, count: int) -> NumberTable:
    inverse = _generalized_inverse_species(f, level)
    return NumberTable(_kind("bernoulli", level), _coefficients(egf_of(inverse, count), count))


def generalized_bernoulli_series(f: TruncatedEGF, level: int, count: int) -> NumberTable:
    """x^level / level! divided by the tail of f above degree level."""
    if level < 1:
        raise DomainError("level must be >= 1")
    if f.nvars != 1:
        raise DomainError("generalized table needs a one-variable series")
    if f.order < count + level:
        raise DomainError(
            "series order %d too small for count %d at level %d" % (f.order, count, level)
        )
    inverse = _tail(f, level).reciprocal()
    return NumberTable(_kind("bernoulli", level), _coefficients(inverse, count))


def _tail(f: TruncatedEGF, level: int) -> TruncatedEGF:
    """level! times the terms of f above degree level, divided by x^level."""
    charge(weight(level * level.bit_length()) ** 2, "level factorial", level)
    tail = f.sub(f.keep_below(level))
    return tail.monomial_div(level).scalar_mul(math.factorial(level))


def bernoulli_species(count: int, level: int = 1) -> NumberTable:
    return generalized_bernoulli_species(exp_species(), level, count)


def bernoulli_series(count: int, level: int = 1) -> NumberTable:
    return generalized_bernoulli_series(exp_series(count + level), level, count)


# -- Bernoulli polynomials -------------------------------------------------


def bernoulli_poly_classical(count: int) -> PolynomialTable:
    """Oracle: row n is sum of binom(n, k) B_k x^(n-k) with recurrence B_k."""
    numbers = bernoulli_recurrence(count).values
    polys = []
    for n in range(count + 1):
        charge(2 * (n + 1) * fraction_units(n * n.bit_length() // 2), "bernoulli polynomial sum", n)
        coeffs = [Fraction(0)] * (n + 1)
        for k in range(n + 1):
            coeffs[n - k] = math.comb(n, k) * numbers[k]
        polys.append(Polynomial(coeffs))
    return PolynomialTable("bernoulli-polynomials", tuple(polys))


def bernoulli_poly_species(count: int, level: int = 1) -> PolynomialTable:
    """Diagonal substitution of the exponential times the promoted inverse."""
    inverse = _generalized_inverse_species(exp_species(), level)
    two = substitute_xy(exp_species()) * promote(inverse, 2)
    return PolynomialTable(_kind("bernoulli-polynomials", level), _row_polynomials(two, count))


def bernoulli_poly_series(count: int, level: int = 1) -> PolynomialTable:
    norm = _tail(exp_series(2 * count + level), level)
    two = diagonal_series(exp_series(count)).mul(promote_series(norm.reciprocal(), 2))
    return PolynomialTable(
        _kind("bernoulli-polynomials", level), tuple(two.extract_polynomials()[: count + 1])
    )


# -- Euler numbers and polynomials ----------------------------------------


def _euler_inverse_species() -> Species:
    """Inverse of 1 plus half of the nonempty-set species; table 2/(1+e^x)."""
    half = constant_species(group_of_order(2), 1)
    return geom_inverse(half * exp_species().positive_part())


def euler_poly_recurrence(count: int) -> PolynomialTable:
    """Oracle recurrence: E_n(x) = x^n - (1/2) sum binom(n, k) E_k(x), k < n."""
    polys = [Polynomial([1])]
    for n in range(1, count + 1):
        # n scalings and sums of n coefficients, sized as B_n
        charge(2 * n * n * fraction_units(n * n.bit_length() // 2), "euler recurrence", n)
        acc = Polynomial([])
        for k in range(n):
            acc = acc + polys[k].scale(math.comb(n, k))
        polys.append(Polynomial.monomial(n) - acc.scale(Fraction(1, 2)))
    return PolynomialTable("euler-polynomials", tuple(polys))


def euler_recurrence(count: int) -> NumberTable:
    """Euler numbers are the polynomial values at zero."""
    polys = euler_poly_recurrence(count).polys
    return NumberTable("euler", tuple(p(0) for p in polys))


def euler_species(count: int) -> NumberTable:
    series = egf_of(_euler_inverse_species(), count)
    return NumberTable("euler", _coefficients(series, count))


def euler_series(count: int) -> NumberTable:
    half = (one_series(count) + exp_series(count)).scalar_mul(Fraction(1, 2))
    return NumberTable("euler", _coefficients(half.reciprocal(), count))


def euler_poly_species(count: int) -> PolynomialTable:
    two = substitute_xy(exp_species()) * promote(_euler_inverse_species(), 2)
    return PolynomialTable("euler-polynomials", _row_polynomials(two, count))


def euler_poly_series(count: int) -> PolynomialTable:
    order = 2 * count
    half = (one_series(order) + exp_series(order)).scalar_mul(Fraction(1, 2))
    two = diagonal_series(exp_series(count)).mul(promote_series(half.reciprocal(), 2))
    return PolynomialTable("euler-polynomials", tuple(two.extract_polynomials()[: count + 1]))


# -- The route table -------------------------------------------------------

# kind -> route -> (builder, level).  The builder is named, and looked up in
# this module when it is called, so that a builder replaced on the module is
# the one that runs.  A level of None means the builder takes (count, level)
# for every level N >= 1; otherwise it takes (count) and exists at that
# level only.
ROUTES = {
    "bernoulli": {
        "species": ("bernoulli_species", None),
        "series": ("bernoulli_series", None),
        "formula": ("bernoulli_formula", 1),
    },
    "bernoulli-polynomials": {
        "species": ("bernoulli_poly_species", None),
        "series": ("bernoulli_poly_series", None),
        "formula": ("bernoulli_poly_classical", 1),
    },
    "euler": {
        "species": ("euler_species", 1),
        "series": ("euler_series", 1),
        "formula": ("euler_recurrence", 1),
    },
    "euler-polynomials": {
        "species": ("euler_poly_species", 1),
        "series": ("euler_poly_series", 1),
        "formula": ("euler_poly_recurrence", 1),
    },
}


def routes(kind: str, level: int) -> list[str]:
    """The routes of `kind` defined at `level`, in table order."""
    return [route for route, (_, only) in ROUTES[kind].items() if only in (None, level)]


def route_table(kind: str, route: str, count: int, level: int):
    """Rows 0..count of `kind` at `level`, by one route."""
    name, only = ROUTES[kind][route]
    if only is None:
        return globals()[name](count, level)
    if level != only:
        raise DomainError("route %r is defined for N=%d only" % (route, only))
    return globals()[name](count)

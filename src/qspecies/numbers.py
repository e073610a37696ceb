"""Bernoulli and Euler numbers and polynomials, each by independent routes.

`ROUTES` lists every route of every kind, in the order the command line
prints them:

* "species"  - cardinality tables of groupoid-valued species built from the
  alternating geometric inverse, at every level N for Bernoulli.
* "series"   - truncated-series arithmetic (monomial division, reciprocal),
  at every level N for Bernoulli.
* "formula"  - a direct evaluation at level 1, each table from its own sum or
  recurrence: the alternating sum over integer compositions, grouped by part
  count, for Bernoulli numbers; the number recurrence for Euler numbers; and
  for both polynomial families the Appell sum over the recurrence numbers.

The Bernoulli recurrence (`bernoulli_recurrence`) is no route of its own: it
is the independent oracle the acceptance gate checks the routes against.
Tables of the same kind computed by different routes must agree entrywise;
that equality is the whole point of the construction, so no two routes of
one kind share the code that computes their values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .numeric import DomainError, charge, fraction_units, weight
from .egf import Polynomial, TruncatedEGF, diagonal_series, exp_series, one_series, promote_series
from .species import Species, geom_inverse, promote, substitute_xy, constant_species
from .groupoid import GRADED_UNIT, group_of_order
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


def _cardinalities(kind: str, f: Species, count: int) -> NumberTable:
    """Rows 0..count of a one-sort species' cardinality table, every
    coefficient charged as one Fraction before any is computed."""
    charge(fraction_units(0) * (count + 1), f.name, count)
    return NumberTable(kind, tuple(f.cardinality_at((n,)) for n in range(count + 1)))


def _coefficients(series: TruncatedEGF, count: int) -> tuple[Fraction, ...]:
    return tuple(series.coefficient((n,)) for n in range(count + 1))


def _species_rows(kind: str, inverse: Species, count: int) -> PolynomialTable:
    """Rows 0..count of the two-sort table exp(xy) * inverse(y): row n is the
    sum of |two(a, n)| x^a / a! over a <= n.

    The diagonal factor takes one label of each sort per pair, so two(a, n)
    is empty for a > n and only the triangle a <= n <= count is evaluated.
    """
    two = substitute_xy(exp_species()) * promote(inverse, 2)
    rows = (
        Polynomial([two.cardinality_at((a, n)) / math.factorial(a) for a in range(n + 1)])
        for n in range(count + 1)
    )
    return PolynomialTable(kind, tuple(rows))


def _series_rows(kind: str, denominator: TruncatedEGF, count: int) -> PolynomialTable:
    """Rows 0..count of the two-variable series exp(xy) / denominator(y)."""
    two = diagonal_series(exp_series(count)).mul(promote_series(denominator.reciprocal(), 2))
    return PolynomialTable(kind, tuple(two.extract_polynomials()[: count + 1]))


def _appell_rows(kind: str, numbers: tuple[Fraction, ...], node: str) -> PolynomialTable:
    """Row n is the Appell sum of binom(n, k) a_k x^(n-k) over k <= n."""
    polys = []
    for n in range(len(numbers)):
        charge(2 * (n + 1) * fraction_units(n * n.bit_length() // 2), node, n)
        polys.append(Polynomial([math.comb(n, j) * numbers[n - j] for j in range(n + 1)]))
    return PolynomialTable(kind, tuple(polys))


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
    """The alternating sum over integer compositions, grouped by part count:

        B_n = sum over compositions (a_1..a_k) of n of (-1)^k n! / prod (a_i+1)!
            = sum over k of (-1)^k k! S2(n+k, k) n! / (n+k)!,

    where S2(m, k) counts the partitions of an m-set into k blocks of size
    at least 2: weighted by its multinomial, each composition with k parts
    counts ordered such partitions of an (n+k)-set.  Row n holds k! S2(n+k, k)
    for k <= n, and S2(m, k) = k S2(m-1, k) + (m-1) S2(m-2, k-1) builds it from
    row n-1 alone.  The sum over k is taken over the common denominator
    (2n)!/n! by Horner's rule.  Every step multiplies by a small integer, so
    the cost is polynomial in n; each row is charged before it is built.
    """
    ordered = [1]  # k! S2(n+k, k) for k = 0..n, from n = 0
    values = [Fraction(1)]
    for n in range(1, count + 1):
        bits = n * (2 * n).bit_length()  # about the mean entry's size
        charge(3 * n * weight(bits) + fraction_units(bits), "composition formula", n)
        ordered.append(0)
        for k in range(n, 0, -1):
            ordered[k] = k * (ordered[k] + (n + k - 1) * ordered[k - 1])
        ordered[0] = 0  # a nonempty set has no partition into 0 blocks
        total = 0
        for k in range(1, n + 1):
            total = total * (n + k) + (-ordered[k] if k % 2 else ordered[k])
        values.append(Fraction(total, math.perm(2 * n, n)))
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
    return _cardinalities(_kind("bernoulli", level), _generalized_inverse_species(f, level), count)


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
    """Oracle: the Appell rows over the recurrence numbers B_k."""
    numbers = bernoulli_recurrence(count).values
    return _appell_rows("bernoulli-polynomials", numbers, "bernoulli polynomial sum")


def bernoulli_poly_species(count: int, level: int = 1) -> PolynomialTable:
    """Diagonal substitution of the exponential times the promoted inverse."""
    inverse = _generalized_inverse_species(exp_species(), level)
    return _species_rows(_kind("bernoulli-polynomials", level), inverse, count)


def bernoulli_poly_series(count: int, level: int = 1) -> PolynomialTable:
    norm = _tail(exp_series(2 * count + level), level)
    return _series_rows(_kind("bernoulli-polynomials", level), norm, count)


# -- Euler numbers and polynomials ----------------------------------------


def _euler_inverse_species() -> Species:
    """Inverse of 1 plus half of the nonempty-set species; table 2/(1+e^x)."""
    half = constant_species(group_of_order(2), 1)
    return geom_inverse(half * exp_species().positive_part())


def _euler_half_series(order: int) -> TruncatedEGF:
    """(1 + e^x) / 2, whose reciprocal is the Euler table."""
    return (one_series(order) + exp_series(order)).scalar_mul(Fraction(1, 2))


def euler_recurrence(count: int) -> NumberTable:
    """E_n = -(1/2) sum of binom(n, k) E_k over k < n, for n >= 1.

    This is the polynomial recurrence of `euler_poly_recurrence` at x = 0.
    """
    values = [Fraction(1)]
    for n in range(1, count + 1):
        # E_n is sized as B_n
        charge(2 * n * fraction_units(n * n.bit_length() // 2), "euler recurrence", n)
        total = sum(math.comb(n, k) * values[k] for k in range(n))
        values.append(Fraction(-total, 2))
    return NumberTable("euler", tuple(values))


def euler_species(count: int) -> NumberTable:
    return _cardinalities("euler", _euler_inverse_species(), count)


def euler_series(count: int) -> NumberTable:
    return NumberTable("euler", _coefficients(_euler_half_series(count).reciprocal(), count))


def euler_poly_recurrence(count: int) -> PolynomialTable:
    """Oracle: E_n(x) = x^n - (1/2) sum binom(n, k) E_k(x) over k < n, an
    Appell family, so its rows are the Appell sums over the numbers E_k."""
    numbers = euler_recurrence(count).values
    return _appell_rows("euler-polynomials", numbers, "euler polynomial sum")


def euler_poly_species(count: int) -> PolynomialTable:
    return _species_rows("euler-polynomials", _euler_inverse_species(), count)


def euler_poly_series(count: int) -> PolynomialTable:
    return _series_rows("euler-polynomials", _euler_half_series(2 * count), count)


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

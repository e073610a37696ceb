import math
from fractions import Fraction

import pytest

from qspecies.catalog import cyc_pow, exp_species, scaled_exp
from qspecies.egf import Polynomial, exp_series, scaled_exp_series
from qspecies.numbers import (
    NumberTable,
    bernoulli_formula,
    bernoulli_poly_classical,
    bernoulli_poly_series,
    bernoulli_poly_species,
    bernoulli_recurrence,
    bernoulli_series,
    bernoulli_species,
    euler_poly_recurrence,
    euler_poly_series,
    euler_poly_species,
    euler_recurrence,
    euler_series,
    euler_species,
    generalized_bernoulli_series,
    generalized_bernoulli_species,
)
from qspecies.numeric import DomainError, EnumerationLimitError, work_meter
from qspecies.species import egf_of

# classical first-kind values, frozen
BERNOULLI_HEAD = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(5, 66),
]

EULER_HEAD = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 4),
    Fraction(0),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(17, 8),
]

# head of the level-2 table, derived by hand from the series
#   (2/x^2)(e^x - 1 - x) inverted termwise
LEVEL2_HEAD = [
    Fraction(1),
    Fraction(-1, 3),
    Fraction(1, 18),
    Fraction(1, 90),
    Fraction(-1, 270),
]


def test_recurrence_head():
    assert list(bernoulli_recurrence(10).values) == BERNOULLI_HEAD


def test_recurrence_b20():
    assert bernoulli_recurrence(20).values[20] == Fraction(-174611, 330)


def test_formula_matches_recurrence():
    for count in (14, 25, 60):
        a = bernoulli_formula(count)
        b = bernoulli_recurrence(count)
        assert a.matches(b)


def _compositions(n):
    """Every ordered tuple of positive integers summing to n, 2^(n-1) of them."""
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def test_formula_matches_composition_enumeration():
    # the literal sum over every composition, independent of the grouped sum
    assert list(_compositions(3)) == [(3,), (2, 1), (1, 2), (1, 1, 1)]
    values = bernoulli_formula(16).values
    for n in range(1, 17):
        literal = sum(
            Fraction(
                (-1) ** len(parts) * math.factorial(n),
                math.prod(math.factorial(a + 1) for a in parts),
            )
            for parts in _compositions(n)
        )
        assert values[n] == literal


def test_formula_cap(small_budget):
    # no size cap: n = 30 is past the old cap of 25
    assert bernoulli_formula(30).matches(bernoulli_recurrence(30))
    # inside a meter the dynamic program is charged row by row
    with work_meter(), pytest.raises(EnumerationLimitError, match=r"^composition formula at size \d+ needs"):
        bernoulli_formula(100)


def test_species_route_head():
    assert list(bernoulli_species(10).values) == BERNOULLI_HEAD


def test_series_route_head():
    assert list(bernoulli_series(10).values) == BERNOULLI_HEAD


def test_all_routes_agree_to_16():
    tables = [
        bernoulli_recurrence(16),
        bernoulli_formula(16),
        bernoulli_species(16),
        bernoulli_series(16),
    ]
    for t in tables[1:]:
        assert tables[0].matches(t)


def test_number_table_matches_needs_same_kind():
    a = NumberTable("bernoulli", (Fraction(1),))
    b = NumberTable("euler", (Fraction(1),))
    assert not a.matches(b)


def test_generalized_level2_head():
    sp = generalized_bernoulli_species(exp_species(), 2, 4)
    se = generalized_bernoulli_series(exp_series(8), 2, 4)
    assert list(sp.values) == LEVEL2_HEAD
    assert sp.matches(se)
    assert sp.kind == "bernoulli(N=2)"


def test_generalized_levels_agree():
    for level in (1, 2, 3):
        sp = generalized_bernoulli_species(exp_species(), level, 8)
        se = generalized_bernoulli_series(exp_series(8 + level), level, 8)
        assert sp.matches(se)


def test_generalized_other_base_species():
    # any species that is the unit at size `level` qualifies; exp(x/1) is
    # exp, but Zpow(0) has the unit at every positive size too
    sp = generalized_bernoulli_species(cyc_pow(0), 2, 6)
    f = egf_of(cyc_pow(0), 8)
    se = generalized_bernoulli_series(f, 2, 6)
    assert sp.matches(se)


def test_generalized_validation():
    with pytest.raises(DomainError):
        generalized_bernoulli_species(exp_species(), 0, 4)
    with pytest.raises(DomainError):
        # scaled_exp(2) has 1/2^n at size n, not the unit at size 1
        generalized_bernoulli_species(scaled_exp(2), 1, 4)
    with pytest.raises(DomainError):
        generalized_bernoulli_series(exp_series(3), 2, 4)
    with pytest.raises(DomainError):
        generalized_bernoulli_series(scaled_exp_series(2, 8), 0, 4)


def test_poly_classical_head():
    polys = bernoulli_poly_classical(3).polys
    assert polys[0] == Polynomial([1])
    assert polys[1] == Polynomial([Fraction(-1, 2), 1])
    assert polys[2] == Polynomial([Fraction(1, 6), -1, 1])
    assert polys[3] == Polynomial([0, Fraction(1, 2), Fraction(-3, 2), 1])


def test_poly_routes_agree():
    oracle = bernoulli_poly_classical(8)
    assert bernoulli_poly_species(8).matches(oracle)
    assert bernoulli_poly_series(8).matches(oracle)


def test_poly_difference_identity():
    # B_n(x+1) - B_n(x) = n x^(n-1)
    for n, p in enumerate(bernoulli_poly_classical(8).polys):
        if n == 0:
            continue
        diff = p.shift(1) - p
        assert diff == Polynomial.monomial(n - 1, n)


def test_poly_derivative_identity():
    # B_n'(x) = n B_(n-1)(x)
    polys = bernoulli_poly_species(6).polys
    for n in range(1, 7):
        assert polys[n].derivative() == polys[n - 1].scale(n)


def test_poly_constant_terms_are_numbers():
    polys = bernoulli_poly_series(10).polys
    assert [p(0) for p in polys] == BERNOULLI_HEAD


def test_euler_oracle_head():
    assert list(euler_recurrence(7).values) == EULER_HEAD


def test_euler_routes_agree():
    oracle = euler_recurrence(10)
    assert euler_species(10).matches(oracle)
    assert euler_series(10).matches(oracle)


def test_euler_poly_head():
    polys = euler_poly_recurrence(3).polys
    assert polys[0] == Polynomial([1])
    assert polys[1] == Polynomial([Fraction(-1, 2), 1])
    assert polys[2] == Polynomial([0, -1, 1])
    assert polys[3] == Polynomial([Fraction(1, 4), 0, Fraction(-3, 2), 1])


def test_euler_poly_routes_agree():
    oracle = euler_poly_recurrence(7)
    assert euler_poly_species(7).matches(oracle)
    assert euler_poly_series(7).matches(oracle)


def test_euler_poly_reflection_identity():
    # E_n(x) + E_n(x+1) = 2 x^n
    for n, p in enumerate(euler_poly_recurrence(8).polys):
        assert p + p.shift(1) == Polynomial.monomial(n, 2)


def test_euler_polys_evaluate_to_numbers():
    polys = euler_poly_series(8).polys
    values = euler_recurrence(8).values
    assert tuple(p(0) for p in polys) == values


def test_degree_bounds():
    for n, p in enumerate(bernoulli_poly_classical(6).polys):
        assert p.degree == n
        assert p.coefficient(n) == 1
    for n, p in enumerate(euler_poly_recurrence(6).polys):
        assert p.degree == n
        assert p.coefficient(n) == 1

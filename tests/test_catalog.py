import math
from fractions import Fraction

import pytest

from qspecies.catalog import (
    builtin_names,
    cosh_integral,
    dec_fact,
    default_catalog,
    inc_fact,
    make,
    p_cyc,
    p_sym,
    sin_integral,
    sinh_integral,
)
from qspecies.egf import (
    cosh_series,
    exp_series,
    one_series,
    scaled_exp_series,
    sin_series,
    sinh_series,
)
from qspecies.numeric import DomainError, rising_factorial
from qspecies.species import egf_of

ORDER = 8


def coeffs(sp, order=ORDER):
    return [sp.cardinality_at(n) for n in range(order + 1)]


def test_x_and_one():
    assert coeffs(make("X")) == [0, 1] + [0] * (ORDER - 1)
    assert coeffs(make("One")) == [1] + [0] * ORDER
    x2 = make("X2")
    assert x2.cardinality_at((0, 1)) == 1
    assert x2.cardinality_at((1, 0)) == 0
    assert make("One2").cardinality_at((0, 0)) == 1


def test_exp():
    assert egf_of(make("Exp"), ORDER) == exp_series(ORDER)
    e2 = make("Exp2")
    assert e2.cardinality_at((3, 4)) == 1


def test_spow():
    for p in range(3):
        sp = make("Spow", (p,))
        assert coeffs(sp) == [Fraction(1, math.factorial(n) ** p) for n in range(ORDER + 1)]
    # Spow(1) composed into nothing: just check the headline value
    assert make("Spow", (2,)).cardinality_at(3) == Fraction(1, 36)


def test_zpow_and_z():
    for p in range(3):
        sp = make("Zpow", (p,))
        assert coeffs(sp) == [0] + [Fraction(1, n ** p) for n in range(1, ORDER + 1)]
    assert coeffs(make("Z")) == coeffs(make("Zpow", (1,)))


def test_scaled_exp():
    for base in (1, 2, 3):
        assert egf_of(make("E", (base,)), ORDER) == scaled_exp_series(base, ORDER)


def test_group_constant():
    g = make("Group", (6,))
    assert g.cardinality_at(0) == Fraction(1, 6)
    assert g.cardinality_at(1) == 0
    assert coeffs(make("GroupBar", (6,))) == coeffs(g)


def test_rising_base():
    sp = make("RisingZ", (2,))
    assert coeffs(sp) == [0] + [
        Fraction(1, rising_factorial(2, n)) for n in range(1, ORDER + 1)
    ]


def test_subsets():
    # same-size subsets are all isomorphic, so each size contributes 1/k!
    sp = make("Psubsets")
    expect = [
        sum(Fraction(1, math.factorial(k)) for k in range(n + 1))
        for n in range(ORDER + 1)
    ]
    assert coeffs(sp) == expect


def test_subsets_component_shape():
    gpd = make("Psubsets").value((4,))
    assert gpd.neg.parts == ()
    assert sorted(gpd.pos.parts) == sorted(
        ((math.comb(4, k), math.factorial(k)), 1) for k in range(5)
    )


def test_psym_and_pcyc():
    for k in (1, 2, 3):
        assert coeffs(p_sym(k)) == [0] + [
            Fraction(n ** k, math.factorial(k)) for n in range(1, ORDER + 1)
        ]
        assert coeffs(p_cyc(k)) == [0] + [
            Fraction(n ** k, k) for n in range(1, ORDER + 1)
        ]
    with pytest.raises(DomainError):
        p_sym(0)
    with pytest.raises(DomainError):
        p_cyc(0)


def test_integral_species_closed_forms():
    # each one is the integral of (series)/x, checked through the series ops
    sinh_route = sinh_series(ORDER).monomial_div(1).integrate()
    assert egf_of(sinh_integral(), ORDER) == sinh_route

    cosh_route = (cosh_series(ORDER) - one_series(ORDER)).monomial_div(1).integrate()
    assert egf_of(cosh_integral(), ORDER) == cosh_route

    sin_route = sin_series(ORDER).monomial_div(1).integrate()
    assert egf_of(sin_integral(), ORDER) == sin_route


def test_icosh_empty_below_two():
    sp = cosh_integral()
    assert sp.cardinality_at(0) == 0
    assert sp.cardinality_at(2) == Fraction(1, 2)


def test_si_signs():
    sp = sin_integral()
    assert [sp.cardinality_at(n) for n in range(1, 8)] == [
        Fraction(1),
        0,
        Fraction(-1, 3),
        0,
        Fraction(1, 5),
        0,
        Fraction(-1, 7),
    ]


def test_xy():
    sp = make("XY")
    assert sp.cardinality_at((1, 1)) == 1
    assert sp.cardinality_at((1, 2)) == 0
    assert sp.cardinality_at((0, 0)) == 0


def test_inc_fact_series_identity():
    # 1/(n (n+1) ... (n+N-1)) arises from the Z series by integrating N-1
    # times and dividing by x^{N-1}
    order = 10
    tail = exp_series(order + 4) - one_series(order + 4)
    z = tail.monomial_div(1).integrate()
    for length in range(1, 5):
        route = z.integrate(times=length - 1).monomial_div(length - 1)
        assert egf_of(inc_fact(length), order) == route.truncate(order)


def test_dec_fact_series_identity():
    # 1/(n (n-1) ... (n-N+1)) arises from the exp tail above degree N
    order = 10
    for length in range(1, 5):
        tail = exp_series(order) - exp_series(order).keep_below(length)
        route = tail.monomial_div(length).integrate(times=length)
        assert egf_of(dec_fact(length), order) == route


def test_inc_dec_validation():
    with pytest.raises(DomainError):
        inc_fact(0)
    with pytest.raises(DomainError):
        dec_fact(0)


def test_make_validation():
    with pytest.raises(DomainError):
        make("Nope")
    with pytest.raises(DomainError):
        make("Exp", (1,))
    with pytest.raises(DomainError):
        make("Zpow")
    with pytest.raises(DomainError):
        make("Zpow", ("2",))


def test_builtin_names_all_instantiable():
    names = builtin_names()
    assert "Exp" in names and "XY" in names
    for name in names:
        arity = 1 if name in {"Spow", "Zpow", "E", "Group", "GroupBar",
                              "RisingZ", "IncFact", "DecFact", "PSym", "PCyc"} else 0
        sp = make(name, (2,) * arity)
        assert sp.sorts in (1, 2)


def test_default_catalog_entries_work():
    entries = default_catalog()
    assert len(entries) >= 10
    for name, params in entries:
        sp = make(name, params)
        assert sp.sorts == 1
        sp.cardinality_at(3)

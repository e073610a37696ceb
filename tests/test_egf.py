import math
from fractions import Fraction

import pytest

from qspecies.egf import (
    Polynomial,
    TruncatedEGF,
    binomial_series,
    cosh_series,
    diagonal_series,
    exp_series,
    one_series,
    promote_series,
    scaled_exp_series,
    sin_series,
    sinh_series,
    size_keys,
    x_series,
)
from qspecies.numeric import DomainError


def bell_numbers(count):
    row = [1]
    bells = [1]
    for _ in range(count):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        bells.append(row[0])
    return bells


def test_size_keys_order():
    assert list(size_keys(1, 3)) == [(0,), (1,), (2,), (3,)]
    assert list(size_keys(2, 2)) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    with pytest.raises(DomainError):
        list(size_keys(3, 1))


def test_construction_strips_zeros_and_overflow():
    f = TruncatedEGF(1, 3, {(0,): 0, (1,): 2, (5,): 9})
    assert f.coefficient(0) == 0
    assert f.coefficient(1) == 2
    with pytest.raises(DomainError):
        f.coefficient(5)
    with pytest.raises(DomainError):
        TruncatedEGF(1, 3, {(-1,): 1})
    with pytest.raises(DomainError):
        TruncatedEGF(3, 3)


def test_items_are_dense():
    f = TruncatedEGF(1, 2, {(1,): 5})
    assert f.items() == [((0,), 0), ((1,), 5), ((2,), 0)]


def test_truncate():
    f = exp_series(6)
    g = f.truncate(3)
    assert g.order == 3
    assert g == exp_series(3)
    with pytest.raises(DomainError):
        g.truncate(5)


def test_add_sub_scalar():
    f = exp_series(4)
    assert (f - f) == TruncatedEGF(1, 4)
    assert (f + f) == f.scalar_mul(2)
    assert f.scalar_mul(Fraction(1, 2)).coefficient(3) == Fraction(1, 2)


def test_mixed_variable_counts_rejected():
    with pytest.raises(DomainError):
        exp_series(4).add(exp_series(4, nvars=2))
    with pytest.raises(DomainError):
        exp_series(4).mul(3)


def test_mul_is_binomial_convolution():
    # exp * exp = exp(2x): coefficient 2^n
    sq = exp_series(6) * exp_series(6)
    for n in range(7):
        assert sq.coefficient(n) == 2 ** n
    # x * x = x^2 with EGF coefficient 2
    assert (x_series(4) * x_series(4)).coefficient(2) == 2
    # cosh^2 - sinh^2 = 1
    c, s = cosh_series(8), sinh_series(8)
    assert c * c - s * s == one_series(8)


def test_mul_min_order():
    assert (exp_series(6) * exp_series(3)).order == 3


def test_compose_bell_numbers():
    # exp(exp(x) - 1) counts set partitions
    e = exp_series(8)
    inner = e - one_series(8)
    f = e.compose(inner)
    assert [f.coefficient(n) for n in range(9)] == bell_numbers(8)


def test_compose_validation():
    with pytest.raises(DomainError):
        exp_series(4).compose(exp_series(4))  # nonzero constant term
    with pytest.raises(DomainError):
        exp_series(4).compose(x_series(4), x_series(4))


def test_compose_two_variables():
    # evaluate f(x, y) = e^{x+y} at (x, 0): promote then compose
    f = exp_series(6, nvars=2)
    g = f.compose(x_series(6), TruncatedEGF(1, 6))
    assert g == exp_series(6)


def test_reciprocal():
    f = exp_series(10)
    inv = f.reciprocal()
    assert f * inv == one_series(10)
    # 1/e^x = e^{-x}: coefficient (-1)^n
    for n in range(11):
        assert inv.coefficient(n) == (-1) ** n
    with pytest.raises(DomainError):
        x_series(4).reciprocal()


def test_divide():
    f = exp_series(8)
    g = cosh_series(8)
    assert f.divide(g) * g == f


def test_derivative_and_integrate():
    f = sinh_series(9)
    assert f.derivative() == cosh_series(8)
    g = cosh_series(8).integrate()
    assert g.order == 9
    assert g == sinh_series(9)
    # iterated integral raises order by times
    h = one_series(2).integrate(times=3)
    assert h.order == 5
    assert h.coefficient(3) == 1
    with pytest.raises(DomainError):
        TruncatedEGF(1, 0).derivative()


def test_derivative_second_variable():
    f = exp_series(5, nvars=2)
    d = f.derivative(i=2)
    assert d.order == 4
    assert d.coefficient((2, 1)) == 1


def test_keep_below():
    f = exp_series(6)
    g = f.keep_below(3)
    assert g.coefficient(2) == 1
    assert g.coefficient(3) == 0
    assert g.order == 6
    assert f.keep_below(0) == TruncatedEGF(1, 6)


def test_hadamard():
    f = TruncatedEGF(1, 4, {(n,): n + 1 for n in range(5)})
    g = TruncatedEGF(1, 4, {(n,): 2 for n in range(5)})
    h = f.hadamard(g)
    assert [h.coefficient(n) for n in range(5)] == [2, 4, 6, 8, 10]


def test_monomial_div():
    # (e^x - 1) / x has EGF coefficient 1/(n+1)
    tail = exp_series(8) - one_series(8)
    q = tail.monomial_div(1)
    assert q.order == 7
    for n in range(8):
        assert q.coefficient(n) == Fraction(1, n + 1)
    with pytest.raises(DomainError):
        exp_series(8).monomial_div(1)
    with pytest.raises(DomainError):
        tail.monomial_div(-1)
    with pytest.raises(DomainError):
        tail.monomial_div(9)


def test_monomial_div_after_integrate():
    f = exp_series(6)
    shifted = f.integrate(times=2)
    # x^{-2} after a double integral rescales coefficient n by n!/(n+2)!
    back = shifted.monomial_div(2)
    assert back.order == 6
    for n in range(7):
        assert back.coefficient(n) == f.coefficient(n) * Fraction(
            math.factorial(n), math.factorial(n + 2)
        )
    # the derivative round trip, by contrast, is exact
    assert shifted.derivative().derivative() == f


def test_sin_series_signs():
    f = sin_series(9)
    assert [f.coefficient(n) for n in range(10)] == [0, 1, 0, -1, 0, 1, 0, -1, 0, 1]


def test_scaled_exp():
    f = scaled_exp_series(2, 5)
    assert f.coefficient(3) == Fraction(1, 8)
    with pytest.raises(DomainError):
        scaled_exp_series(0, 5)


def test_binomial_series_values():
    # (1+x)^{-1}: EGF coefficient (-1)^n n!
    f = binomial_series(1, 1, 6)
    for n in range(7):
        assert f.coefficient(n) == (-1) ** n * math.factorial(n)
    # (1+x)^{-1/2} starts 1 - x/2 + 3x^2/8 ... ; EGF coefficients multiply by n!
    g = binomial_series(1, 2, 4)
    assert g.coefficient(0) == 1
    assert g.coefficient(1) == Fraction(-1, 2)
    assert g.coefficient(2) == Fraction(3, 4)
    # positive sign gives (1+x)^{1/2} = 1 + x/2 - x^2/8 + x^3/16 - ...
    h = binomial_series(1, 2, 3, sign=1)
    assert h.coefficient(1) == Fraction(1, 2)
    assert h.coefficient(2) == Fraction(-1, 4)
    assert h.coefficient(3) == Fraction(3, 8)
    with pytest.raises(DomainError):
        binomial_series(0, 2, 4)
    with pytest.raises(DomainError):
        binomial_series(1, 2, 4, sign=0)


def test_binomial_series_multiplicative_check():
    # (1+x)^{-1/2} squared equals (1+x)^{-1}
    g = binomial_series(1, 2, 8)
    assert g * g == binomial_series(1, 1, 8)


def test_diagonal_series():
    f = exp_series(4)
    d = diagonal_series(f)
    assert d.nvars == 2
    assert d.order == 8
    assert d.coefficient((3, 3)) == math.factorial(3)
    assert d.coefficient((2, 3)) == 0
    with pytest.raises(DomainError):
        diagonal_series(exp_series(4, nvars=2))


def test_promote_series():
    f = exp_series(4)
    p1 = promote_series(f, 1)
    p2 = promote_series(f, 2)
    assert p1.coefficient((3, 0)) == 1
    assert p1.coefficient((0, 3)) == 0
    assert p2.coefficient((0, 3)) == 1
    with pytest.raises(DomainError):
        promote_series(f, 3)


def test_extract_polynomials():
    # 2-var table c_(a,n) = [a == n] * n! is f(xy) for f = exp; row n is x^n
    d = diagonal_series(exp_series(3))
    rows = d.extract_polynomials()
    assert rows[0] == Polynomial([1])
    assert rows[2] == Polynomial.monomial(2)
    with pytest.raises(DomainError):
        exp_series(3).extract_polynomials()


def test_json_round_trip():
    f = TruncatedEGF(2, 3, {(0, 0): Fraction(1, 3), (1, 2): -2})
    assert f.to_json()["coefficients"][0] == ["0,0", "1/3"]


def test_polynomial_basics():
    p = Polynomial([Fraction(1, 6), -1, 1])  # x^2 - x + 1/6
    assert p.degree == 2
    assert p(0) == Fraction(1, 6)
    assert p(1) == Fraction(1, 6)
    assert p(Fraction(1, 2)) == Fraction(-1, 12)
    assert p.coefficient(5) == 0
    assert Polynomial([0, 0]).degree == -1
    assert p.to_strings() == ["1/6", "-1/1", "1/1"]


def test_polynomial_arithmetic():
    p = Polynomial([1, 2, 3])
    q = Polynomial([0, 0, -3])
    assert (p + q) == Polynomial([1, 2])
    assert (p - p) == Polynomial([])
    assert p.scale(2) == Polynomial([2, 4, 6])
    assert p.derivative() == Polynomial([2, 6])


def test_polynomial_shift():
    p = Polynomial([0, 0, 1])  # x^2
    assert p.shift(1) == Polynomial([1, 2, 1])  # (x+1)^2
    # shift obeys p.shift(h)(x) == p(x + h)
    q = Polynomial([Fraction(1, 2), -3, 0, 5])
    for h in (1, -2, Fraction(1, 3)):
        for x in (0, 1, Fraction(-2, 7)):
            assert q.shift(h)(x) == q(x + h)


def test_polynomial_monomial_validation():
    with pytest.raises(DomainError):
        Polynomial.monomial(-1)

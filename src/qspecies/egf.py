"""Truncated exponential generating series over exact rationals.

A series in one or two variables is stored by its EGF coefficients c_a with
f = sum c_a x^a / a!, kept in a zero-stripped dict keyed by exponent tuples of
total degree <= order.  Every operation tracks the largest order to which the
result is exact.  The Polynomial helper carries the rows extracted from
two-variable tables.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from fractions import Fraction
from typing import Iterable, Iterator

from .numeric import DomainError, binom_product, charge, format_rational, fraction_units

__all__ = [
    "TruncatedEGF",
    "Polynomial",
    "size_keys",
    "one_series",
    "x_series",
    "exp_series",
    "scaled_exp_series",
    "sinh_series",
    "cosh_series",
    "sin_series",
    "binomial_series",
    "diagonal_series",
    "promote_series",
]

def size_keys(nvars: int, order: int) -> Iterator[tuple[int, ...]]:
    """All exponent tuples of total degree <= order, by degree then lexicographic."""
    if nvars == 1:
        for n in range(order + 1):
            yield (n,)
    elif nvars == 2:
        for d in range(order + 1):
            for a in range(d + 1):
                yield (a, d - a)
    else:
        raise DomainError("series support 1 or 2 variables")


def _bits(value: Fraction) -> int:
    return value.numerator.bit_length() + value.denominator.bit_length()


class TruncatedEGF:
    __slots__ = ("nvars", "order", "_coeffs")

    def __init__(self, nvars: int, order: int, coeffs: Mapping | Iterable = ()):
        if nvars not in (1, 2):
            raise DomainError("series support 1 or 2 variables")
        if order < 0:
            raise DomainError("series order must be >= 0")
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        store: dict[tuple[int, ...], Fraction] = {}
        for key, value in items:
            key = (key,) if isinstance(key, int) else tuple(key)
            if len(key) != nvars or any(k < 0 for k in key):
                raise DomainError("bad exponent %r for %d variable(s)" % (key, nvars))
            if sum(key) > order:
                continue
            value = Fraction(value)
            if value:
                store[key] = value
        self.nvars = nvars
        self.order = order
        self._coeffs = store

    def coefficient(self, key) -> Fraction:
        key = (key,) if isinstance(key, int) else tuple(key)
        if len(key) != self.nvars or any(k < 0 for k in key):
            raise DomainError("bad exponent %r" % (key,))
        if sum(key) > self.order:
            raise DomainError("exponent %r beyond truncation order %d" % (key, self.order))
        return self._coeffs.get(key, Fraction(0))

    def items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Every (exponent, coefficient) with total degree <= order, zeros included."""
        return [(key, self._coeffs.get(key, Fraction(0))) for key in size_keys(self.nvars, self.order)]

    def truncate(self, order: int) -> "TruncatedEGF":
        if order > self.order:
            raise DomainError("cannot extend a truncated series (order %d > %d)" % (order, self.order))
        return TruncatedEGF(self.nvars, order, self._coeffs)

    def _binop_order(self, other: "TruncatedEGF", op: str) -> int:
        if not isinstance(other, TruncatedEGF):
            raise DomainError("%s expects another series" % op)
        if self.nvars != other.nvars:
            raise DomainError("%s: variable counts differ" % op)
        return min(self.order, other.order)

    def add(self, other: "TruncatedEGF") -> "TruncatedEGF":
        order = self._binop_order(other, "add")
        out = dict(self._coeffs)
        for key, value in other._coeffs.items():
            out[key] = out.get(key, Fraction(0)) + value
        return TruncatedEGF(self.nvars, order, out)

    __add__ = add

    def sub(self, other: "TruncatedEGF") -> "TruncatedEGF":
        order = self._binop_order(other, "sub")
        out = dict(self._coeffs)
        for key, value in other._coeffs.items():
            out[key] = out.get(key, Fraction(0)) - value
        return TruncatedEGF(self.nvars, order, out)

    __sub__ = sub

    def scalar_mul(self, r) -> "TruncatedEGF":
        r = Fraction(r)
        return TruncatedEGF(
            self.nvars, self.order, {k: r * v for k, v in self._coeffs.items()}
        )

    def mul(self, other: "TruncatedEGF") -> "TruncatedEGF":
        """Binomial convolution: the EGF of the product."""
        order = self._binop_order(other, "mul")
        # a multiply-add, two Fraction operations, per pair
        charge(2 * len(self._coeffs) * len(other._coeffs) * fraction_units(0), "series product", order)
        out: dict[tuple[int, ...], Fraction] = {}
        for k1, c1 in self._coeffs.items():
            if sum(k1) > order:
                continue
            for k2, c2 in other._coeffs.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                if sum(key) > order:
                    continue
                out[key] = out.get(key, Fraction(0)) + c1 * c2 * binom_product(key, k1)
        return TruncatedEGF(self.nvars, order, out)

    __mul__ = mul

    def compose(self, *inner: "TruncatedEGF") -> "TruncatedEGF":
        """Substitute one inner series per variable; each needs zero constant term."""
        if len(inner) != self.nvars:
            raise DomainError("compose expects %d inner series, got %d" % (self.nvars, len(inner)))
        t = inner[0].nvars
        order = self.order
        for g in inner:
            if g.nvars != t:
                raise DomainError("inner series must share a variable count")
            if g.coefficient((0,) * t) != 0:
                raise DomainError("composition requires zero constant term")
            order = min(order, g.order)
        zero = (0,) * t
        # powers g_i^j have lowest degree >= j, so exponents beyond the order drop out
        pows: list[list[TruncatedEGF]] = []
        for g in inner:
            row = [one_series(order, t)]
            for _ in range(order):
                row.append(row[-1].mul(g))
            pows.append(row)
        acc: dict[tuple[int, ...], Fraction] = {}
        for key, c in self._coeffs.items():
            if sum(key) > order:
                continue
            term = pows[0][key[0]]
            for i in range(1, self.nvars):
                term = term.mul(pows[i][key[i]])
            scale = c
            for k in key:
                scale /= math.factorial(k)
            charge(2 * len(term._coeffs) * fraction_units(0), "series composition", order)
            for tk, tv in term._coeffs.items():
                acc[tk] = acc.get(tk, Fraction(0)) + scale * tv
        return TruncatedEGF(t, order, acc)

    def reciprocal(self) -> "TruncatedEGF":
        """Multiplicative inverse; requires a nonzero constant term."""
        zero = (0,) * self.nvars
        c0 = self._coeffs.get(zero, Fraction(0))
        if c0 == 0:
            raise DomainError("reciprocal requires a nonzero constant term")
        inv0 = 1 / c0
        out: dict[tuple[int, ...], Fraction] = {zero: inv0}
        # charged by row, as sizes below become known; keys come by degree
        bits = out_bits = _bits(inv0)
        for key in size_keys(self.nvars, self.order):
            if key == zero:
                continue
            bits = max(bits, _bits(self._coeffs.get(key, inv0)))
            units = 2 * (math.prod(k + 1 for k in key) - 1) * fraction_units(bits + out_bits + sum(key))
            charge(units, "series reciprocal", sum(key))
            # visit only the terms below the row, which its charge counts
            total = Fraction(0)
            for k in itertools.product(*(range(b + 1) for b in key)):
                c = self._coeffs.get(k)
                if not c or k == zero:
                    continue
                r = out.get(tuple(b - a for a, b in zip(k, key)))
                if r:
                    total += binom_product(key, k) * c * r
            if total:
                out[key] = -inv0 * total
                out_bits = max(out_bits, _bits(out[key]))
        return TruncatedEGF(self.nvars, self.order, out)

    def divide(self, den: "TruncatedEGF") -> "TruncatedEGF":
        return self.mul(den.reciprocal())

    def derivative(self, i: int = 1) -> "TruncatedEGF":
        """EGF derivative in variable i: an index shift down."""
        if not 1 <= i <= self.nvars:
            raise DomainError("derivative: variable index %d out of range" % i)
        if self.order == 0:
            raise DomainError("derivative of an order-0 series is unknown")
        out = {}
        for key, c in self._coeffs.items():
            if key[i - 1] >= 1:
                shifted = key[: i - 1] + (key[i - 1] - 1,) + key[i:]
                out[shifted] = c
        return TruncatedEGF(self.nvars, self.order - 1, out)

    def integrate(self, times: int = 1, i: int = 1) -> "TruncatedEGF":
        """Iterated integral from 0 in variable i: an index shift up."""
        if not 1 <= i <= self.nvars:
            raise DomainError("integrate: variable index %d out of range" % i)
        if times < 0:
            raise DomainError("integrate needs times >= 0")
        out = {}
        for key, c in self._coeffs.items():
            shifted = key[: i - 1] + (key[i - 1] + times,) + key[i:]
            out[shifted] = c
        return TruncatedEGF(self.nvars, self.order + times, out)

    def keep_below(self, bound: int) -> "TruncatedEGF":
        """Keep terms of total degree < bound, zeroing the rest."""
        if bound < 0:
            raise DomainError("keep_below needs bound >= 0")
        out = {k: v for k, v in self._coeffs.items() if sum(k) < bound}
        return TruncatedEGF(self.nvars, self.order, out)

    def hadamard(self, other: "TruncatedEGF") -> "TruncatedEGF":
        order = self._binop_order(other, "hadamard")
        out = {}
        for key, c in self._coeffs.items():
            d = other._coeffs.get(key)
            if d:
                out[key] = c * d
        return TruncatedEGF(self.nvars, order, out)

    def monomial_div(self, power: int, i: int = 1) -> "TruncatedEGF":
        """Divide by x_i**power as an ordinary series; low terms must vanish.

        In EGF coordinates the quotient's coefficient picks up the factor
        a_i! / (a_i + power)!.
        """
        if power < 0:
            raise DomainError("monomial division needs power >= 0")
        if not 1 <= i <= self.nvars:
            raise DomainError("monomial division: variable index %d out of range" % i)
        if self.order < power:
            raise DomainError("monomial division by x^%d exceeds order %d" % (power, self.order))
        out = {}
        for key, c in self._coeffs.items():
            if key[i - 1] < power:
                raise DomainError(
                    "monomial division: nonzero coefficient at %r below x^%d" % (key, power)
                )
            a = key[i - 1] - power
            shifted = key[: i - 1] + (a,) + key[i:]
            out[shifted] = c / math.perm(a + power, power)
        return TruncatedEGF(self.nvars, self.order - power, out)

    def extract_polynomials(self) -> "list[Polynomial]":
        """Row polynomials of a two-variable table.

        Row n is sum_a c_(a,n) x^a / a!, one row per 0 <= n <= order.
        """
        if self.nvars != 2:
            raise DomainError("polynomial extraction needs a two-variable series")
        rows: list[list[Fraction]] = [[] for _ in range(self.order + 1)]
        for n in range(self.order + 1):
            rows[n] = [Fraction(0)] * (self.order - n + 1)
        for (a, n), c in self._coeffs.items():
            rows[n][a] = c / math.factorial(a)
        return [Polynomial(row) for row in rows]

    def to_pairs(self) -> list[list[str]]:
        """Dense ordered listing [["a1[,a2]", "p/q"], ...] up to the order."""
        out = []
        for key, value in self.items():
            out.append([",".join(str(k) for k in key), format_rational(value)])
        return out

    def to_json(self) -> dict:
        return {"vars": self.nvars, "order": self.order, "coefficients": self.to_pairs()}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedEGF)
            and self.nvars == other.nvars
            and self.order == other.order
            and self._coeffs == other._coeffs
        )

    def __repr__(self) -> str:
        head = ", ".join(
            "%s: %s" % (k, v) for k, v in sorted(self._coeffs.items())[:4]
        )
        return "TruncatedEGF(vars=%d, order=%d, {%s%s})" % (
            self.nvars,
            self.order,
            head,
            ", ..." if len(self._coeffs) > 4 else "",
        )


def one_series(order: int, nvars: int = 1) -> TruncatedEGF:
    return TruncatedEGF(nvars, order, {(0,) * nvars: 1})


def x_series(order: int, i: int = 1, nvars: int = 1) -> TruncatedEGF:
    if not 1 <= i <= nvars:
        raise DomainError("variable index %d out of range" % i)
    key = tuple(1 if j == i - 1 else 0 for j in range(nvars))
    return TruncatedEGF(nvars, order, {key: 1})


def exp_series(order: int, nvars: int = 1) -> TruncatedEGF:
    """exp of the sum of the variables: every EGF coefficient is 1."""
    charge(fraction_units(0) * math.comb(order + nvars, nvars), "exp series", order)
    return TruncatedEGF(nvars, order, {key: 1 for key in size_keys(nvars, order)})


def scaled_exp_series(base: int, order: int) -> TruncatedEGF:
    """exp(x / base): coefficient 1/base**n."""
    if base < 1:
        raise DomainError("scaled exponential needs base >= 1")
    return TruncatedEGF(1, order, {(n,): Fraction(1, base ** n) for n in range(order + 1)})


def sinh_series(order: int) -> TruncatedEGF:
    return TruncatedEGF(1, order, {(n,): 1 for n in range(1, order + 1, 2)})


def cosh_series(order: int) -> TruncatedEGF:
    return TruncatedEGF(1, order, {(n,): 1 for n in range(0, order + 1, 2)})


def sin_series(order: int) -> TruncatedEGF:
    return TruncatedEGF(
        1, order, {(n,): (-1) ** (n // 2) for n in range(1, order + 1, 2)}
    )


def binomial_series(a: int, b: int, order: int, sign: int = -1) -> TruncatedEGF:
    """(1 + x) ** (sign * a / b) with EGF coefficients the falling factorials."""
    if a < 1 or b < 1:
        raise DomainError("binomial series needs positive a and b")
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    q = Fraction(sign * a, b)
    coeffs = {}
    value = Fraction(1)
    for n in range(order + 1):
        coeffs[(n,)] = value
        value = value * (q - n)
    return TruncatedEGF(1, order, coeffs)


def diagonal_series(f: TruncatedEGF) -> TruncatedEGF:
    """f(x*y) as a two-variable series: c_(n,n) = f_n * n!, zero off the diagonal.

    Exact to total degree 2 * f.order since every off-diagonal entry vanishes.
    n! is kept as a running product, and each term is charged before it is
    built.
    """
    if f.nvars != 1:
        raise DomainError("diagonal substitution needs a one-variable series")
    out = {}
    fact = 1
    for n in range(f.order + 1):
        charge(fraction_units(n * n.bit_length()), "diagonal series", n)
        fact *= n or 1
        c = f._coeffs.get((n,))
        if c:
            out[(n, n)] = c * fact
    return TruncatedEGF(2, 2 * f.order, out)


def promote_series(f: TruncatedEGF, i: int) -> TruncatedEGF:
    """View a one-variable series as a two-variable one in coordinate i."""
    if f.nvars != 1:
        raise DomainError("promotion needs a one-variable series")
    if i not in (1, 2):
        raise DomainError("promotion coordinate must be 1 or 2")
    out = {}
    for (n,), c in f._coeffs.items():
        out[(n, 0) if i == 1 else (0, n)] = c
    return TruncatedEGF(2, f.order, out)


class Polynomial:
    """Dense univariate polynomial over Fraction, constant term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        values = [Fraction(c) for c in coeffs]
        while values and values[-1] == 0:
            values.pop()
        self.coeffs = tuple(values)

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "Polynomial":
        if power < 0:
            raise DomainError("monomial power must be >= 0")
        return cls([0] * power + [coeff])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, power: int) -> Fraction:
        if power < 0:
            raise DomainError("coefficient power must be >= 0")
        return self.coeffs[power] if power < len(self.coeffs) else Fraction(0)

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def add(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    __add__ = add

    def sub(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [self.coefficient(i) - other.coefficient(i) for i in range(n)]
        )

    __sub__ = sub

    def scale(self, r) -> "Polynomial":
        r = Fraction(r)
        return Polynomial([r * c for c in self.coeffs])

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def shift(self, h) -> "Polynomial":
        """The polynomial x -> self(x + h)."""
        h = Fraction(h)
        out = [Fraction(0)] * len(self.coeffs)
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            hpow = Fraction(1)
            for k in range(n, -1, -1):
                out[k] += c * math.comb(n, k) * hpow
                hpow *= h
        return Polynomial(out)

    def to_strings(self) -> list[str]:
        return [format_rational(c) for c in self.coeffs]

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Polynomial(0)"
        return "Polynomial[%s]" % ", ".join(str(c) for c in self.coeffs)

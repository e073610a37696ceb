"""Exact rational arithmetic, small combinatorial enumerators, and the work meter.

Rational values are plain `fractions.Fraction` objects, so everything in the
package is exact: normalized, positive denominator, no floats anywhere.

Each command runs in a work meter that kernels charge before they work, in
units of one word-sized multiply-add weighted by operand size, so an input
trips the budget at the same point on every machine.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from typing import Iterator, Sequence

__all__ = [
    "DomainError",
    "EnumerationLimitError",
    "WORK_BUDGET",
    "work_meter",
    "charge",
    "format_rational",
    "multinomial",
    "binom_product",
    "rising_factorial",
    "falling_factorial",
    "enumerate_set_partitions",
]

# the work one command may spend, in units
WORK_BUDGET = 2_200_000

# operand bits per unit of weight, and units per operation on small Fractions
_WORD_BITS = 256
_FRACTION_UNITS = 10


class DomainError(ValueError):
    """An operation was applied outside its domain."""


class EnumerationLimitError(RuntimeError):
    """A charge of `needed` units at a node (species or kernel) of the given
    size would take the work `spent` past WORK_BUDGET."""

    def __init__(self, node: str, size, spent: int, needed: int):
        super().__init__(node, size, spent, needed)
        self.node, self.size, self.spent, self.needed = node, size, spent, needed

    def __str__(self) -> str:
        where = self.node if self.size is None else "%s at size %s" % (self.node, self.size)
        needed = _decimal(self.needed)
        if len(needed) > 18:  # past any budget: its magnitude is enough
            needed = "over 10^%d" % (len(needed) - 1)
        return "%s needs %s more work units with %d of the %d-unit budget spent" % (
            where, needed, self.spent, WORK_BUDGET
        )


# the work spent in the innermost open meter of this thread or task
_meter: ContextVar[list[int] | None] = ContextVar("work_meter", default=None)


@contextmanager
def work_meter() -> Iterator[None]:
    """Meter the work done inside the block against WORK_BUDGET, from zero."""
    token = _meter.set([0])
    try:
        yield
    finally:
        _meter.reset(token)


def charge(units: int, node: str, size) -> None:
    """Charge work before doing it; free outside a meter.  A charge that
    does not fit raises EnumerationLimitError and is not spent."""
    spent = _meter.get()
    if spent is not None:
        if spent[0] + units > WORK_BUDGET:
            raise EnumerationLimitError(node, size, spent[0], units)
        spent[0] += units


def weight(bits: int) -> int:
    """Units per multiply-add for each factor of `bits` bits; building an
    integer of `bits` bits costs weight(bits) ** 2, its last product."""
    return 1 + bits // _WORD_BITS


def fraction_units(bits: int) -> int:
    """Units of one Fraction operation on operands of `bits` bits in all:
    its gcd grows with the square of the size."""
    return _FRACTION_UNITS * weight(bits) ** 2


def format_rational(value: Fraction | int) -> str:
    """Serialize as "p/q" in lowest terms with q > 0; zero is "0/1"."""
    value = Fraction(value)
    return "%s/%s" % (_decimal(value.numerator), _decimal(value.denominator))


def _decimal(n: int) -> str:
    """Decimal digits of n of any length: str() refuses integers past the
    interpreter's digit limit, so long ones are split at a power of ten."""
    if n < 0:
        return "-" + _decimal(-n)
    if n.bit_length() < 2_000:  # 603 digits at most: under any limit (>= 640)
        return str(n)
    half = n.bit_length() * 3 // 20  # about half the digits
    high, low = divmod(n, 10 ** half)
    return _decimal(high) + _decimal(low).zfill(half)


def multinomial(n: int, parts: Sequence[int]) -> int:
    """n! / (parts[0]! * ... * parts[-1]!) for nonnegative parts summing to n."""
    if n < 0 or any(p < 0 for p in parts):
        raise DomainError("multinomial arguments must be nonnegative")
    if sum(parts) != n:
        raise DomainError("multinomial parts sum to %d, expected %d" % (sum(parts), n))
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out


def binom_product(upper: Sequence[int], lower: Sequence[int]) -> int:
    """Product of componentwise binomial coefficients."""
    out = 1
    for n, k in zip(upper, lower):
        out *= math.comb(n, k)
    return out


def rising_factorial(base, count: int):
    """base * (base+1) * ... * (base+count-1); 1 for count == 0."""
    if count < 0:
        raise DomainError("rising factorial needs count >= 0")
    out = base ** 0
    for i in range(count):
        out = out * (base + i)
    return out


def falling_factorial(base, count: int):
    """base * (base-1) * ... * (base-count+1); 1 for count == 0."""
    if count < 0:
        raise DomainError("falling factorial needs count >= 0")
    out = base ** 0
    for i in range(count):
        out = out * (base - i)
    return out


def enumerate_set_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of {1..n} into nonempty blocks, Bell(n) in total.

    Blocks are ascending tuples ordered by least element.  Order is
    depth-first by assigning each element to the earliest existing block
    first, then to a fresh block; n=0 yields the single empty partition.
    Each partition is charged n units before it is yielded.
    """
    if n < 0:
        raise DomainError("set partitions need n >= 0")
    return _set_partitions(n)


def _set_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    blocks: list[list[int]] = []

    def rec(i: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i > n:
            charge(n, "set partitions", n)
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    return rec(1)

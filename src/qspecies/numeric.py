"""Exact rational arithmetic and small combinatorial enumerators.

Rational values are plain `fractions.Fraction` objects, so everything in the
package is exact: normalized, positive denominator, no floats anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

__all__ = [
    "DomainError",
    "EnumerationLimitError",
    "COMPOSITION_CAP",
    "PARTITION_CAP",
    "format_rational",
    "multinomial",
    "binom_product",
    "rising_factorial",
    "falling_factorial",
    "enumerate_compositions",
    "enumerate_set_partitions",
]

# enumeration caps; exceeding one raises EnumerationLimitError
COMPOSITION_CAP = 25
PARTITION_CAP = 10


class DomainError(ValueError):
    """An operation was applied outside its domain."""


class EnumerationLimitError(RuntimeError):
    """A computation would exceed a configured enumeration cap."""


def format_rational(value: Fraction | int) -> str:
    """Serialize as "p/q" in lowest terms with q > 0; zero is "0/1"."""
    value = Fraction(value)
    return "%d/%d" % (value.numerator, value.denominator)


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


def enumerate_compositions(n: int, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of positive integers summing to n.

    Deterministic order: first part descending, then recursively on the rest,
    e.g. n=3 gives (3), (2,1), (1,2), (1,1,1).  There are 2**(n-1) of them.
    """
    limit = COMPOSITION_CAP if cap is None else cap
    if n < 1:
        raise DomainError("compositions need n >= 1")
    if n > limit:
        raise EnumerationLimitError("compositions: n=%d exceeds cap %d" % (n, limit))
    return _compositions(n)


def _compositions(n: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def enumerate_set_partitions(
    n: int, cap: int | None = None
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of {1..n} into nonempty blocks, Bell(n) in total.

    Blocks are ascending tuples ordered by least element.  Order is
    depth-first by assigning each element to the earliest existing block
    first, then to a fresh block; n=0 yields the single empty partition.
    """
    limit = PARTITION_CAP if cap is None else cap
    if n < 0:
        raise DomainError("set partitions need n >= 0")
    if n > limit:
        raise EnumerationLimitError("set partitions: n=%d exceeds cap %d" % (n, limit))
    return _set_partitions(n)


def _set_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    blocks: list[list[int]] = []

    def rec(i: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i > n:
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

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qspecies import numeric
from qspecies.numeric import (
    DomainError,
    EnumerationLimitError,
    binom_product,
    charge,
    enumerate_set_partitions,
    falling_factorial,
    format_rational,
    multinomial,
    rising_factorial,
    work_meter,
)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


def bell_numbers(count):
    # Bell triangle: each row starts with the previous row's last entry
    row = [1]
    bells = [1]
    for _ in range(count):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        bells.append(row[0])
    return bells


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if a != 0:
        assert a * (1 / a) == 1


@given(rationals)
def test_format_parse_round_trip(a):
    text = format_rational(a)
    assert "/" in text
    assert Fraction(text) == a


def test_format_zero_and_negatives():
    assert format_rational(Fraction(0)) == "0/1"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(7) == "7/1"


def test_format_long_rationals():
    # past the interpreter's 4300-digit limit on str(int); the digits are
    # known without converting the whole number
    assert format_rational(Fraction(1, 10 ** 5000)) == "1/1" + "0" * 5000
    assert format_rational(-(10 ** 9000 - 1)) == "-" + "9" * 9000 + "/1"
    assert format_rational(Fraction(3 ** 2000 * 10 ** 6000, 7)) == str(3 ** 2000) + "0" * 6000 + "/7"


def test_multinomial_matches_factorials():
    assert multinomial(5, (2, 2, 1)) == 30
    assert multinomial(0, ()) == 1
    assert multinomial(6, (6,)) == 1
    for parts in [(1, 1, 1), (3, 0, 0), (2, 1, 0)]:
        n = sum(parts)
        denom = 1
        for p in parts:
            denom *= math.factorial(p)
        assert multinomial(n, parts) == math.factorial(n) // denom


def test_multinomial_validation():
    with pytest.raises(DomainError):
        multinomial(4, (2, 1))
    with pytest.raises(DomainError):
        multinomial(3, (4, -1))


def test_binom_product():
    assert binom_product((4, 3), (2, 1)) == 18
    assert binom_product((5,), (0,)) == 1


def test_rising_and_falling():
    assert rising_factorial(3, 4) == 3 * 4 * 5 * 6
    assert rising_factorial(Fraction(1, 2), 3) == Fraction(15, 8)
    assert falling_factorial(6, 3) == 120
    assert rising_factorial(5, 0) == 1
    with pytest.raises(DomainError):
        rising_factorial(2, -1)


def test_set_partitions_against_bell_triangle():
    bells = bell_numbers(8)
    for n in range(9):
        parts = list(enumerate_set_partitions(n))
        assert len(parts) == bells[n]
        assert len(set(parts)) == len(parts)
        for partition in parts:
            seen = [i for block in partition for i in block]
            assert sorted(seen) == list(range(1, n + 1))
            # blocks ascend internally and are ordered by least element
            for block in partition:
                assert list(block) == sorted(block)
            assert [b[0] for b in partition] == sorted(b[0] for b in partition)


def test_set_partitions_empty_set():
    assert list(enumerate_set_partitions(0)) == [()]


def test_set_partitions_cap(small_budget):
    # each partition is charged before it is yielded: Bell(9) = 21147
    # partitions of 9 labels need 190323 units, past the 20000 of the test
    with work_meter(), pytest.raises(EnumerationLimitError, match="^set partitions at size 9 needs 9 more"):
        list(enumerate_set_partitions(9))
    with pytest.raises(DomainError):
        list(enumerate_set_partitions(-1))


def test_work_meter(small_budget):
    # outside a meter work is free
    charge(10 ** 9, "free", 1)
    with work_meter():
        charge(15_000, "first", 1)
        with pytest.raises(EnumerationLimitError) as info:
            charge(6_000, "kernel", 7)
        err = info.value
        assert (err.node, err.size, err.spent, err.needed) == ("kernel", 7, 15_000, 6_000)
        assert str(err) == "kernel at size 7 needs 6000 more work units with 15000 of the 20000-unit budget spent"
        # a refused charge is not spent; a nested meter starts from zero
        charge(5_000, "last", 1)
        with work_meter():
            charge(20_000, "inner", 1)
        with pytest.raises(EnumerationLimitError, match="^outer needs 1 more"):
            charge(1, "outer", None)
    assert numeric._meter.get() is None

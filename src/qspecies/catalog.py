"""Built-in species and the name registry used by the expression language.

Each factory documents the groupoid it assigns to a size n; cardinalities
follow from one isomorphism class per component weighing 1/aut_order.
"""

from __future__ import annotations

import math

from .numeric import DomainError, charge, falling_factorial, rising_factorial, weight
from .groupoid import (
    GRADED_EMPTY,
    GRADED_UNIT,
    FiniteGroupoid,
    GradedGroupoid,
    GroupAction,
    group_of_order,
    power_quotient,
)
from .species import Species, constant_species, one_species

__all__ = [
    "x_species",
    "exp_species",
    "sym_pow",
    "cyc_pow",
    "scaled_exp",
    "group_species",
    "rising_base",
    "subsets_species",
    "inc_fact",
    "dec_fact",
    "p_sym",
    "p_cyc",
    "sinh_integral",
    "cosh_integral",
    "sin_integral",
    "xy_species",
    "make",
    "builtin_names",
    "default_catalog",
]


def _one_object(name: str, low: int, bits, order) -> Species:
    """One object with order(n) automorphisms at each size n >= low, empty
    below; bits(n) bounds the size of order(n) and is charged before it is
    built."""

    def rule(sizes):
        n = sizes[0]
        if n < low:
            return GRADED_EMPTY
        charge(weight(bits(n)) ** 2, name, n)
        return GradedGroupoid.positive(FiniteGroupoid([(1, order(n))]))

    return Species(1, rule, name)


def x_species(sort_index: int = 1, sorts: int = 1) -> Species:
    """One structure on a single label of the given sort: the identity series x."""
    if not 1 <= sort_index <= sorts:
        raise DomainError("x: sort index %d out of range" % sort_index)
    target = tuple(1 if i == sort_index - 1 else 0 for i in range(sorts))
    name = "X" if sorts == 1 else "X%d" % sort_index
    return Species(
        sorts,
        lambda sizes: GRADED_UNIT if sizes == target else GRADED_EMPTY,
        name,
    )


def exp_species(sorts: int = 1) -> Species:
    """One rigid structure on every finite set: the exponential series."""
    return Species(sorts, lambda sizes: GRADED_UNIT, "Exp" if sorts == 1 else "Exp2")


def sym_pow(power: int) -> Species:
    """One object with (n!)**power automorphisms at size n."""
    if power < 0:
        raise DomainError("Spow needs power >= 0")
    # log2(n!) <= n * bit_length(n)
    return _one_object(
        "Spow(%d)" % power,
        0,
        lambda n: power * n * n.bit_length(),
        lambda n: math.factorial(n) ** power,
    )


def cyc_pow(power: int) -> Species:
    """One object with n**power automorphisms at size n >= 1, empty at 0."""
    if power < 0:
        raise DomainError("Zpow needs power >= 0")
    return _one_object("Zpow(%d)" % power, 1, lambda n: power * n.bit_length(), lambda n: n ** power)


def scaled_exp(base: int) -> Species:
    """One object with base**n automorphisms at size n: the series exp(x/base)."""
    if base < 1:
        raise DomainError("E needs base >= 1")
    return _one_object("E(%d)" % base, 0, lambda n: n * base.bit_length(), lambda n: base ** n)


def group_species(order: int) -> Species:
    """A finite group as a one-object groupoid at size zero: constant 1/order."""
    return constant_species(group_of_order(order), 1)


def rising_base(base: int) -> Species:
    """One object with base(base+1)...(base+n-1) automorphisms at size n >= 1."""
    if base < 1:
        raise DomainError("RisingZ needs base >= 1")
    return _one_object(
        "RisingZ(%d)" % base,
        1,
        lambda n: n * (base + n).bit_length(),
        lambda n: rising_factorial(base, n),
    )


def subsets_species() -> Species:
    """Subsets of the label set, with bijections between subsets as morphisms.

    Same-size subsets are all isomorphic, so size k forms one component of
    binom(n, k) objects with k! automorphisms; it contributes 1/k! and the
    whole groupoid has cardinality sum(1/k! for k <= n).
    """

    def rule(sizes):
        n = sizes[0]
        charge((n + 1) * weight(n * n.bit_length()) ** 2, "Psubsets", n)
        counts: dict[tuple[int, int], int] = {}
        for k in range(n + 1):
            comp = (math.comb(n, k), math.factorial(k))
            counts[comp] = counts.get(comp, 0) + 1
        return GradedGroupoid.positive(FiniteGroupoid.from_counts(counts))

    return Species(1, rule, "Psubsets")


def inc_fact(length: int) -> Species:
    """One object with rising factorial n(n+1)...(n+length-1) automorphisms, n >= 1."""
    if length < 1:
        raise DomainError("IncFact needs length >= 1")
    return _one_object(
        "IncFact(%d)" % length,
        1,
        lambda n: length * (n + length).bit_length(),
        lambda n: rising_factorial(n, length),
    )


def dec_fact(length: int) -> Species:
    """One object with falling factorial n(n-1)...(n-length+1) automorphisms, n >= length."""
    if length < 1:
        raise DomainError("DecFact needs length >= 1")
    return _one_object(
        "DecFact(%d)" % length,
        length,
        lambda n: length * n.bit_length(),
        lambda n: falling_factorial(n, length),
    )


def _power_species(name: str, k: int, action: GroupAction) -> Species:
    """Quotient of k-tuples of labels by a group of degree k permuting the
    coordinates."""

    def rule(sizes):
        n = sizes[0]
        if n == 0:
            return GRADED_EMPTY
        return GradedGroupoid.positive(power_quotient(n, k, action))

    return Species(1, rule, name)


def p_sym(k: int) -> Species:
    """k-multisets of labels: n**k/k! as a quotient by the full symmetric group."""
    if k < 1:
        raise DomainError("PSym needs k >= 1")
    return _power_species("PSym(%d)" % k, k, GroupAction.symmetric(k))


def p_cyc(k: int) -> Species:
    """k-tuples of labels up to cyclic rotation: n**k/k."""
    if k < 1:
        raise DomainError("PCyc needs k >= 1")
    return _power_species("PCyc(%d)" % k, k, GroupAction.cyclic(k))


def sinh_integral() -> Species:
    """One object with n automorphisms at odd sizes: the integral of sinh(x)/x."""

    def rule(sizes):
        n = sizes[0]
        if n % 2 == 1:
            return GradedGroupoid.positive(FiniteGroupoid([(1, n)]))
        return GRADED_EMPTY

    return Species(1, rule, "Isinh")


def cosh_integral() -> Species:
    """One object with n automorphisms at even sizes n >= 2: the integral of (cosh(x)-1)/x."""

    def rule(sizes):
        n = sizes[0]
        if n >= 2 and n % 2 == 0:
            return GradedGroupoid.positive(FiniteGroupoid([(1, n)]))
        return GRADED_EMPTY

    return Species(1, rule, "Icosh")


def sin_integral() -> Species:
    """Signed odd-size points with n automorphisms: the integral of sin(x)/x.

    The grading alternates with (n-1)/2, matching the series termwise.
    """

    def rule(sizes):
        n = sizes[0]
        if n % 2 == 0:
            return GRADED_EMPTY
        g = FiniteGroupoid([(1, n)])
        return GradedGroupoid(pos=g) if (n - 1) // 2 % 2 == 0 else GradedGroupoid(neg=g)

    return Species(1, rule, "Si")


def xy_species() -> Species:
    """One structure on one label of each sort: the two-variable product xy."""
    return Species(
        2,
        lambda sizes: GRADED_UNIT if sizes == (1, 1) else GRADED_EMPTY,
        "XY",
    )


# name -> (parameter count, factory); the names are the stable expression
# vocabulary of the command line
_REGISTRY = {
    "X": (0, lambda: x_species()),
    "X1": (0, lambda: x_species(1, 2)),
    "X2": (0, lambda: x_species(2, 2)),
    "One": (0, lambda: one_species(1)),
    "One2": (0, lambda: one_species(2)),
    "Exp": (0, lambda: exp_species(1)),
    "Exp2": (0, lambda: exp_species(2)),
    "Spow": (1, sym_pow),
    "Zpow": (1, cyc_pow),
    "Z": (0, lambda: cyc_pow(1)),
    "E": (1, scaled_exp),
    "Group": (1, group_species),
    "GroupBar": (1, group_species),
    "RisingZ": (1, rising_base),
    "Psubsets": (0, subsets_species),
    "IncFact": (1, inc_fact),
    "DecFact": (1, dec_fact),
    "PSym": (1, p_sym),
    "PCyc": (1, p_cyc),
    "Isinh": (0, sinh_integral),
    "Icosh": (0, cosh_integral),
    "Si": (0, sin_integral),
    "XY": (0, xy_species),
}


def builtin_names() -> list[str]:
    return sorted(_REGISTRY)


def make(name: str, params: tuple[int, ...] = ()) -> Species:
    """Instantiate a builtin by registry name and integer parameters."""
    if name not in _REGISTRY:
        raise DomainError("unknown builtin species %r" % name)
    arity, factory = _REGISTRY[name]
    params = tuple(params)
    if len(params) != arity:
        raise DomainError(
            "builtin %s expects %d parameter(s), got %d" % (name, arity, len(params))
        )
    if any(not isinstance(p, int) for p in params):
        raise DomainError("builtin parameters must be integers")
    return factory(*params)


def default_catalog() -> list[tuple[str, tuple[int, ...]]]:
    """Representative single-sort instances used by the law-checking suites."""
    return [
        ("X", ()),
        ("One", ()),
        ("Exp", ()),
        ("Spow", (1,)),
        ("Zpow", (1,)),
        ("Zpow", (2,)),
        ("E", (2,)),
        ("Group", (2,)),
        ("RisingZ", (2,)),
        ("Psubsets", ()),
        ("IncFact", (2,)),
        ("DecFact", (2,)),
        ("PSym", (2,)),
        ("PCyc", (3,)),
        ("Isinh", ()),
        ("Icosh", ()),
        ("Si", ()),
    ]

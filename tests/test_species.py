import gc
import weakref
from fractions import Fraction

import pytest

from qspecies.catalog import cyc_pow, exp_species, sin_integral, sym_pow, x_species, xy_species
from qspecies.groupoid import (
    GRADED_EMPTY,
    GRADED_UNIT,
    FiniteGroupoid,
    GradedGroupoid,
    discrete,
    group_of_order,
)
from qspecies.egf import size_keys
from qspecies.numeric import DomainError, EnumerationLimitError, work_meter
from qspecies.species import (
    Species,
    _divide_exact,
    binomial_power,
    compose_labeled,
    constant_species,
    egf_of,
    geom_inverse,
    geom_inverse_labeled,
    one_species,
    product_labeled,
    promote,
    scaled_reciprocal,
    substitute_xy,
)


def exp_pos():
    return exp_species().positive_part()


def test_value_validation():
    f = exp_species()
    assert f.value(3) == GRADED_UNIT
    assert f.value((3,)) == GRADED_UNIT
    with pytest.raises(DomainError):
        f.value((1, 2))
    with pytest.raises(DomainError):
        f.value(-1)
    with pytest.raises(DomainError):
        Species(3, lambda s: GRADED_EMPTY)


def test_memoization_is_pure():
    calls = []

    def rule(sizes):
        calls.append(sizes)
        return GRADED_UNIT

    f = Species(1, rule)
    a = f.value(4)
    b = f.value(4)
    assert a is b
    assert calls == [(4,)]


def test_sum_is_pointwise_union():
    f = exp_species() + exp_species()
    assert f.cardinality_at(5) == 2
    assert f.value(5).pos == discrete(2)
    with pytest.raises(DomainError):
        exp_species() + exp_species(sorts=2)


def test_product_exp_squares():
    # Exp * Exp has cardinality 2^n at size n
    f = exp_species() * exp_species()
    for n in range(7):
        assert f.cardinality_at(n) == 2 ** n


def test_product_with_units():
    f = cyc_pow(1)
    assert (f * one_species()).value(4) == f.value(4)
    assert (f * Species(1, lambda sizes: GRADED_EMPTY, "zero")).value(4).is_empty
    # X * X: two labels split 2 ways into singletons
    g = x_species() * x_species()
    assert g.cardinality_at(2) == 2
    assert g.cardinality_at(1) == 0


def test_product_matches_labeled_oracle():
    cases = [
        (exp_species(), cyc_pow(1)),
        (cyc_pow(2), cyc_pow(1)),
        (x_species(), exp_species()),
    ]
    for f, g in cases:
        fast = f * g
        for n in range(7):
            assert fast.value(n) == product_labeled(f, g, n)


def test_signed_product_matches_labeled_oracle():
    # species with neg parts exercise every branch of the kernel's sign rule
    signed = [-exp_pos(), geom_inverse(exp_pos()), binomial_power(2, 3), sin_integral()]
    for f in signed:
        for g in signed:
            fast = f * g
            for n in range(7):
                assert fast.value(n) == product_labeled(f, g, n)
    f = -exp_species(sorts=2).positive_part()
    g = geom_inverse(exp_species(sorts=2).positive_part())
    for left, right in ((f, g), (g, f)):
        fast = left * right
        for key in size_keys(2, 5):
            assert fast.value(key) == product_labeled(left, right, key)


def test_product_labeled_two_sorts():
    f = exp_species(sorts=2)
    g = xy_species()
    fast = f * g
    for a in range(4):
        for b in range(4):
            assert fast.value((a, b)) == product_labeled(f, g, (a, b))


def test_product_cap(small_budget):
    # no size cap: total size 31 is a plain value (2^31 ordered pairs of sets)
    f = exp_species() * exp_species()
    assert f.cardinality_at(31) == 2 ** 31
    # the work budget names the species and the size it ran out at
    with work_meter(), pytest.raises(EnumerationLimitError, match=r"^prod\(Exp,Exp\) at size \d+ needs"):
        egf_of(f, 200)


def test_product_reads_warm_memos_and_names_a_miss(small_budget):
    # memo hits are read directly; a miss still runs Species.value, so the
    # budget names the innermost species it runs out in
    inner = geom_inverse(cyc_pow(1).positive_part())
    for n in range(6):
        inner.value(n)
    f = exp_species() * inner
    for n in range(8):
        assert f.value(n) == product_labeled(exp_species(), inner, n)
    with work_meter(), pytest.raises(
        EnumerationLimitError, match=r"^geominv\(pospart\(Zpow\(1\)\)\) at size \d+ needs"
    ):
        f.value(60)


def test_hadamard_multiplies_values():
    f = cyc_pow(1).hadamard(cyc_pow(2))
    assert f.value(4).pos == FiniteGroupoid([(1, 4 * 16)])
    # hadamard with Exp is the identity on values
    g = cyc_pow(1).hadamard(exp_species())
    for n in range(1, 6):
        assert g.value(n) == cyc_pow(1).value(n)


def test_derivative_shifts_size():
    f = cyc_pow(1).derivative()
    for n in range(5):
        assert f.value(n) == cyc_pow(1).value(n + 1)
    with pytest.raises(DomainError):
        cyc_pow(1).derivative(sort_index=2)


def test_derivative_two_sorts():
    f = xy_species().derivative(sort_index=2)
    assert f.value((1, 0)) == GRADED_UNIT
    assert f.value((1, 1)).is_empty


def test_positive_part():
    f = exp_species().positive_part()
    assert f.value(0).is_empty
    assert f.value(3) == GRADED_UNIT


def test_replicate_and_negate():
    f = exp_species().replicate(3)
    assert f.cardinality_at(2) == 3
    g = -exp_species()
    assert g.cardinality_at(2) == -1
    assert g.value(2).neg == discrete(1)
    with pytest.raises(DomainError):
        exp_species().replicate(-1)


def test_constant_species():
    c = constant_species(group_of_order(3))
    assert c.cardinality_at(0) == Fraction(1, 3)
    assert c.value(2).is_empty


def test_compose_partitions():
    # Exp(Exp_+) counts set partitions: Bell numbers
    f = exp_species().compose(exp_pos())
    bells = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    for n in range(9):
        assert f.cardinality_at(n) == bells[n]


def test_compose_requires_positive_inner():
    with pytest.raises(DomainError, match="size zero"):
        exp_species().compose(exp_species())
    with pytest.raises(DomainError):
        exp_species().compose(exp_pos(), exp_pos())


def test_compose_matches_labeled_oracle():
    outer = [exp_species(), cyc_pow(1), cyc_pow(2)]
    inner = [exp_pos(), cyc_pow(1), x_species()]
    cases = [(f, g) for f in outer for g in inner]
    # signed outer and inner species, and k! > 1 multiplicities that carry
    # automorphisms
    cases += [
        (sin_integral(), exp_pos()),
        (exp_species(), -exp_pos()),
        (sym_pow(1), sym_pow(2).positive_part()),
    ]
    for f, g in cases:
        fast = f.compose(g)
        for n in range(7):
            assert fast.value(n) == compose_labeled(f, [g], n)


def test_compose_two_sort_outer():
    # Exp2(F, G) distributes labels between two colors
    f = exp_species(sorts=2).compose(exp_pos(), exp_pos())
    assert f.sorts == 1
    for n in range(6):
        assert f.value(n) == compose_labeled(exp_species(sorts=2), [exp_pos(), exp_pos()], n)
    # decategorified: exp(x) o (e^x - 1, e^x - 1) = exp(2(e^x - 1))
    assert f.cardinality_at(2) == 6  # 2-color partitions: B2 with 2^blocks
    exp2 = exp_species(sorts=2)
    exp2_pos = exp2.positive_part()
    g = exp2.compose(exp_pos(), sin_integral())
    for n in range(7):
        assert g.value(n) == compose_labeled(exp2, [exp_pos(), sin_integral()], n)
    # two-sort inner species
    h = exp2.compose(exp2_pos, exp2_pos)
    assert h.sorts == 2
    for a in range(7):
        for b in range(7 - a):
            assert h.value((a, b)) == compose_labeled(exp2, [exp2_pos, exp2_pos], (a, b))


def test_compose_division_is_exact():
    g = GradedGroupoid(discrete(6), group_of_order(2).replicate(4))
    assert _divide_exact(g, 2) == GradedGroupoid(discrete(3), group_of_order(2).replicate(2))
    with pytest.raises(ArithmeticError, match="not divisible"):
        _divide_exact(g, 4)


def test_compose_cap(small_budget):
    # no size cap: Exp(Exp+) counts set partitions, Bell(12) of them at 12
    f = exp_species().compose(exp_pos())
    assert f.cardinality_at(12) == 4213597
    pos2 = exp_species(sorts=2).positive_part()
    two = exp_species(sorts=2).compose(pos2, pos2)
    with work_meter(), pytest.raises(EnumerationLimitError, match=r"at size \(\d+, \d+\) needs"):
        egf_of(two, 20)
    with work_meter(), pytest.raises(EnumerationLimitError, match="needs"):
        compose_labeled(exp_species(), [exp_pos()], 12)


def test_call_is_compose():
    f = exp_species()(exp_pos())
    assert f.cardinality_at(3) == 5


def test_geom_inverse_of_exp_tail():
    # (1 + (e^x - 1))^{-1} = e^{-x}: cardinality (-1)^n / n! times n!
    f = geom_inverse(exp_pos())
    for n in range(10):
        assert f.cardinality_at(n) == (-1) ** n
    assert f.value(0) == GRADED_UNIT


def test_geom_inverse_is_a_product_inverse():
    one = one_species()
    for g in [exp_pos(), cyc_pow(1), cyc_pow(1).derivative().positive_part()]:
        inv = geom_inverse(g)
        prod = (one + g) * inv
        assert prod.cardinality_at(0) == 1
        for n in range(1, 9):
            assert prod.cardinality_at(n) == 0


def test_geom_inverse_matches_labeled_oracle():
    for g in [exp_pos(), cyc_pow(1), cyc_pow(2)]:
        inv = geom_inverse(g)
        for n in range(7):
            assert inv.value(n) == geom_inverse_labeled(g, n)
    g = exp_species(sorts=2).positive_part()
    inv = geom_inverse(g)
    for a in range(7):
        for b in range(7 - a):
            assert inv.value((a, b)) == geom_inverse_labeled(g, (a, b))


def _live_species():
    return sum(isinstance(o, Species) for o in gc.get_objects())


def test_species_are_freed_without_the_cycle_collector():
    # a rule that reaches its own species strongly makes a cycle, which keeps
    # every memo in it alive until a full cyclic collection happens to run
    exp2_pos = exp_species(sorts=2).positive_part
    cases = [
        (lambda: geom_inverse(exp_pos()), size_keys(1, 10)),
        (lambda: exp_species(sorts=2).compose(exp2_pos(), exp2_pos()), size_keys(2, 5)),
        (lambda: scaled_reciprocal(2, 3, exp_pos()), size_keys(1, 10)),
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for build, keys in cases:
            before = _live_species()
            f = build()
            for key in keys:
                f.value(key)
            ref = weakref.ref(f)
            del f
            assert ref() is None
            assert _live_species() == before
    finally:
        if enabled:
            gc.enable()


def test_geom_inverse_requires_positive():
    with pytest.raises(DomainError, match="size zero"):
        geom_inverse(exp_species())


def test_geom_inverse_cap(small_budget):
    # no size cap: 1/(1 + (e^x - 1)) = e^-x at size 26, past the old cap of 25
    assert geom_inverse(exp_pos()).cardinality_at(26) == 1
    inv = geom_inverse(exp_pos())
    with work_meter(), pytest.raises(EnumerationLimitError, match=r"^geominv\(pospart\(Exp\)\) at size \d+ needs \d+ more work units with \d+ of the 20000-unit budget spent$"):
        egf_of(inv, 200)
    with work_meter(), pytest.raises(EnumerationLimitError, match="needs"):
        geom_inverse_labeled(exp_pos(), 12)


def test_scaled_reciprocal_law():
    # the constant is b copies of 1/a, so |S| * (1 + (b/a)|F|) == b/a,
    # equivalently |S| * (a/b + |F|) == 1
    for a, b in [(1, 2), (2, 3), (3, 1)]:
        f = exp_pos()
        s = scaled_reciprocal(a, b, f)
        c = Fraction(b, a)
        lhs = egf_of(s, 8)
        fser = egf_of(f, 8)
        one = egf_of(one_species(), 8)
        assert lhs * (one + fser.scalar_mul(c)) == one.scalar_mul(c)
        assert lhs * (one.scalar_mul(Fraction(a, b)) + fser) == one
    with pytest.raises(DomainError):
        scaled_reciprocal(0, 1, exp_pos())
    with pytest.raises(DomainError):
        scaled_reciprocal(1, 2, exp_species())


def test_binomial_power_cardinalities():
    # (1 + x)^{-a/b}: EGF coefficient is the signed rising factorial of a/b
    for a, b in [(1, 2), (2, 3), (3, 5)]:
        f = binomial_power(a, b)
        q = Fraction(a, b)
        for n in range(8):
            expect = Fraction(1)
            for i in range(n):
                expect *= q + i
            assert f.cardinality_at(n) == (-1) ** n * expect
    with pytest.raises(DomainError):
        binomial_power(0, 1)


def test_binomial_power_grading():
    f = binomial_power(1, 2)
    assert f.value(2).neg.is_empty
    assert f.value(3).pos.is_empty


def test_promote():
    f = promote(exp_species(), 1)
    assert f.sorts == 2
    assert f.value((3, 0)) == GRADED_UNIT
    assert f.value((3, 1)).is_empty
    g = promote(exp_species(), 2)
    assert g.value((0, 3)) == GRADED_UNIT
    with pytest.raises(DomainError):
        promote(exp_species(sorts=2), 1)
    with pytest.raises(DomainError):
        promote(exp_species(), 3)


def test_substitute_xy_diagonal():
    f = substitute_xy(exp_species())
    assert f.value((2, 3)).is_empty
    assert f.value((3, 3)).pos == discrete(6)
    assert f.cardinality_at((3, 3)) == 6
    with pytest.raises(DomainError):
        substitute_xy(exp_species(sorts=2))


def test_substitute_xy_equals_compose_with_xy():
    # f(xy) i.e. compose f with the two-sort singleton-pair species
    for f in [exp_species(), cyc_pow(1)]:
        diag = substitute_xy(f)
        via_compose = f.compose(xy_species())
        for a in range(5):
            for b in range(5):
                assert diag.value((a, b)) == via_compose.value((a, b))


def test_egf_of():
    f = egf_of(exp_species(), 5)
    assert all(f.coefficient(n) == 1 for n in range(6))
    g = egf_of(xy_species(), 4)
    assert g.coefficient((1, 1)) == 1
    assert g.coefficient((2, 1)) == 0
    with pytest.raises(DomainError):
        egf_of(exp_species(), -1)


def test_names_compose():
    f = geom_inverse(exp_pos())
    assert f.name.startswith("geominv(")
    g = exp_species() + cyc_pow(1)
    assert g.name == "sum(Exp,Zpow(1))"

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from qspecies.groupoid import (
    EMPTY,
    GRADED_EMPTY,
    GRADED_UNIT,
    UNIT,
    FiniteGroupoid,
    GradedGroupoid,
    GroupAction,
    cardinality,
    discrete,
    finite_from_json,
    group_of_order,
    groupoid_from_json,
    increasing_factorial,
    power_quotient,
    quotient,
)
from qspecies import numeric
from qspecies.numeric import DomainError, EnumerationLimitError, work_meter


def random_groupoid(rng, max_parts=4, max_entry=6, max_count=3):
    pairs = {}
    for _ in range(rng.randrange(max_parts + 1)):
        comp = (rng.randrange(1, max_entry), rng.randrange(1, max_entry))
        pairs[comp] = pairs.get(comp, 0) + rng.randrange(1, max_count + 1)
    return FiniteGroupoid.from_counts(pairs)


def test_component_validation():
    with pytest.raises(DomainError):
        FiniteGroupoid([(0, 1)])
    with pytest.raises(DomainError):
        FiniteGroupoid([(1, 0)])
    with pytest.raises(DomainError):
        FiniteGroupoid.from_counts({(1, 1): -1})


def test_normalization_merges_duplicates():
    g = FiniteGroupoid([(2, 3), (2, 3), (1, 1)])
    assert g.parts == (((1, 1), 1), ((2, 3), 2))
    assert g == FiniteGroupoid.from_counts({(2, 3): 2, (1, 1): 1})


def test_basic_cardinalities():
    assert EMPTY.cardinality() == 0
    assert UNIT.cardinality() == 1
    assert discrete(7).cardinality() == 7
    assert group_of_order(12).cardinality() == Fraction(1, 12)
    # one 2-object component with cyclic C2 plus a point with C2
    g = FiniteGroupoid([(2, 1), (1, 2)])
    assert g.cardinality() == Fraction(3, 2)


def test_every_positive_rational_is_reached():
    # a copies of a point with b automorphisms realize a/b exactly
    for b in range(1, 51):
        for a in range(1, 51):
            if math.gcd(a, b) != 1:
                continue
            g = group_of_order(b).replicate(a)
            assert g.cardinality() == Fraction(a, b)


def _naive_cardinality(g):
    total = Fraction(0)
    for (_, a), count in g.parts:
        total += Fraction(count, a)
    return total


def test_cardinality_equals_the_per_component_sum():
    rng = random.Random(1729)
    cases = [EMPTY, UNIT]
    cases += [random_groupoid(rng, max_parts=12, max_entry=60, max_count=10**6) for _ in range(300)]
    # pairwise coprime automorphism orders: the common denominator is their product
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    cases.append(FiniteGroupoid.from_counts({(1, p): p - 1 for p in primes}))
    cases.append(FiniteGroupoid.from_counts({(k, p ** k): k for k, p in enumerate(primes, 1)}))
    # factorial-sized orders, which share most of their factors
    cases.append(
        FiniteGroupoid.from_counts({(1, math.factorial(n)): rng.randrange(1, 10**9) for n in range(1, 40)})
    )
    # multiplicities of more than 2000 bits, over coprime and factorial orders
    cases.append(FiniteGroupoid.from_counts({(1, p): rng.getrandbits(2100) | 1 for p in primes}))
    cases.append(
        FiniteGroupoid.from_counts({(2, math.factorial(n)): rng.getrandbits(4000) for n in range(1, 25)})
    )
    for g in cases:
        assert g.cardinality() == _naive_cardinality(g), g
    assert EMPTY.cardinality() == 0 and EMPTY.cardinality().denominator == 1
    graded = GradedGroupoid(cases[-1], cases[-2])
    assert graded.cardinality() == _naive_cardinality(cases[-1]) - _naive_cardinality(cases[-2])


def test_cardinality_charges_one_fraction_per_component_once():
    # 10 units per component, times the weight of the largest multiplicity:
    # 2100 bits weigh 1 + 2100 // 256 = 9
    small = FiniteGroupoid([(1, 2), (1, 3), (2, 5)])
    heavy = FiniteGroupoid.from_counts({(1, 2): 2 ** 2099, (1, 3): 1})
    with work_meter():
        spent = numeric._meter.get()
        assert EMPTY.cardinality() == 0 and spent[0] == 0
        assert small.cardinality() == Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 5)
        assert spent[0] == 30
        assert heavy.cardinality() == Fraction(2 ** 2099, 2) + Fraction(1, 3)
        assert spent[0] == 30 + 180
        # the value is kept: asking again costs nothing
        heavy.cardinality()
        small.cardinality()
        assert spent[0] == 210


def test_cardinality_is_additive_and_multiplicative():
    rng = random.Random(20240917)
    for _ in range(1000):
        g = random_groupoid(rng)
        h = random_groupoid(rng)
        assert (g + h).cardinality() == g.cardinality() + h.cardinality()
        assert (g * h).cardinality() == g.cardinality() * h.cardinality()
    assert (g + EMPTY) == g
    assert (g * UNIT) == g
    assert (g * EMPTY).is_empty


def test_union_all_matches_pairwise():
    rng = random.Random(7)
    gs = [random_groupoid(rng) for _ in range(5)]
    acc = EMPTY
    for g in gs:
        acc = acc + g
    assert FiniteGroupoid.union_all(gs) == acc


def test_replicate():
    g = group_of_order(3)
    assert g.replicate(0).is_empty
    assert g.replicate(1) is g
    assert g.replicate(4).cardinality() == Fraction(4, 3)
    with pytest.raises(DomainError):
        g.replicate(-1)


def test_inertia_flattens_objects():
    g = FiniteGroupoid([(3, 2), (3, 2), (1, 5)])
    assert g.inertia() == FiniteGroupoid.from_counts({(1, 2): 6, (1, 5): 1})
    # inertia preserves nothing but counts objects with their stabilizers
    assert g.inertia().cardinality() == Fraction(6, 2) + Fraction(1, 5)


def test_graded_sign_rule():
    p = GradedGroupoid.positive(discrete(2))
    n = GradedGroupoid(neg=discrete(3))
    assert (p * p).cardinality() == 4
    assert (p * n).cardinality() == -6
    assert (n * p).cardinality() == -6
    assert (n * n).cardinality() == 9
    assert (n * n).pos == discrete(9)
    assert (n * n).neg.is_empty


def test_product_multiplies_object_counts_and_orders():
    # cardinality reads only automorphism orders, so the object counts of a
    # product, k1 * k2, are pinned here
    g = FiniteGroupoid.from_counts({(2, 3): 1, (1, 1): 2})
    h = FiniteGroupoid.from_counts({(3, 5): 2})
    assert (g * h).parts == (((3, 5), 4), ((6, 15), 2))
    x = GradedGroupoid(FiniteGroupoid([(2, 3)]), FiniteGroupoid([(3, 5)]))
    square = x * x
    assert square.pos.parts == (((4, 9), 1), ((9, 25), 1))
    assert square.neg.parts == (((6, 15), 2),)


def test_sum_of_products_matches_replicated_products():
    rng = random.Random(11)
    for _ in range(200):
        terms = []
        for _ in range(rng.randrange(4)):
            x = GradedGroupoid(random_groupoid(rng), random_groupoid(rng))
            y = GradedGroupoid(random_groupoid(rng), random_groupoid(rng))
            terms.append((x, y, rng.randrange(4)))
        pos = FiniteGroupoid.union_all(
            (x.pos * y.pos + x.neg * y.neg).replicate(m) for x, y, m in terms
        )
        neg = FiniteGroupoid.union_all(
            (x.pos * y.neg + x.neg * y.pos).replicate(m) for x, y, m in terms
        )
        got = GradedGroupoid.sum_of_products(terms)
        assert got == GradedGroupoid(pos, neg)
        assert repr(got) == repr(GradedGroupoid(pos, neg))
    with pytest.raises(DomainError):
        GradedGroupoid.sum_of_products([(GRADED_UNIT, GRADED_UNIT, -1)])


def test_products_are_charged_before_they_run(small_budget):
    # 150 components a side: 22500 pairs, past the 20000 units of the test
    wide = FiniteGroupoid.from_counts({(1, a): 1 for a in range(1, 151)})
    graded = GradedGroupoid(wide)
    # multiplicities of 301 bits weigh 2 per factor: 70 x 70 pairs cost 19600
    heavy = GradedGroupoid(FiniteGroupoid.from_counts({(1, a): 2 ** 300 for a in range(1, 71)}))
    square = heavy * heavy  # outside a meter work is free
    with work_meter():
        with pytest.raises(EnumerationLimitError, match="^groupoid product needs 22516 more"):
            wide * wide
        with pytest.raises(EnumerationLimitError, match="^product kernel needs 22516 more"):
            GradedGroupoid.sum_of_products([(graded, graded, 1)])
        with pytest.raises(EnumerationLimitError, match="^product kernel needs 39216 more"):
            GradedGroupoid.sum_of_products([(heavy, heavy, 1), (heavy, heavy, 2)])
        # refused charges were not spent: 19616 units still fit
        assert GradedGroupoid.sum_of_products([(heavy, heavy, 1)]) == square


def test_graded_no_cancellation():
    g = GradedGroupoid(discrete(2), discrete(2))
    assert g.cardinality() == 0
    assert not g.is_empty
    assert g != GRADED_EMPTY


def test_graded_negate_and_union():
    g = GradedGroupoid(discrete(1), group_of_order(2))
    assert (-g).pos == group_of_order(2)
    assert (-g).neg == discrete(1)
    assert (-(-g)) == g
    total = GradedGroupoid.union_all([g, -g, GRADED_UNIT])
    assert total.cardinality() == 1
    assert cardinality(GRADED_UNIT) == 1
    assert cardinality(GRADED_EMPTY) == 0


def test_cardinality_dispatch_rejects_non_groupoids():
    with pytest.raises(DomainError):
        cardinality(3)


def _is_group_pairwise(degree, elements):
    """Reference check: identity, inverses and every pairwise product inside."""
    eset = set(elements)
    if tuple(range(1, degree + 1)) not in eset:
        return False
    for p in eset:
        inv = [0] * degree
        for i, v in enumerate(p):
            inv[v - 1] = i + 1
        if tuple(inv) not in eset:
            return False
        for q in eset:
            if tuple(p[q[i] - 1] for i in range(degree)) not in eset:
                return False
    return True


def test_group_action_validation():
    # from_generators is the one constructor that checks its input
    with pytest.raises(DomainError):
        GroupAction.from_generators(0, [])  # no points to act on
    # the constructor trusts its input, so what each builder passes it must
    # be a group by the pairwise reference.  Every subgroup of S4 is
    # 2-generated, so the closures of all pairs give the 30 of them.
    everything = sorted(itertools.permutations((1, 2, 3, 4)))
    subgroups = {
        frozenset(GroupAction.from_generators(4, pair).elements)
        for pair in itertools.combinations_with_replacement(everything, 2)
    }
    assert len(subgroups) == 30
    for elems in subgroups:
        assert _is_group_pairwise(4, elems)
    for k in range(1, 6):
        for action in (GroupAction.symmetric(k), GroupAction.cyclic(k)):
            assert action.degree == k
            assert list(action.elements) == sorted(set(action.elements))
            assert _is_group_pairwise(k, action.elements)
    assert len(GroupAction.symmetric(5)) == 120 and len(GroupAction.cyclic(5)) == 5


def test_group_action_from_generators():
    s3 = GroupAction.from_generators(3, [(2, 1, 3), (2, 3, 1)])
    assert len(s3) == 6
    assert s3.elements == GroupAction.symmetric(3).elements
    c4 = GroupAction.from_generators(4, [(2, 3, 4, 1)])
    assert len(c4) == 4
    assert c4.elements == GroupAction.cyclic(4).elements
    with pytest.raises(DomainError):
        GroupAction.from_generators(3, [(2, 1, 3, 4)])  # longer than the degree
    with pytest.raises(DomainError):
        GroupAction.from_generators(3, [(2, 2, 3)])  # not a permutation


def test_group_action_closure_cap(small_budget):
    # a transposition and an 8-cycle generate S8: 40320 elements, charged
    # one round of the closure at a time
    gens = [(2, 1, 3, 4, 5, 6, 7, 8), (2, 3, 4, 5, 6, 7, 8, 1)]
    with work_meter(), pytest.raises(EnumerationLimitError, match="^group closure at size 8 needs"):
        GroupAction.from_generators(8, gens)
    # S12 is refused before any permutation is listed
    with work_meter(), pytest.raises(EnumerationLimitError, match="^symmetric group at size 12 needs"):
        GroupAction.symmetric(12)
    with work_meter(), pytest.raises(EnumerationLimitError, match="^cyclic group at size 1000 needs"):
        GroupAction.cyclic(1000)


def test_orbits():
    g = GroupAction.from_generators(5, [(2, 1, 3, 4, 5), (1, 2, 4, 5, 3)])
    assert g.orbits() == [(1, 2), (3, 4, 5)]
    assert GroupAction.from_generators(3, []).orbits() == [(1,), (2,), (3,)]


def test_quotient_cardinality_law():
    # |{1..m} // G| = m / |G| for any permutation group G on m points
    rng = random.Random(99)
    for _ in range(100):
        degree = rng.randrange(2, 7)
        base = list(range(1, degree + 1))
        gens = []
        for _ in range(rng.randrange(1, 3)):
            p = base[:]
            rng.shuffle(p)
            gens.append(tuple(p))
        action = GroupAction.from_generators(degree, gens)
        assert quotient(action).cardinality() == Fraction(degree, len(action))


def test_quotient_components():
    c2_on_3 = GroupAction.from_generators(3, [(2, 1, 3)])
    # one 2-point orbit with trivial stabilizer, one fixed point with C2
    assert quotient(c2_on_3) == FiniteGroupoid([(2, 1), (1, 2)])
    assert quotient(GroupAction.symmetric(3)) == FiniteGroupoid([(3, 2)])


def test_power_quotient_multiset_identity():
    # tuples up to coordinate permutation: |[n]^k // S_k| = n^k / k!
    for n in range(1, 5):
        for k in range(1, 5):
            g = power_quotient(n, k, GroupAction.symmetric(k))
            assert g.cardinality() == Fraction(n ** k, math.factorial(k))
            # cross-check: sum over weak compositions of 1 / prod s_i!
            total = sum(
                Fraction(1, math.prod(math.factorial(t.count(v)) for v in set(t)))
                for t in _ascending_tuples(n, k)
            )
            assert g.cardinality() == total


def _ascending_tuples(n, k):
    import itertools

    return itertools.combinations_with_replacement(range(n), k)


def test_power_quotient_trivial_group():
    g = power_quotient(3, 2, GroupAction.from_generators(2, []))
    assert g == FiniteGroupoid.from_counts({(1, 1): 9})


def test_power_quotient_validation():
    with pytest.raises(DomainError):
        power_quotient(2, 3, GroupAction.symmetric(2))
    with pytest.raises(DomainError):
        power_quotient(0, 1, GroupAction.from_generators(1, []))
    # the scan of 10^6 tuples of 3 coordinates is refused before it starts
    with work_meter(), pytest.raises(EnumerationLimitError, match="^power quotient needs 3000000 more"):
        power_quotient(100, 3, GroupAction.symmetric(3))


def test_increasing_factorial_law():
    rng = random.Random(5)
    for _ in range(50):
        g = random_groupoid(rng, max_parts=3)
        c = g.cardinality()
        for n in range(7):
            expect = Fraction(1)
            for i in range(n):
                expect *= c + i
            assert increasing_factorial(g, n).cardinality() == expect
    assert increasing_factorial(EMPTY, 0) == UNIT
    with pytest.raises(DomainError):
        increasing_factorial(UNIT, -1)


def test_increasing_factorial_of_group():
    # a point with g automorphisms raised to the n-th increasing power
    # has cardinality (1/g)(1/g + 1)...(1/g + n - 1)
    g = group_of_order(2)
    assert increasing_factorial(g, 3).cardinality() == Fraction(15, 8)


def test_json_round_trip_plain():
    g = groupoid_from_json(json.loads('{"components": [[2, 1], [1, 2], [1, 2]]}'))
    assert g == FiniteGroupoid([(2, 1), (1, 2), (1, 2)])
    assert g.cardinality() == Fraction(2)
    assert finite_from_json(json.loads('{"components": []}')) == EMPTY


def test_json_round_trip_graded():
    text = '{"pos": {"components": [[1, 1], [1, 1]]}, "neg": {"components": [[1, 3]]}}'
    back = groupoid_from_json(json.loads(text))
    assert isinstance(back, GradedGroupoid)
    assert back == GradedGroupoid(discrete(2), group_of_order(3))
    assert back.cardinality() == Fraction(5, 3)


def test_json_validation():
    with pytest.raises(DomainError):
        finite_from_json({"parts": []})
    with pytest.raises(DomainError):
        finite_from_json({"components": [[1]]})
    with pytest.raises(DomainError):
        finite_from_json({"components": "nope"})


def test_repr_is_stable():
    assert repr(EMPTY) == "FiniteGroupoid()"
    assert repr(FiniteGroupoid([(2, 3)])) == "FiniteGroupoid<(2,3)x1>"

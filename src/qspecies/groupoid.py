"""Skeletal finite groupoids, signed (graded) pairs, and group actions.

A finite groupoid is kept in skeletal form: a multiset of connected
components, each reduced to (object count, automorphism-group order).  That
data is exactly what cardinality and every construction here depend on.
Component multiplicities are bignums, never expanded lists, because replicated
unions grow multinomially fast.  All values are immutable and hashable.

Cardinality assigns each component 1/aut_order (one isomorphism class per
component) and adds up, as one integer sum over the least common multiple of
the automorphism orders and a single Fraction; a graded pair (pos, neg) has
cardinality |pos| - |neg|, which is how negative rationals arise.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from fractions import Fraction
from typing import Iterable, Sequence

from .numeric import DomainError, charge, fraction_units, weight

__all__ = [
    "FiniteGroupoid",
    "GradedGroupoid",
    "GroupAction",
    "EMPTY",
    "UNIT",
    "GRADED_EMPTY",
    "GRADED_UNIT",
    "cardinality",
    "discrete",
    "group_of_order",
    "quotient",
    "power_quotient",
    "increasing_factorial",
    "finite_from_json",
    "groupoid_from_json",
]

def _normalize(pairs: Iterable[tuple[Sequence[int], int]]) -> "FiniteGroupoid":
    """The groupoid with the given (component, count) pairs, checked."""
    acc: dict[tuple[int, int], int] = {}
    for comp, count in pairs:
        k, a = comp
        if k < 1 or a < 1:
            raise DomainError("component (%r, %r) must have positive entries" % (k, a))
        if count < 0:
            raise DomainError("negative component multiplicity")
        if count:
            key = (int(k), int(a))
            acc[key] = acc.get(key, 0) + int(count)
    return _trusted(acc)


# work units of a product call beyond its pairs of components (its dicts,
# sort and result), and of a component of a cardinality (priced as a
# Fraction addition)
_CALL_UNITS = 16
_CARD_UNITS = fraction_units(0)

def _trusted(acc: dict[tuple[int, int], int]) -> "FiniteGroupoid":
    """The groupoid with the given counts, keyed by (object_count, aut_order).

    Every nonempty groupoid is built here, so its load is priced in one
    place: the component count weighted by the largest multiplicity, so that
    two loads multiply to the units of a product.  Catalog rules charge large
    automorphism orders.  The keys are trusted: _normalize checks outside
    input first, and products, unions and replicas of valid groupoids need no
    check.  Zero counts are dropped (sum_of_products accepts m = 0) and the
    items are sorted once, as plain ((object_count, aut_order), count) pairs.
    """
    parts = tuple(sorted(item for item in acc.items() if item[1]))
    if not parts:
        return EMPTY
    g = FiniteGroupoid.__new__(FiniteGroupoid)
    g._parts = parts
    g._card = None
    g._load = len(parts) * weight(max(acc.values()).bit_length())
    return g


def _add_product(acc: dict[tuple[int, int], int], left, right, m: int) -> None:
    """Add m copies of the product of two sorted part tuples into acc."""
    if not right:
        return
    for (k1, a1), n1 in left:
        c = n1 * m
        for (k2, a2), n2 in right:
            key = (k1 * k2, a1 * a2)
            acc[key] = acc.get(key, 0) + c * n2


class FiniteGroupoid:
    """Multiset of components; the empty multiset is the empty groupoid."""

    __slots__ = ("_parts", "_card", "_load")

    def __init__(self, components: Iterable[Sequence[int]] = ()):
        g = _normalize((c, 1) for c in components)
        self._parts, self._card, self._load = g._parts, g._card, g._load

    @staticmethod
    def from_counts(counts: Mapping[Sequence[int], int]) -> "FiniteGroupoid":
        return _normalize(counts.items())

    @property
    def parts(self) -> tuple[tuple[tuple[int, int], int], ...]:
        """Sorted ((object_count, aut_order), multiplicity) pairs."""
        return self._parts

    @property
    def is_empty(self) -> bool:
        return not self._parts

    def cardinality(self) -> Fraction:
        if self._card is None:
            charge(_CARD_UNITS * self._load, "cardinality", None)
            # one sum over a common denominator: a gcd per component is most
            # of the cost of adding Fractions one at a time
            den = math.lcm(*[a for (_, a), _ in self._parts])
            num = sum(n * (den // a) for (_, a), n in self._parts)
            self._card = Fraction(num, den)
        return self._card

    def disjoint_union(self, other: "FiniteGroupoid") -> "FiniteGroupoid":
        if not self._parts:
            return other
        if not other._parts:
            return self
        acc = dict(self._parts)
        for comp, count in other._parts:
            acc[comp] = acc.get(comp, 0) + count
        return _trusted(acc)

    __add__ = disjoint_union

    @staticmethod
    def union_all(items: Iterable["FiniteGroupoid"]) -> "FiniteGroupoid":
        """Disjoint union of all items; a sole nonempty item comes back as is."""
        nonempty = [g for g in items if g._parts]
        if not nonempty:
            return EMPTY
        if len(nonempty) == 1:
            return nonempty[0]
        acc: dict[tuple[int, int], int] = {}
        for g in nonempty:
            for comp, count in g._parts:
                acc[comp] = acc.get(comp, 0) + count
        return _trusted(acc)

    def product(self, other: "FiniteGroupoid") -> "FiniteGroupoid":
        charge(self._load * other._load + _CALL_UNITS, "groupoid product", None)
        acc: dict[tuple[int, int], int] = {}
        _add_product(acc, self._parts, other._parts, 1)
        return _trusted(acc)

    __mul__ = product

    def replicate(self, m: int) -> "FiniteGroupoid":
        """Disjoint union of m copies."""
        if m < 0:
            raise DomainError("replicate needs m >= 0")
        if m == 0 or not self._parts:
            return EMPTY
        if m == 1:
            return self
        return _trusted({comp: count * m for comp, count in self._parts})

    def inertia(self) -> "FiniteGroupoid":
        """Split every component (k, a) into k copies of (1, a)."""
        acc: dict[tuple[int, int], int] = {}
        for (k, a), count in self._parts:
            key = (1, a)
            acc[key] = acc.get(key, 0) + count * k
        return _trusted(acc)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroupoid) and self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        if not self._parts:
            return "FiniteGroupoid()"
        bits = ", ".join("(%d,%d)x%d" % (k, a, n) for (k, a), n in self._parts)
        return "FiniteGroupoid<%s>" % bits


# built by hand, as _trusted returns it for every empty result
EMPTY = FiniteGroupoid.__new__(FiniteGroupoid)
EMPTY._parts, EMPTY._card, EMPTY._load = (), None, 0
UNIT = FiniteGroupoid([(1, 1)])


class GradedGroupoid:
    """Pair (pos, neg) of finite groupoids; cardinality |pos| - |neg|.

    No cancellation is ever applied: (pos, neg) is a formal difference and
    equality is structural on both halves.

    Products follow the sign rule: like halves multiply into pos, unlike
    halves into neg.  sum_of_products is the one kernel for them: it adds
    the counts of every term's products into a single count dict per half
    and builds each half once, sorted, without re-validating components that
    come from valid ones; product is its one-term case.
    """

    __slots__ = ("pos", "neg", "_load")

    def __init__(self, pos: FiniteGroupoid = EMPTY, neg: FiniteGroupoid = EMPTY):
        if not isinstance(pos, FiniteGroupoid) or not isinstance(neg, FiniteGroupoid):
            raise DomainError("graded groupoid halves must be finite groupoids")
        self.pos = pos
        self.neg = neg
        self._load = pos._load + neg._load

    @classmethod
    def positive(cls, g: "FiniteGroupoid | GradedGroupoid") -> "GradedGroupoid":
        if isinstance(g, GradedGroupoid):
            return g
        return cls(pos=g)

    @property
    def is_empty(self) -> bool:
        return self.pos.is_empty and self.neg.is_empty

    def cardinality(self) -> Fraction:
        return self.pos.cardinality() - self.neg.cardinality()

    def disjoint_union(self, other: "GradedGroupoid") -> "GradedGroupoid":
        return GradedGroupoid(self.pos + other.pos, self.neg + other.neg)

    __add__ = disjoint_union

    @staticmethod
    def union_all(items: Iterable["GradedGroupoid"]) -> "GradedGroupoid":
        items = list(items)
        return GradedGroupoid(
            FiniteGroupoid.union_all(g.pos for g in items),
            FiniteGroupoid.union_all(g.neg for g in items),
        )

    @staticmethod
    def sum_of_products(
        terms: Sequence[tuple["GradedGroupoid", "GradedGroupoid", int]]
    ) -> "GradedGroupoid":
        """Disjoint union over the (x, y, m) terms of m copies of x * y.

        One accumulation: every product count times m is added into one
        count dict per half, by the sign rule, and each half is built once.
        All of its work, the loads' product per term, is charged first.
        """
        work = _CALL_UNITS
        for x, y, _ in terms:
            work += x._load * y._load
        charge(work, "product kernel", None)
        pos: dict[tuple[int, int], int] = {}
        neg: dict[tuple[int, int], int] = {}
        for x, y, m in terms:
            if m < 0:
                raise DomainError("sum_of_products needs multiplicities m >= 0")
            xp, xn, yp, yn = x.pos._parts, x.neg._parts, y.pos._parts, y.neg._parts
            # sign rule: like halves multiply into pos, unlike halves into neg
            _add_product(pos, xp, yp, m)
            _add_product(pos, xn, yn, m)
            _add_product(neg, xp, yn, m)
            _add_product(neg, xn, yp, m)
        return GradedGroupoid(_trusted(pos), _trusted(neg))

    def product(self, other: "GradedGroupoid") -> "GradedGroupoid":
        return GradedGroupoid.sum_of_products(((self, other, 1),))

    __mul__ = product

    def negate(self) -> "GradedGroupoid":
        return GradedGroupoid(self.neg, self.pos)

    __neg__ = negate

    def replicate(self, m: int) -> "GradedGroupoid":
        return GradedGroupoid(self.pos.replicate(m), self.neg.replicate(m))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedGroupoid)
            and self.pos == other.pos
            and self.neg == other.neg
        )

    def __hash__(self) -> int:
        return hash((self.pos, self.neg))

    def __repr__(self) -> str:
        return "GradedGroupoid(pos=%r, neg=%r)" % (self.pos, self.neg)


GRADED_EMPTY = GradedGroupoid()
GRADED_UNIT = GradedGroupoid(pos=UNIT)


def cardinality(g: "FiniteGroupoid | GradedGroupoid") -> Fraction:
    """Cardinality of a finite or graded groupoid."""
    if isinstance(g, (FiniteGroupoid, GradedGroupoid)):
        return g.cardinality()
    raise DomainError("cardinality expects a groupoid, got %r" % type(g).__name__)


def discrete(m: int) -> FiniteGroupoid:
    """m isolated objects with trivial automorphisms; cardinality m."""
    if m < 0:
        raise DomainError("discrete groupoid needs m >= 0")
    return FiniteGroupoid.from_counts({(1, 1): m} if m else {})


def group_of_order(a: int) -> FiniteGroupoid:
    """One object with a automorphisms; cardinality 1/a."""
    if a < 1:
        raise DomainError("group order must be positive")
    return FiniteGroupoid([(1, a)])


def _closure(degree: int, generators: Sequence[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """The group generated by permutations of 1..degree, by breadth-first closure.

    Starting from the identity, every element found is composed on the left
    with every generator until nothing new appears.  For a finite set of
    permutations that is the generated group: it is closed under composition,
    and so holds each element's powers, one of which is its inverse.  Each
    round is charged its compositions times the degree before it runs.
    """
    # (0,) + g maps each 1-based point to its image, so mapping p through it
    # gives g after p
    lookups = [(0,) + g for g in generators]
    seen = {tuple(range(1, degree + 1))}
    frontier = list(seen)
    while frontier:
        charge(len(frontier) * len(lookups) * degree, "group closure", degree)
        nxt = []
        for p in frontier:
            for look in lookups:
                q = tuple(map(look.__getitem__, p))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


class GroupAction:
    """A permutation group acting on {1..degree}, held as its sorted elements.

    Elements are 1-based image tuples.  The constructor trusts its caller to
    pass a whole group and checks nothing: from_generators closes its
    generators, after checking them, and symmetric and cyclic list their
    groups.
    """

    __slots__ = ("degree", "elements")

    def __init__(self, degree: int, elements: Iterable[tuple[int, ...]]):
        self.degree = degree
        self.elements = tuple(sorted(elements))

    @classmethod
    def from_generators(cls, degree: int, generators: Iterable[Sequence[int]]) -> "GroupAction":
        """The group generated by permutations of 1..degree; no generators
        give the trivial group."""
        if degree < 1:
            raise DomainError("group action needs degree >= 1")
        gens = [tuple(int(v) for v in p) for p in generators]
        base = list(range(1, degree + 1))
        for g in gens:
            if sorted(g) != base:
                raise DomainError("generator %r is not a permutation of 1..%d" % (g, degree))
        return cls(degree, _closure(degree, gens))

    @classmethod
    def symmetric(cls, degree: int) -> "GroupAction":
        if degree < 1:
            raise DomainError("symmetric group needs degree >= 1")
        # degree! elements of degree points; 20! is past any budget
        charge(math.factorial(min(degree, 20)) * degree, "symmetric group", degree)
        return cls(degree, itertools.permutations(range(1, degree + 1)))

    @classmethod
    def cyclic(cls, degree: int) -> "GroupAction":
        if degree < 1:
            raise DomainError("cyclic group needs degree >= 1")
        charge(degree * degree, "cyclic group", degree)
        base = list(range(1, degree + 1))
        return cls(degree, [tuple(base[k:] + base[:k]) for k in range(degree)])

    def __len__(self) -> int:
        return len(self.elements)

    def orbits(self) -> list[tuple[int, ...]]:
        """Orbits on {1..degree}, each ascending, ordered by least point."""
        seen: set[int] = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            orbit = {p[start - 1] for p in self.elements}
            seen |= orbit
            out.append(tuple(sorted(orbit)))
        return out

    def __repr__(self) -> str:
        return "GroupAction(degree=%d, order=%d)" % (self.degree, len(self.elements))


def quotient(action: GroupAction) -> FiniteGroupoid:
    """Quotient groupoid of {1..m} by a permutation group.

    Objects are the points; morphisms a -> b are the group elements sending a
    to b.  One component per orbit with automorphism order |G|/|orbit| (the
    stabilizer order), so the cardinality is degree/|G|.
    """
    order = len(action)
    acc: dict[tuple[int, int], int] = {}
    for orbit in action.orbits():
        size = len(orbit)
        stab, rem = divmod(order, size)
        if rem:
            raise DomainError("orbit size %d does not divide group order %d" % (size, order))
        acc[(size, stab)] = acc.get((size, stab), 0) + 1
    return FiniteGroupoid.from_counts(acc)


def power_quotient(n: int, k: int, action: GroupAction) -> FiniteGroupoid:
    """Quotient of the tuple space {1..n}^k by a group permuting coordinates;
    the tuple scan and each orbit are charged before they are listed."""
    if n < 1 or k < 1:
        raise DomainError("power quotient needs n >= 1 and k >= 1")
    if action.degree != k:
        raise DomainError("action degree %d does not match k=%d" % (action.degree, k))
    elems = action.elements
    order = len(elems)
    charge(k * n ** k, "power quotient", None)
    seen: set[tuple[int, ...]] = set()
    acc: dict[tuple[int, int], int] = {}
    for t in itertools.product(range(n), repeat=k):
        if t in seen:
            continue
        charge(order * k, "power quotient", None)
        orbit = {tuple(t[p[i] - 1] for i in range(k)) for p in elems}
        seen |= orbit
        size = len(orbit)
        comp = (size, order // size)
        acc[comp] = acc.get(comp, 0) + 1
    return FiniteGroupoid.from_counts(acc)


def increasing_factorial(g: FiniteGroupoid, n: int) -> FiniteGroupoid:
    """g x (g + [1]) x ... x (g + [n-1]); the empty product (unit) for n=0.

    Cardinality is the rising factorial |g| (|g|+1) ... (|g|+n-1).
    """
    if n < 0:
        raise DomainError("increasing factorial needs n >= 0")
    out = UNIT
    for i in range(n):
        out = out * (g + discrete(i))
    return out


def finite_from_json(obj) -> FiniteGroupoid:
    if not isinstance(obj, dict) or "components" not in obj:
        raise DomainError("groupoid JSON needs a \"components\" list")
    comps = obj["components"]
    if not isinstance(comps, list):
        raise DomainError("\"components\" must be a list of [k, a] pairs")
    parsed = []
    for entry in comps:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise DomainError("component %r is not a [k, a] pair" % (entry,))
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in entry):
            raise DomainError("component %r must hold two integers" % (entry,))
        parsed.append((entry[0], entry[1]))
    return FiniteGroupoid(parsed)


def groupoid_from_json(obj) -> "FiniteGroupoid | GradedGroupoid":
    """Parse either a plain {"components": ...} or a {"pos":, "neg":} pair."""
    if isinstance(obj, dict) and ("pos" in obj or "neg" in obj):
        if "pos" not in obj or "neg" not in obj or "components" in obj:
            raise DomainError(
                "graded groupoid JSON needs both \"pos\" and \"neg\" and no \"components\""
            )
        return GradedGroupoid(finite_from_json(obj["pos"]), finite_from_json(obj["neg"]))
    return finite_from_json(obj)


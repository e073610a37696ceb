"""Species: size-indexed families of graded groupoids.

A species assigns to every size vector (one entry per sort, 1 or 2 sorts) a
graded groupoid, uniformly in the labels, so only sizes matter.  Values are
memoized per species.  The combinators below mirror the calculus of
exponential generating series coefficientwise: sum is pointwise union, and
product splits the labels with binomial multiplicities.  The product is the
one labeled kernel: at each size, every split of the labels goes with its
binomial multiplicity into a single GradedGroupoid.sum_of_products
accumulation, so each value is built once.  Composition F(G1..Gs) is the
union over color counts k of F(k) times the power G1^k1 ... Gs^ks, with
multiplicities divided exactly by k1! ... ks!, and the alternating geometric
inverse R of 1 + F is the solution of R = 1 - F*R.

Default evaluation never touches individual labels: it counts how many
labeled configurations share each isomorphism type and replicates components
by that count.  The *_labeled functions enumerate an explicit labeled set
instead; they are the small-size oracles the fast paths are tested against.
"""

from __future__ import annotations

import itertools
import math
import operator
import weakref
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .numeric import DomainError, EnumerationLimitError, charge, enumerate_set_partitions, fraction_units
from .groupoid import (
    GRADED_EMPTY,
    GRADED_UNIT,
    FiniteGroupoid,
    GradedGroupoid,
    _trusted,
    increasing_factorial,
)
from .egf import TruncatedEGF, size_keys

__all__ = [
    "Species",
    "SizeVector",
    "constant_species",
    "one_species",
    "promote",
    "substitute_xy",
    "geom_inverse",
    "scaled_reciprocal",
    "binomial_power",
    "egf_of",
    "product_labeled",
    "compose_labeled",
    "geom_inverse_labeled",
]

SizeVector = tuple[int, ...]

# work units of one split of the labels in a product
_SPLIT_UNITS = 8


class Species:
    """A rule from size vectors to graded groupoids, memoized.

    Memoization is semantically invisible: rules must be pure, and repeated
    evaluation returns the same structure.  The innermost species a work
    budget runs out in names itself in the error.
    """

    __slots__ = ("sorts", "name", "_rule", "_memo", "__weakref__")

    def __init__(self, sorts: int, rule: Callable[[SizeVector], GradedGroupoid], name: str = "species"):
        if sorts not in (1, 2):
            raise DomainError("species support 1 or 2 sorts")
        self.sorts = sorts
        self.name = name
        self._rule = rule
        self._memo: dict[SizeVector, GradedGroupoid] = {}

    def value(self, sizes) -> GradedGroupoid:
        key = (sizes,) if isinstance(sizes, int) else tuple(sizes)
        got = self._memo.get(key)
        if got is None:
            if len(key) != self.sorts:
                raise DomainError(
                    "%s expects %d size(s), got %r" % (self.name, self.sorts, key)
                )
            if any(not isinstance(n, int) or n < 0 for n in key):
                raise DomainError("sizes must be nonnegative integers, got %r" % (key,))
            try:
                got = self._rule(key)
            except EnumerationLimitError as err:
                _locate(err, self, key)
                raise
            self._memo[key] = got
        return got

    def cardinality_at(self, sizes) -> Fraction:
        try:
            return self.value(sizes).cardinality()
        except EnumerationLimitError as err:
            _locate(err, self, sizes)
            raise

    # -- combinators ------------------------------------------------------

    def __add__(self, other: "Species") -> "Species":
        _check_sorts(self, other, "sum")
        return Species(
            self.sorts,
            lambda sizes: self.value(sizes) + other.value(sizes),
            "sum(%s,%s)" % (self.name, other.name),
        )

    def __mul__(self, other: "Species") -> "Species":
        _check_sorts(self, other, "prod")
        return Species(
            self.sorts,
            lambda sizes: _product_value(self, other, sizes),
            "prod(%s,%s)" % (self.name, other.name),
        )

    def hadamard(self, other: "Species") -> "Species":
        _check_sorts(self, other, "had")
        return Species(
            self.sorts,
            lambda sizes: self.value(sizes) * other.value(sizes),
            "had(%s,%s)" % (self.name, other.name),
        )

    def derivative(self, sort_index: int = 1) -> "Species":
        if not 1 <= sort_index <= self.sorts:
            raise DomainError("derivative: sort index %d out of range" % sort_index)
        i = sort_index - 1

        def rule(sizes: SizeVector) -> GradedGroupoid:
            bumped = sizes[:i] + (sizes[i] + 1,) + sizes[i + 1 :]
            return self.value(bumped)

        return Species(self.sorts, rule, "d/dx%d(%s)" % (sort_index, self.name))

    def positive_part(self) -> "Species":
        zero = (0,) * self.sorts

        def rule(sizes: SizeVector) -> GradedGroupoid:
            return GRADED_EMPTY if sizes == zero else self.value(sizes)

        return Species(self.sorts, rule, "pospart(%s)" % self.name)

    def replicate(self, m: int) -> "Species":
        """Pointwise disjoint union of m copies."""
        if m < 0:
            raise DomainError("replicate needs m >= 0")
        return Species(
            self.sorts,
            lambda sizes: self.value(sizes).replicate(m),
            "replicate(%d,%s)" % (m, self.name),
        )

    def negate(self) -> "Species":
        return Species(self.sorts, lambda sizes: -self.value(sizes), "negate(%s)" % self.name)

    __neg__ = negate

    def compose(self, *inner: "Species") -> "Species":
        """Plug one inner species G_i per sort of self: F(G1, ..., Gs).

        At sizes n the value is the union, over color counts k = (k1..ks)
        with |k| <= |n|, of F(k) times the power species G1^k1 ... Gs^ks at
        n, with every multiplicity divided by k1! ... ks!.  The power counts
        ordered lists of blocks, k_i of them colored i; permuting the blocks
        of each color acts freely, because the inner species are empty at
        size zero, so the division is exact and leaves one term per set
        partition with colored blocks.  The powers are built once per
        composed species by the ordinary product and memoized by k.
        """
        if len(inner) != self.sorts:
            raise DomainError(
                "compose: expected %d inner species, got %d" % (self.sorts, len(inner))
            )
        t = inner[0].sorts
        for g in inner:
            if g.sorts != t:
                raise DomainError("compose: inner species must share a sort count")
            _require_positive_part(g, "compose")
        name = "compose(%s,%s)" % (self.name, ",".join(g.name for g in inner))
        powers = {(0,) * self.sorts: one_species(t)}

        def power(k: SizeVector) -> Species:
            # walk up from the unit, the first color to k1, then the next; a
            # loop, because a closure that calls itself is a reference cycle
            got = powers[(0,) * len(k)]
            step = [0] * len(k)
            for i, m in enumerate(k):
                for j in range(1, m + 1):
                    step[i] = j
                    key = tuple(step)
                    nxt = powers.get(key)
                    if nxt is None:
                        nxt = powers[key] = got * inner[i]
                        # named by its exponents, not by the chain of products
                        nxt.name = "power(%s) of %s" % (",".join(map(str, key)), name)
                    got = nxt
            return got

        def rule(sizes: SizeVector) -> GradedGroupoid:
            total = sum(sizes)
            terms = []
            for k in size_keys(self.sorts, total):
                fv = self.value(k)
                if fv.is_empty:
                    continue
                pv = power(k).value(sizes)
                if pv.is_empty:
                    continue
                terms.append((fv, _divide_exact(pv, math.prod(map(math.factorial, k))), 1))
            return GradedGroupoid.sum_of_products(terms)

        return Species(t, rule, name)

    __call__ = compose

    def __repr__(self) -> str:
        return "Species(%s, sorts=%d)" % (self.name, self.sorts)


def _locate(err: EnumerationLimitError, f: Species, sizes) -> None:
    """Name the innermost species a kernel ran out of budget in, and its size."""
    if err.size is None:
        one = not isinstance(sizes, int) and len(sizes) == 1
        err.node, err.size = f.name, sizes[0] if one else sizes


def _check_sorts(f: Species, g: Species, op: str) -> None:
    if f.sorts != g.sorts:
        raise DomainError("%s: sort counts differ (%d vs %d)" % (op, f.sorts, g.sorts))


def _require_positive_part(f: Species, op: str) -> None:
    if not f.value((0,) * f.sorts).is_empty:
        raise DomainError("%s: species must be empty at size zero" % op)


def _vec_sub(a: SizeVector, b: SizeVector) -> SizeVector:
    return tuple(x - y for x, y in zip(a, b))


def _product_value(f: Species, g: Species, sizes: SizeVector) -> GradedGroupoid:
    # each split of the labels costs two lookups and a term, charged first
    ranges = [range(n + 1) for n in sizes]
    charge(_SPLIT_UNITS * math.prod(map(len, ranges)), "product", None)
    # memo hits skip Species.value; misses go through it, so a limit error
    # still names the innermost species
    fmemo, gmemo = f._memo, g._memo
    rows = [[math.comb(n, k) for k in range(n + 1)] for n in sizes]
    terms = []
    for left, binoms in zip(itertools.product(*ranges), itertools.product(*rows)):
        fv = fmemo.get(left)
        if fv is None:
            fv = f.value(left)
        if not fv._load:  # both halves empty
            continue
        right = tuple(map(operator.sub, sizes, left))
        gv = gmemo.get(right)
        if gv is None:
            gv = g.value(right)
        if not gv._load:
            continue
        terms.append((fv, gv, math.prod(binoms)))
    return GradedGroupoid.sum_of_products(terms)


def _divide_exact(g: GradedGroupoid, d: int) -> GradedGroupoid:
    """g with every component multiplicity divided by d.

    Callers divide by the order of a group acting freely, so a remainder is
    a bug and raises rather than rounding.
    """
    if d == 1:
        return g
    halves = []
    for half in (g.pos, g.neg):
        counts = {}
        for comp, count in half.parts:
            quot, rem = divmod(count, d)
            if rem:
                raise ArithmeticError(
                    "multiplicity %d of %r is not divisible by %d" % (count, comp, d)
                )
            counts[comp] = quot
        halves.append(_trusted(counts))
    return GradedGroupoid(*halves)


def constant_species(value: "FiniteGroupoid | GradedGroupoid", sorts: int = 1) -> Species:
    """The given groupoid at size zero, empty elsewhere."""
    fixed = GradedGroupoid.positive(value)
    zero = (0,) * sorts
    return Species(
        sorts,
        lambda sizes: fixed if sizes == zero else GRADED_EMPTY,
        "const",
    )


def one_species(sorts: int = 1) -> Species:
    """Unit groupoid at size zero, empty elsewhere: the product unit."""
    return constant_species(GRADED_UNIT, sorts)


def promote(f: Species, sort_index: int) -> Species:
    """View a single-sort species as a two-sort one in the given coordinate."""
    if f.sorts != 1:
        raise DomainError("promote needs a single-sort species")
    if sort_index not in (1, 2):
        raise DomainError("promote: sort index must be 1 or 2")
    i = sort_index - 1

    def rule(sizes: SizeVector) -> GradedGroupoid:
        if sizes[1 - i] != 0:
            return GRADED_EMPTY
        return f.value((sizes[i],))

    return Species(2, rule, "promote%d(%s)" % (sort_index, f.name))


def substitute_xy(f: Species) -> Species:
    """The two-sort species f(x*y): f's value paired with all bijections
    between the sorts, so it lives on the diagonal only.

    Structurally equal to composing f with the two-sort product species.
    """
    if f.sorts != 1:
        raise DomainError("substitute_xy needs a single-sort species")

    def rule(sizes: SizeVector) -> GradedGroupoid:
        a, b = sizes
        if a != b:
            return GRADED_EMPTY
        bijections = FiniteGroupoid.from_counts({(1, 1): math.factorial(a)})
        return f.value((a,)) * GradedGroupoid.positive(bijections)

    return Species(2, rule, "xy(%s)" % f.name)


def geom_inverse(f: Species) -> Species:
    """Alternating inverse R of 1 + f under product, from R = 1 - f*R.

    R is the unit at size zero and, above it, the negated product of f with
    R itself: the product's labeled split gives the first f-block and the
    rest, so R unfolds to the signed union over ordered decompositions of
    the labels into nonempty f-blocks, with multinomial multiplicities.
    Requires f to be empty at size zero, which makes the recursion
    well-founded.
    """
    _require_positive_part(f, "geominv")
    out = Species(f.sorts, lambda sizes: GRADED_EMPTY, "geominv(%s)" % f.name)
    # the rule reaches R weakly: a strong reference would be a cycle that
    # keeps R and its memo alive until the cyclic garbage collector runs
    me = weakref.proxy(out)
    zero = (0,) * f.sorts

    def rule(sizes: SizeVector) -> GradedGroupoid:
        if sizes == zero:
            return GRADED_UNIT
        return -_product_value(f, me, sizes)

    out._rule = rule
    return out


def scaled_reciprocal(a: int, b: int, f: Species) -> Species:
    """b copies of the one-object groupoid with a automorphisms, divided by
    1 plus that same constant times f.  The constant has cardinality b/a, so
    the whole thing decategorifies to (b/a) / (1 + (b/a)|f|) = 1/(a/b + |f|).
    """
    if a < 1 or b < 1:
        raise DomainError("scaled reciprocal needs positive a and b")
    _require_positive_part(f, "scaledrecip")
    scale = FiniteGroupoid.from_counts({(1, a): b})
    const = constant_species(scale, f.sorts)
    out = const * geom_inverse(const * f)
    out.name = "scaledrecip(%d,%d,%s)" % (a, b, f.name)
    return out


def binomial_power(a: int, b: int) -> Species:
    """Signed rising-factorial species decategorifying (1 + x)^(-a/b).

    At size n the value is the increasing factorial of a copies of the
    one-object groupoid with b automorphisms, graded by the parity of n.
    """
    if a < 1 or b < 1:
        raise DomainError("binomial power needs positive a and b")
    base = FiniteGroupoid.from_counts({(1, b): a})

    def rule(sizes: SizeVector) -> GradedGroupoid:
        (n,) = sizes
        g = increasing_factorial(base, n)
        return GradedGroupoid(pos=g) if n % 2 == 0 else GradedGroupoid(neg=g)

    return Species(1, rule, "binpow(%d,%d)" % (a, b))


def egf_of(f: Species, order: int) -> TruncatedEGF:
    """Cardinality table of f up to total size `order`; each coefficient
    is charged as one Fraction before any is computed."""
    if order < 0:
        raise DomainError("series order must be >= 0")
    charge(fraction_units(0) * math.comb(order + f.sorts, f.sorts), f.name, order)
    coeffs = {key: f.cardinality_at(key) for key in size_keys(f.sorts, order)}
    return TruncatedEGF(f.sorts, order, coeffs)


# -- labeled oracles ------------------------------------------------------


def _times(x: GradedGroupoid, y: GradedGroupoid) -> GradedGroupoid:
    """x * y with the sign rule spelled out apart from the fused kernel."""
    return GradedGroupoid(x.pos * y.pos + x.neg * y.neg, x.pos * y.neg + x.neg * y.pos)


def _tags(sizes: SizeVector) -> list[int]:
    out: list[int] = []
    for sort, n in enumerate(sizes):
        out.extend([sort] * n)
    return out


def _vec_of(block: Iterable[int], tags: Sequence[int], sorts: int) -> SizeVector:
    counts = [0] * sorts
    for idx in block:
        counts[tags[idx - 1]] += 1
    return tuple(counts)


def product_labeled(f: Species, g: Species, sizes) -> GradedGroupoid:
    """Product by explicit enumeration of all label subsets (oracle)."""
    sizes = (sizes,) if isinstance(sizes, int) else tuple(sizes)
    charge(1 << sum(sizes), "product oracle", sizes)
    terms = []
    for masks in itertools.product(*[range(1 << n) for n in sizes]):
        left = tuple(bin(m).count("1") for m in masks)
        fv = f.value(left)
        if fv.is_empty:
            continue
        gv = g.value(_vec_sub(sizes, left))
        if gv.is_empty:
            continue
        terms.append(_times(fv, gv))
    return GradedGroupoid.union_all(terms)


def compose_labeled(f: Species, inner: Sequence[Species], sizes) -> GradedGroupoid:
    """Composition by explicit partitions and block colorings (oracle)."""
    sizes = (sizes,) if isinstance(sizes, int) else tuple(sizes)
    total = sum(sizes)
    s = f.sorts
    t = len(sizes)
    tags = _tags(sizes)
    terms = []
    for partition in enumerate_set_partitions(total):
        charge(s ** len(partition) * len(partition), "compose oracle", sizes)
        vecs = [_vec_of(block, tags, t) for block in partition]
        for colors in itertools.product(range(s), repeat=len(partition)):
            counts = [0] * s
            for c in colors:
                counts[c] += 1
            val = f.value(tuple(counts))
            for vec, c in zip(vecs, colors):
                if val.is_empty:
                    break
                val = _times(val, inner[c].value(vec))
            if not val.is_empty:
                terms.append(val)
    return GradedGroupoid.union_all(terms)


def _ordered_set_compositions(
    indices: tuple[int, ...]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    if not indices:
        yield ()
        return
    m = len(indices)
    for mask in range(1, 1 << m):
        block = tuple(indices[i] for i in range(m) if mask >> i & 1)
        rest = tuple(indices[i] for i in range(m) if not mask >> i & 1)
        for tail in _ordered_set_compositions(rest):
            yield (block,) + tail


def geom_inverse_labeled(f: Species, sizes) -> GradedGroupoid:
    """Geometric inverse by explicit ordered set compositions (oracle)."""
    sizes = (sizes,) if isinstance(sizes, int) else tuple(sizes)
    total = sum(sizes)
    t = len(sizes)
    tags = _tags(sizes)
    terms = []
    for blocks in _ordered_set_compositions(tuple(range(1, total + 1))):
        charge(len(blocks), "geominv oracle", sizes)
        val = GRADED_UNIT
        for block in blocks:
            if val.is_empty:
                break
            val = _times(val, f.value(_vec_of(block, tags, t)))
        if val.is_empty:
            continue
        terms.append(val if len(blocks) % 2 == 0 else -val)
    return GradedGroupoid.union_all(terms)

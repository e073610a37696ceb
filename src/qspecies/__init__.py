"""Exact rational cardinalities of finite groupoids and combinatorial species.

Every positive rational a/b is the cardinality of a finite groupoid: a
one-object components with b automorphisms each give a/b, as each component
counts 1/(automorphism order); signed pairs reach the negatives.  Species turn
those groupoids into exponential generating series with exact coefficients,
and the alternating geometric inverse produces Bernoulli and Euler tables by
purely combinatorial means, cross-checked against series arithmetic.
"""

from .numeric import (
    DomainError,
    EnumerationLimitError,
    enumerate_set_partitions,
    format_rational,
    multinomial,
)
from .groupoid import (
    FiniteGroupoid,
    GradedGroupoid,
    GroupAction,
    cardinality,
    discrete,
    group_of_order,
    increasing_factorial,
    power_quotient,
    quotient,
)
from .species import (
    Species,
    binomial_power,
    constant_species,
    egf_of,
    geom_inverse,
    one_species,
    promote,
    scaled_reciprocal,
    substitute_xy,
)
from .egf import Polynomial, TruncatedEGF, binomial_series, exp_series
from .catalog import builtin_names, make
from .numbers import NumberTable, PolynomialTable

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "EnumerationLimitError",
    "format_rational",
    "multinomial",
    "enumerate_set_partitions",
    "FiniteGroupoid",
    "GradedGroupoid",
    "GroupAction",
    "cardinality",
    "discrete",
    "group_of_order",
    "quotient",
    "power_quotient",
    "increasing_factorial",
    "Species",
    "constant_species",
    "one_species",
    "promote",
    "substitute_xy",
    "geom_inverse",
    "scaled_reciprocal",
    "binomial_power",
    "egf_of",
    "TruncatedEGF",
    "Polynomial",
    "exp_series",
    "binomial_series",
    "make",
    "builtin_names",
    "NumberTable",
    "PolynomialTable",
    "__version__",
]

"""No two routes of one kind share the code whose agreement they witness.

Every route of every kind runs at a small order under `sys.setprofile`, as
the command line runs it: inside a work meter, through `route_table`.  The
profile records each function of the package that the route calls.  A
function that two routes of the same kind both call must be on an
allowlist, with the reason it may be shared.
"""

import itertools
import sys

import pytest

from qspecies import numbers
from qspecies.numeric import work_meter

ORDER = 6

# (kind, level) pairs whose routes are compared with each other
TABLES = [
    ("bernoulli", 1),
    ("bernoulli", 2),
    ("bernoulli-polynomials", 1),
    ("bernoulli-polynomials", 2),
    ("euler", 1),
    ("euler-polynomials", 1),
]

# function -> why the routes of one kind may share it
SHARED = {
    "numeric.charge": "the work meter",
    "numeric.weight": "the work meter",
    "numeric.fraction_units": "the work meter",
    "numeric.work_meter": "the work meter",
    "numbers.route_table": "dispatch: looks the builder up, computes nothing",
    "numbers._kind": "the table's label, not its values",
    "numbers.NumberTable.__init__": "the table container",
    "numbers.PolynomialTable.__init__": "the table container",
}

# shared by the polynomial kinds only
POLYNOMIAL_SHARED = {
    "egf.Polynomial.__init__": "gate C05 reads .polys as Polynomial objects",
}

# the dataclass-generated __init__ methods all carry one qualified name
_TABLE_INITS = {
    cls.__init__.__code__: "%s.__init__" % cls.__qualname__
    for cls in (numbers.NumberTable, numbers.PolynomialTable)
}


def _calls(kind: str, route: str, level: int) -> set[str]:
    """The package functions one route calls, named module.qualname; code
    nested in a function (a comprehension, a lambda) counts as that function."""
    called = set()

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("qspecies."):
            code = frame.f_code
            name = _TABLE_INITS.get(code) or code.co_qualname.split(".<locals>.")[0]
            called.add("%s.%s" % (module[len("qspecies."):], name))

    sys.setprofile(profile)
    try:
        with work_meter():
            numbers.route_table(kind, route, ORDER, level)
    finally:
        sys.setprofile(None)
    return called


@pytest.mark.parametrize("kind,level", TABLES)
def test_routes_share_only_allowlisted_code(kind, level):
    allowed = dict(SHARED)
    if kind.endswith("-polynomials"):
        allowed.update(POLYNOMIAL_SHARED)
    calls = {route: _calls(kind, route, level) for route in numbers.routes(kind, level)}
    assert len(calls) >= 2
    shared = {}
    for (route, names), (other, other_names) in itertools.combinations(calls.items(), 2):
        for name in (names & other_names) - set(allowed):
            shared.setdefault(name, []).append("%s+%s" % (route, other))
    assert shared == {}

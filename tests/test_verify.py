import pytest

from qspecies.numeric import DomainError
from qspecies.verify import (
    SUITES,
    LawReport,
    factorial_suite,
    inverse_suite,
    quotient_suite,
    run_suites,
    valuation_suite,
)

ALL_LAWS = {
    "valuation-sum",
    "valuation-prod",
    "valuation-had",
    "valuation-deriv",
    "valuation-compose",
    "inverse-geominv",
    "inverse-scaledrecip",
    "quotient-cardinality",
    "quotient-multiset-count",
    "factorial-rising",
}


def test_all_suites_pass():
    reports = run_suites("all", order=6, seed=0, trials=30)
    assert {r.law for r in reports} == ALL_LAWS
    for r in reports:
        assert r.failed == 0
        assert r.checked > 0


def test_all_runs_every_suite_in_table_order():
    # every suite takes (order, seed, trials), positionally
    args = (5, 2, 5)
    expected = [report for suite in SUITES.values() for report in suite(*args)]
    assert run_suites("all", *args) == expected
    assert run_suites("quotient", *args)[0].checked == 5


def test_suites_are_deterministic():
    a = run_suites("valuation", order=5, seed=3, trials=20)
    b = run_suites("valuation", order=5, seed=3, trials=20)
    assert a == b


def test_single_suite_selection():
    reports = run_suites("quotient", trials=10)
    assert {r.law for r in reports} == {"quotient-cardinality", "quotient-multiset-count"}


def test_unknown_suite():
    with pytest.raises(DomainError):
        run_suites("nope")


def test_individual_suites():
    for r in valuation_suite(order=5, seed=1, trials=10):
        assert r.failed == 0
    for r in inverse_suite(order=8):
        assert r.failed == 0
    for r in quotient_suite(seed=1, trials=20):
        assert r.failed == 0
    for r in factorial_suite(seed=1, trials=20):
        assert r.failed == 0


def test_report_shape():
    r = LawReport("x", 3, 1)
    assert (r.law, r.checked, r.failed) == ("x", 3, 1)

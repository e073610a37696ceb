"""Independent reference answers and the output checker.

Everything here is stdlib `fractions.Fraction` arithmetic that shares no code
with the program:

* Bernoulli numbers by the Akiyama-Tanigawa algorithm;
* level-N tables by a power-series reciprocal of (e^x - sum_{k<N} x^k/k!)
  divided by x^N/N!;
* Euler values E_n(0) from the Bernoulli numbers by
  E_n(0) = -2 (2^(n+1) - 1) B_(n+1) / (n+1), and all polynomial rows as the
  Appell sums sum_k binom(n, k) c_k x^(n-k);
* closed forms for the egf expression family of the `species` workload;
* for `verify`, exit 0 with exactly the suite's laws, each `status=PASS`.

`check` turns one request and the program's reply into None (correct) or a
reason string.  `selftest` shows on a real reply that a corrupted table is
caught.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache


def rational(value: Fraction) -> str:
    return "%d/%d" % (value.numerator, value.denominator)


@lru_cache(maxsize=None)
def bernoulli_numbers(count: int) -> tuple[Fraction, ...]:
    """B_0..B_count with B_1 = -1/2 (Akiyama-Tanigawa)."""
    row: list[Fraction] = []
    out = []
    for m in range(count + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if count >= 1:
        out[1] = -out[1]
    return tuple(out)


def _reciprocal(series: list[Fraction]) -> list[Fraction]:
    """Ordinary power-series reciprocal, same length as the input."""
    inv = [1 / series[0]]
    for n in range(1, len(series)):
        acc = sum(series[k] * inv[n - k] for k in range(1, n + 1))
        inv.append(-acc / series[0])
    return inv


def _egf_coefficients(ordinary: list[Fraction]) -> tuple[Fraction, ...]:
    return tuple(c * math.factorial(n) for n, c in enumerate(ordinary))


@lru_cache(maxsize=None)
def generalized_bernoulli(level: int, count: int) -> tuple[Fraction, ...]:
    """EGF coefficients of (x^N/N!) / (e^x - sum_{k<N} x^k/k!)."""
    if level == 1:
        return bernoulli_numbers(count)
    tail = [Fraction(math.factorial(level), math.factorial(k + level)) for k in range(count + 1)]
    return _egf_coefficients(_reciprocal(tail))


@lru_cache(maxsize=None)
def euler_numbers(count: int) -> tuple[Fraction, ...]:
    """E_n(0), the EGF coefficients of 2 / (1 + e^x)."""
    b = bernoulli_numbers(count + 1)
    return tuple(-2 * (2 ** (n + 1) - 1) * b[n + 1] / (n + 1) for n in range(count + 1))


def appell_rows(values: tuple[Fraction, ...]) -> list[list[Fraction]]:
    """Rows sum_k binom(n, k) c_k x^(n-k), constant term first, trailing zeros cut."""
    rows = []
    for n in range(len(values)):
        row = [math.comb(n, n - j) * values[n - j] for j in range(n + 1)]
        while row and row[-1] == 0:
            row.pop()
        rows.append(row)
    return rows


def touchard(n: int, x: int) -> int:
    """sum_k S(n, k) x^k, the n-th EGF coefficient of exp(x (e^t - 1))."""
    stirling = [1]  # S(m, 0..m), starting at m = 0
    for m in range(n):
        nxt = [0] * (m + 2)
        for k, s in enumerate(stirling):
            nxt[k] += k * s
            nxt[k + 1] += s
        stirling = nxt
    return sum(s * x ** k for k, s in enumerate(stirling))


# -- expected outputs ------------------------------------------------------


def _options(argv: list[str]) -> tuple[str, dict[str, str], bool]:
    opts = {}
    i = 1
    if argv[0] == "egf":
        opts["expr"] = argv[1]
        i = 2
    while i < len(argv):
        if argv[i] == "--poly":
            i += 1
            continue
        opts[argv[i][2:]] = argv[i + 1]
        i += 2
    return argv[0], opts, "--poly" in argv


def _number_table(verb: str, level: int, poly: bool, order: int):
    if verb == "bernoulli":
        values = generalized_bernoulli(level, order)
    else:
        values = euler_numbers(order)
    if poly:
        return [[rational(c) for c in row] for row in appell_rows(values)]
    return [rational(v) for v in values]


def _expected_tables(verb: str, opts: dict[str, str], poly: bool) -> tuple[dict, list[str]]:
    order = int(opts["order"])
    level = int(opts.get("N", "1"))
    route = opts.get("route", "all")
    kind = verb + ("-polynomials" if poly else "")
    if level != 1:
        kind += "(N=%d)" % level
    if route != "all":
        routes = [route]
    elif verb == "bernoulli" and level != 1:
        routes = ["species", "series"]
    else:
        routes = ["species", "series", "formula"]
    table = _number_table(verb, level, poly, order)
    if len(routes) == 1:
        obj = {"kind": kind, "order": order, "route": routes[0], ("polynomials" if poly else "values"): table}
    else:
        obj = {"kind": kind, "order": order, "routes": {r: table for r in routes}, "verdict": "MATCH"}
    lines = []
    for r in routes:
        for n, row in enumerate(table):
            lines.append(",".join([r, str(n)] + (row if poly else [row])))
    if len(routes) > 1:
        lines.append("verdict,MATCH")
    return obj, lines


_HAD = re.compile(r"had\(Zpow\((\d+)\),Spow\((\d+)\)\)$")
_SCALED = re.compile(r"scaledrecip\((\d+),(\d+),pospart\(Exp\)\)$")
_BINPOW = re.compile(r"binpow\((\d+),(\d+)\)$")


def _one_sort_closed_form(expr: str, order: int) -> list[Fraction]:
    if expr == "geominv(pospart(d/dx1(Z)))":  # x / (e^x - 1)
        return list(bernoulli_numbers(order))
    if expr == "prod(Exp,geominv(pospart(Exp)))":  # e^x / e^x
        return [Fraction(1)] + [Fraction(0)] * order
    m = _HAD.match(expr)
    if m:  # 1 / (n^a (n!)^b) for n >= 1
        a, b = int(m.group(1)), int(m.group(2))
        return [Fraction(0)] + [Fraction(1, n ** a * math.factorial(n) ** b) for n in range(1, order + 1)]
    m = _SCALED.match(expr)
    if m:  # 1 / (a/b - 1 + e^x)
        a, b = int(m.group(1)), int(m.group(2))
        den = [Fraction(a, b)] + [Fraction(1, math.factorial(k)) for k in range(1, order + 1)]
        return list(_egf_coefficients(_reciprocal(den)))
    m = _BINPOW.match(expr)
    if m:  # (1 + x)^(-a/b)
        r = Fraction(int(m.group(1)), int(m.group(2)))
        out, acc = [], Fraction(1)
        for n in range(order + 1):
            out.append(acc if n % 2 == 0 else -acc)
            acc *= r + n
        return out
    raise ValueError("no closed form for %r" % expr)


def _expected_egf(opts: dict[str, str]) -> tuple[dict, list[str]]:
    expr, order = opts["expr"], int(opts["order"])
    if expr == "compose(Exp2,pospart(Exp2),pospart(Exp2))":
        # exp(2 (e^(x+y) - 1)): the (a, b) coefficient depends on a + b only
        pairs = [
            ["%d,%d" % (a, d - a), rational(Fraction(touchard(d, 2)))]
            for d in range(order + 1)
            for a in range(d + 1)
        ]
        nvars = 2
    else:
        values = _one_sort_closed_form(expr, order)
        pairs = [[str(n), rational(v)] for n, v in enumerate(values)]
        nvars = 1
    obj = {"vars": nvars, "order": order, "coefficients": pairs}
    return obj, ["size,coefficient"] + ["%s,%s" % (k, v) for k, v in pairs]


_LAWS = {
    "valuation": ["valuation-sum", "valuation-prod", "valuation-had", "valuation-deriv", "valuation-compose"],
    "inverse": ["inverse-geominv", "inverse-scaledrecip"],
    "quotient": ["quotient-cardinality", "quotient-multiset-count"],
    "factorial": ["factorial-rising"],
}
# laws whose checked count is the --trials value
_PER_TRIAL = {"valuation-sum", "valuation-prod", "valuation-had", "valuation-deriv",
              "valuation-compose", "quotient-cardinality", "factorial-rising"}
_LAW_LINE = re.compile(r"law=(\S+) checked=(\d+) failed=(\d+) status=(\S+)$")


def _check_verify(opts: dict[str, str], out: str) -> str | None:
    expected = _LAWS[opts["suite"]]
    lines = out.splitlines()
    if len(lines) != len(expected):
        return "expected %d laws, got %d lines" % (len(expected), len(lines))
    for line, law in zip(lines, expected):
        m = _LAW_LINE.match(line)
        if not m or m.group(1) != law:
            return "unexpected law line %r" % line
        if m.group(3) != "0" or m.group(4) != "PASS":
            return "law failed: %r" % line
        checked = int(m.group(2))
        if checked < 1 or (law in _PER_TRIAL and checked != int(opts["trials"])):
            return "law checked a wrong number of cases: %r" % line
    return None


def check(argv: list[str], rc, out: str, err: str) -> str | None:
    """None if the reply is right for argv, else why it is wrong."""
    if rc != 0:
        return "exit code %r: %s" % (rc, err.strip()[:200])
    verb, opts, poly = _options(argv)
    if verb == "verify":
        return _check_verify(opts, out)
    if verb == "egf":
        obj, lines = _expected_egf(opts)
    else:
        obj, lines = _expected_tables(verb, opts, poly)
    if opts.get("format", "json") == "csv":
        if out.splitlines() != lines:
            return "csv table differs from the reference"
        return None
    try:
        got = json.loads(out)
    except ValueError:
        return "output is not JSON"
    if got != obj:
        if isinstance(got, dict) and got.get("verdict") not in (None, "MATCH"):
            return "route verdict %r" % got.get("verdict")
        return "json table differs from the reference"
    return None


_RATIONAL = re.compile(r"(-?\d+)/(\d+)")


def corrupt(out: str) -> str:
    """The same output with its last rational's numerator increased by one."""
    last = list(_RATIONAL.finditer(out))[-1]
    bumped = "%d/%s" % (int(last.group(1)) + 1, last.group(2))
    return out[: last.start()] + bumped + out[last.end() :]


def selftest(argv: list[str], out: str) -> str | None:
    """A real correct reply must pass and its corrupted copy must fail."""
    if check(argv, 0, out, "") is not None:
        return "checker rejects a correct reply to %s" % " ".join(argv)
    if check(argv, 0, corrupt(out), "") is None:
        return "checker accepts a corrupted reply to %s" % " ".join(argv)
    return None

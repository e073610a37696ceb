import json
import os
import resource
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import qspecies
from qspecies.cli import main
from qspecies.numbers import ROUTES, NumberTable, routes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def groupoid_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"components": [[2, 1], [1, 2]]}))
    return str(path)


def test_card(capsys, groupoid_file):
    code, out, err = run(capsys, "card", groupoid_file)
    assert code == 0
    assert out == "3/2\n"
    assert err == ""


def test_card_replicated_and_empty(capsys, tmp_path):
    path = tmp_path / "three.json"
    path.write_text(json.dumps({"components": [[1, 2], [1, 2], [1, 2]]}))
    code, out, _ = run(capsys, "card", str(path))
    assert (code, out) == (0, "3/2\n")
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"components": []}))
    code, out, _ = run(capsys, "card", str(empty))
    assert (code, out) == (0, "0/1\n")


def test_card_graded(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(
        json.dumps(
            {
                "pos": {"components": [[1, 1]]},
                "neg": {"components": [[1, 2], [1, 2], [1, 2]]},
            }
        )
    )
    code, out, _ = run(capsys, "card", str(path))
    assert code == 0
    assert out == "-1/2\n"


def test_card_missing_file(capsys):
    code, out, err = run(capsys, "card", "/no/such/file.json")
    assert code == 2
    assert err.startswith("error[input]:")


def test_card_bad_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "card", str(path))
    assert code == 2
    assert err.startswith("error[input]:")


def test_card_bad_components(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"components": [[0, 1]]}))
    code, _, err = run(capsys, "card", str(path))
    assert code == 2
    assert err.startswith("error[domain]:")


@pytest.mark.parametrize("component", [[1.5, 2], [True, 1], ["1", 2]])
def test_card_rejects_non_integer_components(capsys, tmp_path, component):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"components": [component]}))
    code, out, err = run(capsys, "card", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error[domain]:")


@pytest.mark.parametrize(
    "obj",
    [
        {"pos": {"components": [[1, 1]]}},
        {"neg": {"components": [[1, 1]]}},
        {"components": [[1, 1]], "neg": {"components": [[1, 2]]}},
        {"components": [[1, 1]], "pos": {"components": [[1, 1]]}, "neg": {"components": []}},
    ],
)
def test_card_rejects_half_graded_pair(capsys, tmp_path, obj):
    path = tmp_path / "half.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "card", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error[domain]:")


def test_card_non_utf8_file(capsys, tmp_path):
    path = tmp_path / "bytes.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "card", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error[input]:")


def test_card_integer_past_digit_limit(capsys, tmp_path):
    # json reads a 5000-digit integer as a plain ValueError, not a decode error
    path = tmp_path / "huge.json"
    path.write_text('{"components": [[1, %s]]}' % ("9" * 5000))
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no integer digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default, whatever the environment sets
    try:
        code, out, err = run(capsys, "card", str(path))
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (2, "")
    assert err.startswith("error[input]:") and "4300 digits" in err
    assert len(err.splitlines()) == 1
    # advice for programmers, which a user of the command cannot act on
    assert "set_int_max_str_digits" not in err


def test_egf_json_default_order(capsys):
    code, out, _ = run(capsys, "egf", "Exp")
    assert code == 0
    payload = json.loads(out)
    assert payload["vars"] == 1
    assert payload["order"] == 20
    assert len(payload["coefficients"]) == 21
    assert payload["coefficients"][3] == ["3", "1/1"]


def test_egf_two_sort_default_order(capsys):
    code, out, _ = run(capsys, "egf", "XY")
    assert code == 0
    payload = json.loads(out)
    assert payload["vars"] == 2
    assert payload["order"] == 12
    assert ["1,1", "1/1"] in payload["coefficients"]


def test_egf_csv_frozen(capsys):
    code, out, _ = run(capsys, "egf", "Zpow(1)", "--order", "4", "--format", "csv")
    assert code == 0
    assert out == "size,coefficient\n0,0/1\n1,1/1\n2,1/2\n3,1/3\n4,1/4\n"


def test_egf_combinator_expression(capsys):
    code, out, _ = run(
        capsys, "egf", "geominv(pospart(Exp))", "--order", "6", "--format", "csv"
    )
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert [r.split(",")[1] for r in rows] == ["1/1", "-1/1", "1/1", "-1/1", "1/1", "-1/1", "1/1"]


def test_egf_bernoulli_expression(capsys):
    # the alternating inverse of the shifted pointed-cycle species generates
    # the classical second-row numbers
    code, out, _ = run(
        capsys,
        "egf",
        "geominv(pospart(d/dx1(Zpow(1))))",
        "--order",
        "4",
        "--format",
        "csv",
    )
    assert code == 0
    assert out == "size,coefficient\n0,1/1\n1,-1/2\n2,1/6\n3,0/1\n4,-1/30\n"


def test_egf_binpow_expression(capsys):
    code, out, _ = run(capsys, "egf", "binpow(1,2)", "--order", "3", "--format", "csv")
    assert code == 0
    assert out == "size,coefficient\n0,1/1\n1,-1/2\n2,3/4\n3,-15/8\n"


def test_egf_psym7(capsys):
    # k-multisets at k = 7 count n^7/7!; S7 (5040 elements) is built and
    # validated once, which must not stall
    code, out, _ = run(capsys, "egf", "PSym(7)", "--order", "2", "--format", "csv")
    assert code == 0
    assert out == "size,coefficient\n0,0/1\n1,1/5040\n2,8/315\n"


def test_egf_parse_error(capsys):
    code, _, err = run(capsys, "egf", "sum(Exp,")
    assert code == 2
    assert err.startswith("error[parse]: position 8:")


def test_egf_parse_depth(capsys):
    # deep nesting is a parse error, not a RecursionError with a traceback
    deep = "negate(" * 3000 + "Exp" + ")" * 3000
    code, out, err = run(capsys, "egf", deep, "--order", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error[parse]:") and "nest deeper than 100" in err
    assert len(err.splitlines()) == 1
    # a hundred levels still evaluate
    code, out, err = run(capsys, "egf", "negate(" * 100 + "Exp" + ")" * 100, "--order", "3")
    assert (code, err) == (0, "")
    assert json.loads(out)["coefficients"][3] == ["3", "1/1"]
    code, _, err = run(capsys, "egf", "Group(%s)" % ("9" * 5000))
    assert code == 2
    assert err.startswith("error[parse]:") and "too long" in err


def test_egf_long_rationals(capsys):
    # one object with n^5000 automorphisms: coefficient 1/n^5000, printed in
    # full far past the interpreter's 4300-digit limit on str(int)
    code, out, err = run(capsys, "egf", "Zpow(5000)", "--order", "30", "--format", "csv")
    assert (code, err) == (0, "")
    rows = dict(line.split(",") for line in out.splitlines()[1:])
    assert rows["10"] == "1/1" + "0" * 5000
    assert rows["30"] == "1/" + str(3 ** 5000) + "0" * 5000


def test_egf_unknown_name(capsys):
    code, _, err = run(capsys, "egf", "Mystery")
    assert code == 2
    assert "unknown builtin" in err


def test_egf_limit_error(capsys):
    # order 31 passed the old product cap; the budget refuses 300001
    # coefficients before computing any
    code, out, err = run(capsys, "egf", "prod(Exp,Exp)", "--order", "31")
    assert (code, err) == (0, "")
    assert json.loads(out)["coefficients"][31] == ["31", "2147483648/1"]
    code, out, err = run(capsys, "egf", "prod(Exp,Exp)", "--order", "300000")
    assert (code, out) == (2, "")
    assert err.startswith("error[limit]: prod(Exp,Exp) at size 300000 needs 3000010 more work units")


def test_compose_limit_names_power_briefly(capsys):
    # a power species is named by its exponents and its compose, not by the
    # chain of products that builds it
    expr = "compose(Exp2,pospart(Exp2),pospart(Exp2))"
    code, out, err = run(capsys, "egf", expr, "--order", "30")
    assert (code, out) == (2, "")
    _check_limit_line(err)
    assert len(err.rstrip("\n")) < 200
    assert err.startswith("error[limit]: power(") and " of %s at size " % expr in err
    assert "prod(" not in err


# inputs that once stalled, ran out of memory or were refused by a size cap
BUDGET_PROBES = [
    ["egf", "Spow(99999999)", "--order", "3"],
    ["egf", "Spow(3)", "--order", "100000000"],
    ["egf", "Exp", "--order", "3000000"],
    ["egf", "XY", "--order", "3000"],
    ["egf", "binpow(1,2)", "--order", "400"],
    ["bernoulli", "--route", "series", "--order", "2000"],
    ["euler", "--route", "formula", "--order", "3000"],
    ["verify", "--trials", "100000000"],
    ["verify", "--order", "100"],
    ["bernoulli", "--N", "30", "--order", "30"],
    ["egf", "PCyc(500)", "--order", "3"],
    ["bernoulli", "--route", "formula", "--order", "100000"],
    # the series reciprocal scanned every coefficient for each row, and the
    # diagonal substitution built every n! before any charge
    ["bernoulli", "--route", "series", "--order", "20000"],
    ["bernoulli", "--poly", "--route", "series", "--order", "5000"],
    ["euler", "--poly", "--route", "series", "--order", "10000"],
]

# probes whose limit line must be short, with the text that keeps it so:
# a brief node name, or the magnitude of an enormous charge
SHORT_NAMES = {
    ("bernoulli", "--N", "30", "--order", "30"): "replicate(30!,",
    ("egf", "PCyc(500)", "--order", "3"): "needs over 10^153 more",
}


def _check_limit_line(err: str) -> None:
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error[limit]: ")
    # the node and its size, then the work spent against the budget
    assert " needs " in lines[0] and " more work units with " in lines[0]
    assert lines[0].endswith("-unit budget spent")


@pytest.mark.parametrize("argv", BUDGET_PROBES, ids=lambda argv: " ".join(argv))
def test_budget_probes(capsys, argv):
    started = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - started < 10  # a loose stall guard
    assert (code, out) == (2, "")
    _check_limit_line(err)
    name = SHORT_NAMES.get(tuple(argv))
    if name is not None:
        assert name in err and len(err.rstrip("\n")) < 200


def test_budget_probe_huge_level():
    # before the budget this filled memory; run it apart, with a memory limit
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "qspecies.cli", "bernoulli", "--N", "100000", "--order", "2"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
        preexec_fn=limit_memory,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    _check_limit_line(proc.stderr)
    assert "level factorial at size 100000" in proc.stderr


@pytest.mark.parametrize("order", ["26", "40"])
def test_bernoulli_past_old_caps(capsys, order):
    code, out, err = run(capsys, "bernoulli", "--order", order)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["verdict"] == "MATCH"
    assert payload["routes"]["formula"][26] == "8553103/6"


@pytest.mark.parametrize(
    "argv",
    [
        # the Euler recurrence built every polynomial and tripped at size 61
        ["euler", "--order", "100"],
        # the dynamic program over denominators tripped at size 50
        ["bernoulli", "--route", "formula", "--order", "200"],
    ],
    ids=" ".join,
)
def test_tables_past_old_caps(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out).get("verdict", "MATCH") == "MATCH"


def test_bernoulli_default_json(capsys):
    code, out, _ = run(capsys, "bernoulli")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "bernoulli"
    assert payload["order"] == 10
    assert payload["verdict"] == "MATCH"
    assert set(payload["routes"]) == {"species", "series", "formula"}
    head = ["1/1", "-1/2", "1/6", "0/1", "-1/30", "0/1", "1/42", "0/1", "-1/30", "0/1", "5/66"]
    for route in payload["routes"].values():
        assert route == head


def test_bernoulli_single_route_csv_frozen(capsys):
    code, out, _ = run(
        capsys, "bernoulli", "--route", "formula", "--order", "4", "--format", "csv"
    )
    assert code == 0
    assert out == "formula,0,1/1\nformula,1,-1/2\nformula,2,1/6\nformula,3,0/1\nformula,4,-1/30\n"


def test_bernoulli_all_routes_csv_has_verdict(capsys):
    code, out, _ = run(capsys, "bernoulli", "--order", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "verdict,MATCH"
    assert len(lines) == 3 * 4 + 1


def test_bernoulli_level_two(capsys):
    code, out, _ = run(capsys, "bernoulli", "--N", "2", "--order", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "bernoulli(N=2)"
    assert set(payload["routes"]) == {"species", "series"}
    assert payload["routes"]["species"] == ["1/1", "-1/3", "1/18", "1/90", "-1/270"]
    assert payload["verdict"] == "MATCH"


def test_bernoulli_formula_rejected_above_level_one(capsys):
    code, _, err = run(capsys, "bernoulli", "--N", "2", "--route", "formula")
    assert code == 2
    assert err.startswith("error[domain]:")
    assert "N=1" in err


# every table command: verb, --poly, level
TABLE_CASES = [("bernoulli", poly, level) for poly in (False, True) for level in (1, 2, 3)]
TABLE_CASES += [("euler", poly, 1) for poly in (False, True)]


@pytest.mark.parametrize("verb,poly,level", TABLE_CASES)
def test_route_all_prints_the_table_routes(capsys, verb, poly, level):
    argv = [verb, "--order", "3"] + (["--poly"] if poly else [])
    if verb == "bernoulli":
        argv += ["--N", str(level)]
    expected = ["species", "series", "formula"] if level == 1 else ["species", "series"]
    kind = verb + ("-polynomials" if poly else "")
    assert routes(kind, level) == expected
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert list(json.loads(out)["routes"]) == expected
    # a route of the table that is missing at this level is a domain error
    for route in ROUTES[kind]:
        if route not in expected:
            code, out, err = run(capsys, *argv, "--route", route)
            assert (code, out) == (2, "")
            assert err == "error[domain]: route %r is defined for N=1 only\n" % route


def test_bernoulli_poly_json(capsys):
    code, out, _ = run(capsys, "bernoulli", "--poly", "--order", "2", "--route", "series")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "bernoulli-polynomials"
    assert payload["polynomials"] == [["1/1"], ["-1/2", "1/1"], ["1/6", "-1/1", "1/1"]]


def test_bernoulli_poly_all_routes(capsys):
    code, out, _ = run(capsys, "bernoulli", "--poly", "--order", "5")
    assert code == 0
    assert json.loads(out)["verdict"] == "MATCH"


@pytest.mark.parametrize("command", ["bernoulli", "euler"])
def test_poly_all_routes_order_13(capsys, command):
    # the species route evaluates only the rows it returns, the triangle
    # a <= n <= 13 of the two-sort table
    code, out, err = run(capsys, command, "--poly", "--order", "13")
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"] == "MATCH"


def test_bernoulli_bad_order(capsys):
    code, _, err = run(capsys, "bernoulli", "--order", "-1")
    assert code == 2
    assert err.startswith("error[domain]:")
    code, _, err = run(capsys, "bernoulli", "--N", "0")
    assert code == 2


def test_euler_default_json(capsys):
    code, out, _ = run(capsys, "euler", "--order", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "euler"
    assert payload["verdict"] == "MATCH"
    assert payload["routes"]["series"] == [
        "1/1", "-1/2", "0/1", "1/4", "0/1", "-1/2", "0/1", "17/8",
    ]


def test_euler_poly_csv_frozen(capsys):
    code, out, _ = run(
        capsys, "euler", "--poly", "--route", "formula", "--order", "2", "--format", "csv"
    )
    assert code == 0
    assert out == "formula,0,1/1\nformula,1,-1/2,1/1\nformula,2,0/1,-1/1,1/1\n"


def test_euler_outputs_are_deterministic(capsys):
    first = run(capsys, "euler", "--order", "6")
    second = run(capsys, "euler", "--order", "6")
    assert first == second


def test_mismatch_exits_one(capsys, monkeypatch):
    # sabotage one route to confirm disagreement is loud and nonzero
    def fake(count):
        return NumberTable("bernoulli", (Fraction(0),) * (count + 1))

    monkeypatch.setattr("qspecies.numbers.bernoulli_formula", fake)
    code, out, _ = run(capsys, "bernoulli", "--order", "4")
    assert code == 1
    assert json.loads(out)["verdict"] == "MISMATCH"
    code, out, _ = run(capsys, "bernoulli", "--order", "4", "--format", "csv")
    assert code == 1
    assert out.strip().split("\n")[-1] == "verdict,MISMATCH"


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "20")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 10
    for line in lines:
        assert line.startswith("law=")
        assert "failed=0" in line
        assert line.endswith("status=PASS")


def test_verify_honours_quotient_trials(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "quotient", "--trials", "10")
    assert code == 0
    assert out.splitlines()[0] == "law=quotient-cardinality checked=10 failed=0 status=PASS"


def test_verify_single_suite_deterministic(capsys):
    first = run(capsys, "verify", "--suite", "quotient", "--seed", "5")
    second = run(capsys, "verify", "--suite", "quotient", "--seed", "5")
    assert first == second
    assert first[0] == 0


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run(capsys, "verify", "--trials", "-5")
    assert (code, out) == (2, "")
    assert err.startswith("error[domain]: --trials")


@pytest.mark.parametrize("suite", ["all", "valuation", "inverse", "quotient", "factorial"])
def test_verify_rejects_negative_order(capsys, suite):
    # every suite, including those that ignore or raise --order
    code, out, err = run(capsys, "verify", "--suite", suite, "--order", "-3")
    assert (code, out, err) == (2, "", "error[domain]: --order must be >= 0\n")


def test_internal_error_exits_three(capsys, monkeypatch):
    # a fault of the program is neither a verdict (1) nor bad input (2)
    def broken(count):
        raise KeyError("lost")

    monkeypatch.setattr("qspecies.numbers.bernoulli_formula", broken)
    code, out, err = run(capsys, "bernoulli", "--order", "4")
    assert (code, out) == (3, "")
    assert err == "error[internal]: KeyError: 'lost'\n"


def test_main_calls_share_no_parsed_state(capsys):
    # the parser is built once per process; each call parses from scratch
    code, out, _ = run(capsys, "bernoulli", "--poly", "--order", "3")
    payload = json.loads(out)
    assert (code, payload["kind"], payload["order"]) == (0, "bernoulli-polynomials", 3)
    assert payload["routes"]["formula"][1] == ["-1/2", "1/1"]
    code, out, _ = run(capsys, "bernoulli")
    payload = json.loads(out)
    assert (code, payload["kind"], payload["order"]) == (0, "bernoulli", 10)
    assert payload["routes"]["formula"][:3] == ["1/1", "-1/2", "1/6"]
    code, out, _ = run(capsys, "egf", "X", "--order", "3")
    assert (code, json.loads(out)["order"]) == (0, 3)
    code, out, _ = run(capsys, "egf", "X")
    assert (code, json.loads(out)["order"]) == (0, 20)


def test_missing_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_console_script_subprocess(groupoid_file):
    exe = shutil.which("qspecies")
    cmd = [exe] if exe else [sys.executable, "-m", "qspecies.cli"]
    # the module runs from the copy these tests import, also when only
    # pytest's own path setting points at it
    src = os.path.dirname(os.path.dirname(qspecies.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        cmd + ["card", groupoid_file], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout == "3/2\n"

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from qspecies.cli import main
from qspecies.numbers import NumberTable


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


def test_egf_unknown_name(capsys):
    code, _, err = run(capsys, "egf", "Mystery")
    assert code == 2
    assert "unknown builtin" in err


def test_egf_limit_error(capsys):
    code, _, err = run(capsys, "egf", "prod(Exp,Exp)", "--order", "31")
    assert code == 2
    assert err.startswith("error[limit]:")
    assert "prod" in err


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
    # the species route evaluates only the rows it returns, so order 13 stays
    # under the geometric-inverse cap
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
        return NumberTable("bernoulli", "formula", (Fraction(0),) * (count + 1))

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


def test_verify_single_suite_deterministic(capsys):
    first = run(capsys, "verify", "--suite", "quotient", "--seed", "5")
    second = run(capsys, "verify", "--suite", "quotient", "--seed", "5")
    assert first == second
    assert first[0] == 0


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_missing_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_console_script_subprocess(groupoid_file):
    exe = shutil.which("qspecies")
    cmd = [exe] if exe else [sys.executable, "-m", "qspecies.cli"]
    proc = subprocess.run(
        cmd + ["card", groupoid_file], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    assert proc.stdout == "3/2\n"

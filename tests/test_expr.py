import re
from fractions import Fraction
from pathlib import Path

import pytest

from qspecies.catalog import builtin_names
from qspecies.expr import _COMBINATORS, Call, ExprError, IntLit, Name, build, parse, tokenize
from qspecies.species import Species


def test_tokenize():
    assert tokenize("sum(X, Exp)") == [
        ("name", "sum", 0),
        ("punct", "(", 3),
        ("name", "X", 4),
        ("punct", ",", 5),
        ("name", "Exp", 7),
        ("punct", ")", 10),
    ]
    assert tokenize("d/dx1(Z)")[0] == ("name", "d/dx1", 0)
    assert tokenize("") == []


def test_tokenize_bad_character():
    with pytest.raises(ExprError) as exc:
        tokenize("sum(X; Exp)")
    assert exc.value.position == 5


def test_parse_shapes():
    assert parse("Exp") == Name("Exp", 0)
    node = parse("Zpow(2)")
    assert node == Call("Zpow", (IntLit(2, 5),), 0)
    nested = parse("sum(X, prod(Exp, Z))")
    assert isinstance(nested, Call)
    assert nested.args[1].name == "prod"


def test_parse_whitespace_insensitive():
    assert build(parse("  sum( X ,  Exp )  ")).name == "sum(X,Exp)"


def test_parse_errors_carry_positions():
    with pytest.raises(ExprError, match="position 8"):
        parse("sum(Exp,")
    with pytest.raises(ExprError, match="position 0"):
        parse("")
    with pytest.raises(ExprError, match="position 0"):
        parse("7")
    with pytest.raises(ExprError, match="trailing input"):
        parse("Exp Exp")
    with pytest.raises(ExprError, match="position 10: unexpected end"):
        parse("sum(X(Exp)")
    with pytest.raises(ExprError, match="expected a name"):
        parse("(X)")


def test_built_species_is_named_by_its_expression():
    for text in [
        "Exp",
        "sum(X,Exp)",
        "geominv(pospart(Exp))",
        "scaledrecip(1,2,pospart(Exp))",
        "binpow(2,3)",
        "compose(Exp2,pospart(Exp),Zpow(1))",
        "d/dx1(had(Zpow(1),Zpow(1)))",
    ]:
        assert build(parse(text)).name == text


def test_build_builtins_and_params():
    assert isinstance(build(parse("Exp")), Species)
    assert build(parse("Zpow(2)")).cardinality_at(4) == Fraction(1, 16)
    assert build(parse("Z")).cardinality_at(3) == Fraction(1, 3)


def test_build_combinators():
    assert build(parse("sum(Exp,Exp)")).cardinality_at(5) == 2
    assert build(parse("prod(Exp,Exp)")).cardinality_at(3) == 8
    assert build(parse("had(Z,Z)")).cardinality_at(4) == Fraction(1, 16)
    assert build(parse("d/dx1(Z)")).cardinality_at(2) == Fraction(1, 3)
    assert build(parse("pospart(Exp)")).cardinality_at(0) == 0
    assert build(parse("negate(Exp)")).cardinality_at(2) == -1
    assert build(parse("geominv(pospart(Exp))")).cardinality_at(3) == -1
    assert build(parse("compose(Exp,pospart(Exp))")).cardinality_at(3) == 5
    assert build(parse("binpow(1,2)")).cardinality_at(1) == Fraction(-1, 2)
    # constant term is b/a so that |S| * (a/b + |F|) = 1 holds degreewise
    s = build(parse("scaledrecip(1,2,pospart(Exp))"))
    assert s.cardinality_at(0) == 2
    assert s.cardinality_at(1) == -4
    assert build(parse("d/dx2(XY)")).cardinality_at((1, 0)) == 1


def test_build_error_positions():
    with pytest.raises(ExprError, match="position 0: unknown builtin"):
        build(parse("Mystery"))
    with pytest.raises(ExprError, match="position 0"):
        build(parse("sum(Exp)"))
    with pytest.raises(ExprError, match="position 5: expected an integer"):
        build(parse("Zpow(Exp)"))
    with pytest.raises(ExprError, match="expected a species, found an integer"):
        build(Call("sum", (IntLit(1, 4), Name("Exp", 6)), 0))
    with pytest.raises(ExprError, match="position 0: geominv: species must be empty at size zero"):
        build(parse("geominv(Exp)"))
    with pytest.raises(ExprError, match="scaledrecip expects 2 integer"):
        build(parse("scaledrecip(1)"))
    with pytest.raises(ExprError, match="expected an integer argument"):
        build(parse("scaledrecip(1,pospart(Exp))"))
    with pytest.raises(ExprError, match="compose expects an outer"):
        build(parse("compose(Exp)"))


def test_build_wraps_domain_errors():
    # arity problems inside make() surface as positioned expression errors
    with pytest.raises(ExprError, match="position 0: builtin Exp expects 0"):
        build(parse("Exp(3)"))


def test_error_is_value_error():
    # callers may catch the broad class
    with pytest.raises(ValueError):
        parse("sum(")


def test_grammar_doc_lists_every_combinator_and_builtin():
    doc = (Path(__file__).resolve().parents[1] / "docs" / "species-grammar.ebnf").read_text()
    combinators, builtins = doc.split("(* Builtin species")

    def listed(section):
        # the names in the left column of each "(*   entry   description *)" line
        entries = re.findall(r"^\(\*   (\S.*?)\s{2,}", section, re.MULTILINE)
        return {name for e in entries for name in re.findall(r"d/dx[12]|\w+", e)}

    assert set(_COMBINATORS) <= listed(combinators)
    assert set(builtin_names()) <= listed(builtins)

"""The species-expression language used by the command line.

Grammar (see docs/species-grammar.ebnf):

    expr    ::= name | name "(" arg ("," arg)* ")"
    arg     ::= expr | integer
    name    ::= letter (letter | digit | "_")* | "d/dx1" | "d/dx2"

Names resolve to builtin species from the catalog or to combinators.  The
builder reports every problem with the offending position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .numeric import DomainError
from .catalog import make
from .species import Species, binomial_power, geom_inverse, scaled_reciprocal

__all__ = ["ExprError", "Name", "IntLit", "Call", "tokenize", "parse", "build"]


class ExprError(ValueError):
    """Syntax or naming problem in an expression, with a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__("position %d: %s" % (position, message))
        self.position = position


@dataclass(frozen=True)
class Name:
    name: str
    position: int = 0


@dataclass(frozen=True)
class IntLit:
    value: int
    position: int = 0


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple
    position: int = 0


Node = Union[Name, IntLit, Call]

# deepest call nesting: deeper would run the parser and the species out of stack
_MAX_DEPTH = 100

_TOKEN = re.compile(r"d/dx[12]|[A-Za-z_][A-Za-z0-9_]*|\d+|[(),]")


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, value, position); kind is name, int, or punct."""
    out = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExprError("unexpected character %r" % text[pos], pos)
        value = m.group()
        if value in "(),":
            kind = "punct"
        elif value.isdigit():
            kind = "int"
        else:
            kind = "name"
        out.append((kind, value, pos))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], length: int):
        self.tokens = tokens
        self.pos = 0
        self.length = length
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression", self.length)
        self.pos += 1
        return tok

    def expect(self, value: str):
        tok = self.take()
        if tok[1] != value:
            raise ExprError("expected %r, found %r" % (value, tok[1]), tok[2])

    def parse_arg(self) -> Node:
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression", self.length)
        if tok[0] == "int":
            self.take()
            try:
                return IntLit(int(tok[1]), tok[2])
            except ValueError:  # past the interpreter's limit on integer digits
                raise ExprError("integer literal too long", tok[2]) from None
        return self.parse_expr()

    def parse_expr(self) -> Node:
        kind, value, pos = self.take()
        if kind != "name":
            raise ExprError("expected a name, found %r" % value, pos)
        nxt = self.peek()
        if nxt is None or nxt[1] != "(":
            return Name(value, pos)
        self.expect("(")
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ExprError("calls nest deeper than %d levels" % _MAX_DEPTH, pos)
        args = [self.parse_arg()]
        while True:
            tok = self.take()
            if tok[1] == ")":
                break
            if tok[1] != ",":
                raise ExprError("expected ',' or ')', found %r" % tok[1], tok[2])
            args.append(self.parse_arg())
        self.depth -= 1
        return Call(value, tuple(args), pos)


def parse(text: str) -> Node:
    tokens = tokenize(text)
    if not tokens:
        raise ExprError("empty expression", 0)
    parser = _Parser(tokens, len(text))
    node = parser.parse_expr()
    extra = parser.peek()
    if extra is not None:
        raise ExprError("trailing input %r" % extra[1], extra[2])
    if isinstance(node, IntLit):
        raise ExprError("an expression cannot be a bare integer", node.position)
    return node


# combinator -> (integer parameters, species arguments, constructor); the
# constructor takes the integers, then the species.  compose takes one outer
# species plus one inner species per outer sort, so its count is None.
_COMBINATORS = {
    "sum": (0, 2, Species.__add__),
    "prod": (0, 2, Species.__mul__),
    "had": (0, 2, Species.hadamard),
    "d/dx1": (0, 1, lambda f: f.derivative(1)),
    "d/dx2": (0, 1, lambda f: f.derivative(2)),
    "compose": (0, None, Species.compose),
    "geominv": (0, 1, geom_inverse),
    "pospart": (0, 1, Species.positive_part),
    "negate": (0, 1, Species.__neg__),
    "scaledrecip": (2, 1, scaled_reciprocal),
    "binpow": (2, 0, binomial_power),
}


def _build_species(node: Node) -> Species:
    got = build(node)
    if not isinstance(got, Species):
        raise ExprError("expected a species argument", node.position)
    return got


def _int_value(node: Node) -> int:
    if not isinstance(node, IntLit):
        raise ExprError("expected an integer argument", node.position)
    return node.value


def build(node: Node) -> Species:
    """Resolve an AST into a species, wrapping domain problems with positions."""
    if isinstance(node, IntLit):
        raise ExprError("expected a species, found an integer", node.position)
    name = node.name
    args = node.args if isinstance(node, Call) else ()
    try:
        if name in _COMBINATORS:
            return _build_combinator(name, args, node.position)
        params = tuple(_int_value(a) for a in args)
        return make(name, params)
    except DomainError as err:
        raise ExprError(str(err), node.position) from None


def _build_combinator(name: str, args: tuple, position: int) -> Species:
    int_arity, sp_arity, construct = _COMBINATORS[name]
    ints = [_int_value(a) for a in args[:int_arity]]
    if len(args) < int_arity:
        raise ExprError("%s expects %d integer parameter(s)" % (name, int_arity), position)
    rest = args[int_arity:]
    if sp_arity is None:
        if len(rest) < 2:
            raise ExprError("%s expects an outer and at least one inner species" % name, position)
    elif len(rest) != sp_arity:
        raise ExprError(
            "%s expects %d species argument(s), got %d" % (name, sp_arity, len(rest)),
            position,
        )
    return construct(*ints, *[_build_species(a) for a in rest])

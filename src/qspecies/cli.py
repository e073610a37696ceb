"""Command line: exact cardinalities, coefficient tables, number tables, laws.

Exit codes: 0 success, 1 routes disagree (MISMATCH) or a law failed (FAIL),
2 usage or input problems or the work budget ran out, 3 an internal error.
All output is deterministic; rationals are always "p/q".
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .numeric import DomainError, EnumerationLimitError, format_rational, work_meter
from .groupoid import cardinality, groupoid_from_json
from .species import egf_of
from .expr import ExprError, build, parse
from . import numbers
from .verify import SUITES, run_suites


class InputError(Exception):
    """A file that does not read as UTF-8 JSON."""


def _cmd_card(args) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise InputError(err) from None
        except ValueError:
            # json reports an integer past the interpreter's digit limit as a
            # plain ValueError, whose advice is for programmers
            raise InputError(
                "an integer in the file exceeds the limit of %d digits"
                % sys.get_int_max_str_digits()
            ) from None
    print(format_rational(cardinality(groupoid_from_json(obj))))
    return 0


def _cmd_egf(args) -> int:
    species = build(parse(args.expr))
    order = args.order
    if order is None:
        order = 20 if species.sorts == 1 else 12
    series = egf_of(species, order)
    if args.format == "json":
        print(json.dumps(series.to_json()))
    else:
        print("size,coefficient")
        for key, value in series.to_pairs():
            print("%s,%s" % (key, value))
    return 0


def _table_payload(table) -> list:
    if isinstance(table, numbers.PolynomialTable):
        return [p.to_strings() for p in table.polys]
    return [format_rational(v) for v in table.values]


def _emit_tables(args, kind: str, tables: dict[str, object]) -> int:
    """Print one or several route tables; exit 1 when routes disagree."""
    names = list(tables)
    verdict = "MATCH"
    first = tables[names[0]]
    for name in names[1:]:
        if not first.matches(tables[name]):
            verdict = "MISMATCH"
    if args.format == "json":
        if len(names) == 1:
            out = {
                "kind": kind,
                "order": args.order,
                "route": names[0],
                ("polynomials" if args.poly else "values"): _table_payload(first),
            }
        else:
            out = {
                "kind": kind,
                "order": args.order,
                "routes": {name: _table_payload(tables[name]) for name in names},
                "verdict": verdict,
            }
        print(json.dumps(out))
    else:
        for name in names:
            payload = _table_payload(tables[name])
            for n, row in enumerate(payload):
                cells = row if args.poly else [row]
                print(",".join([name, str(n)] + list(cells)))
        if len(names) > 1:
            print("verdict,%s" % verdict)
    return 0 if verdict == "MATCH" else 1


def _cmd_table(args) -> int:
    if args.N < 1:
        raise DomainError("--N must be >= 1")
    if args.order < 0:
        raise DomainError("--order must be >= 0")
    kind = args.command + ("-polynomials" if args.poly else "")
    routes = numbers.routes(kind, args.N) if args.route == "all" else [args.route]
    tables = {r: numbers.route_table(kind, r, args.order, args.N) for r in routes}
    return _emit_tables(args, tables[routes[0]].kind, tables)


def _cmd_verify(args) -> int:
    if args.order < 0:
        raise DomainError("--order must be >= 0")
    if args.trials < 0:
        raise DomainError("--trials must be >= 0")
    reports = run_suites(args.suite, order=args.order, seed=args.seed, trials=args.trials)
    bad = 0
    for report in reports:
        status = "PASS" if report.failed == 0 else "FAIL"
        bad += report.failed
        print(
            "law=%s checked=%d failed=%d status=%s"
            % (report.law, report.checked, report.failed, status)
        )
    return 0 if bad == 0 else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves it
    unchanged and returns a fresh Namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="qspecies",
        description="Exact rational cardinalities of groupoid-valued species.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("card", help="cardinality of a groupoid JSON file")
    p.add_argument("file", help="path to a groupoid description (JSON)")
    p.set_defaults(func=_cmd_card)

    p = sub.add_parser("egf", help="coefficient table of a species expression")
    p.add_argument("expr", help="species expression, e.g. 'geominv(pospart(d/dx1(Z)))'")
    p.add_argument("--order", type=int, default=None, help="truncation order")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_egf)

    for kind in ("bernoulli", "euler"):
        p = sub.add_parser(kind, help="%s number and polynomial tables" % kind.capitalize())
        p.add_argument("--order", type=int, default=10, help="largest index n")
        if kind == "bernoulli":
            p.add_argument("--N", type=int, default=1, help="level of the generalized family")
        p.add_argument("--route", choices=list(numbers.ROUTES[kind]) + ["all"], default="all")
        p.add_argument("--poly", action="store_true", help="polynomials instead of numbers")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.set_defaults(func=_cmd_table, N=1)

    p = sub.add_parser("verify", help="run randomized law-checking suites")
    p.add_argument("--suite", choices=list(SUITES) + ["all"], default="all")
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with work_meter():
            return args.func(args)
    except ExprError as err:
        print("error[parse]: %s" % err, file=sys.stderr)
        return 2
    except EnumerationLimitError as err:
        print("error[limit]: %s" % err, file=sys.stderr)
        return 2
    except DomainError as err:
        print("error[domain]: %s" % err, file=sys.stderr)
        return 2
    except (InputError, OSError) as err:
        print("error[input]: %s" % err, file=sys.stderr)
        return 2
    except Exception as err:  # a fault of the program, never a verdict
        print("error[internal]: %s: %s" % (type(err).__name__, err), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

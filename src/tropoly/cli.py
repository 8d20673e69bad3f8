"""Command-line front end.

Every verb reads polynomials in the textual grammar and writes exact
text (or JSON with --json). Exit codes: 0 success, 1 domain error,
2 parse/usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import canonical, envelope, factorization
from .errors import DomainError, ParseError
from .polynomial import format_poly, parse, poly_to_json
from .scalar import format_scalar, parse_scalar

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2


def _build_parser() -> tuple:
    """The argument parser and its subcommand table, verb -> subparser."""
    ap = argparse.ArgumentParser(
        prog="tropoly",
        description="Exact min-plus polynomial calculator over the rationals.",
    )
    ap.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub = ap.add_subparsers(dest="verb", required=True)

    for verb, help_ in [
        ("canon", "least-coefficient canonical form"),
        ("factor", "factor into linear tropical factors"),
        ("roots", "distinct corner-locus points"),
        ("plot", "envelope breakpoints as TSV"),
    ]:
        p = sub.add_parser(verb, help=help_)
        p.add_argument("poly")

    p = sub.add_parser("expand", help="multiply a factored form back out")
    p.add_argument("factored_json", help='e.g. \'{"leading":"0","monomial_degree":0,"roots":["3","3"]}\'')

    p = sub.add_parser("eval", help="evaluate at a rational point")
    p.add_argument("poly")
    p.add_argument("scalar")

    for verb, help_ in [
        ("equiv", "functional equivalence"),
        ("mul", "min-plus product"),
        ("add", "pointwise min"),
    ]:
        p = sub.add_parser(verb, help=help_)
        p.add_argument("lhs")
        p.add_argument("rhs")
    return ap, sub.choices


def _emit_poly(f, as_json: bool) -> str:
    return json.dumps(poly_to_json(f)) if as_json else format_poly(f)


def _run(args) -> str:
    if args.verb == "canon":
        f = canonical.canonicalize(parse(args.poly)).poly
        return _emit_poly(f, args.json)
    if args.verb == "factor":
        fac = factorization.factor(parse(args.poly))
        if args.json:
            return json.dumps(factorization.factorization_to_json(fac))
        return factorization.format_factorization(fac)
    if args.verb == "expand":
        try:
            data = json.loads(args.factored_json)
            fac = factorization.factorization_from_json(data)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad factored-form JSON: {exc}", 0) from exc
        return _emit_poly(factorization.expand(fac).poly, args.json)
    if args.verb == "roots":
        roots = factorization.zero_locus(parse(args.poly))
        if args.json:
            return json.dumps([format_scalar(d) for d in roots])
        return "\n".join(format_scalar(d) for d in roots)
    if args.verb == "eval":
        value = parse(args.poly).evaluate(parse_scalar(args.scalar))
        return json.dumps(format_scalar(value)) if args.json else format_scalar(value)
    if args.verb == "equiv":
        same = canonical.equivalent(parse(args.lhs), parse(args.rhs))
        return json.dumps(same) if args.json else ("true" if same else "false")
    if args.verb == "mul":
        return _emit_poly(parse(args.lhs) * parse(args.rhs), args.json)
    if args.verb == "add":
        return _emit_poly(parse(args.lhs) + parse(args.rhs), args.json)
    if args.verb == "plot":
        f = parse(args.poly)
        env = envelope.lower_envelope(f)
        if args.json:
            return json.dumps(
                {
                    "breakpoints": [format_scalar(x) for x in env.breakpoints],
                    "pieces": [
                        {
                            "degree": p.degree,
                            "lo": None if p.lo is None else format_scalar(p.lo),
                            "hi": None if p.hi is None else format_scalar(p.hi),
                        }
                        for p in env.pieces
                    ],
                }
            )
        lines = ["x\tf(x)\tactive_degrees"]
        for x in env.breakpoints:
            degrees = sorted(f.argmin_monomials(x))
            lines.append(
                "{}\t{}\t{}".format(
                    format_scalar(x),
                    format_scalar(f.evaluate(x)),
                    ",".join(str(i) for i in degrees),
                )
            )
        return "\n".join(lines)
    raise AssertionError(f"unhandled verb {args.verb}")


_HELP = {"-h", "--help"}


def main(argv=None) -> int:
    ap, verbs = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # Polynomials may start with '-', so everything after the verb is
    # positional, unless it asks for the verb's help: no polynomial,
    # scalar or JSON argument can be spelled -h or --help.
    for at, token in enumerate(argv):
        if token in verbs:
            if _HELP.isdisjoint(argv[at + 1:]):
                argv.insert(at + 1, "--")
            break
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help; keep its codes
        return int(exc.code or 0)
    try:
        print(_run(args))
        return EXIT_OK
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"domain error in '{args.verb}': {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

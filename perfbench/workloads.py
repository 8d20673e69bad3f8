"""The three workloads: how each answer calls tropoly, and how it is checked.

Answers call tropoly's public functions through a tracer (``tracing``),
which in untraced runs passes calls straight through. Checks compare
every output with the reference answers ``inputs`` generated, outside
the timed region, and read only the outputs' data, never library code.
"""

from __future__ import annotations

import gc
import io
import json
import operator
import re
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from tropoly import (
    ExtendedRational,
    Term,
    TropolyError,
    canonicalize,
    equivalent,
    expand,
    factor,
    format_poly,
    from_terms,
    is_canonical,
    lower_envelope,
    parse_poly,
    parse_scalar,
    poly_to_json,
    zero_locus,
)
from tropoly.cli import main
from tropoly.factorization import (
    factorization_from_json,
    factorization_to_json,
    format_factorization,
)

from . import inputs
from . import reference as ref


def fracs(coeffs) -> list:
    return [None if c.is_infinite else c.frac for c in coeffs]


def bits(values) -> int:
    """Largest numerator or denominator bit length among finite scalars."""
    best = 0
    for c in values:
        if not c.is_infinite:
            fr = c.frac
            best = max(best, fr.numerator.bit_length(), fr.denominator.bit_length())
    return best


def poly_json(f) -> str:
    return json.dumps(poly_to_json(f))


def facts_match(facts, canon, fac) -> bool:
    """canon and fac are the canonical form and factorization of facts.f."""
    low, coeffs = facts.f
    c = canon.poly
    g = fracs(c.coeffs)
    return (
        c.low_degree == low
        and ref.is_canonical_of(facts.f, c.low_degree, g)
        and g == facts.g
        and fac.leading.frac == coeffs[-1]
        and fac.monomial_degree == low
        and len(fac.roots) == len(coeffs) - 1
        and [d.frac for d in fac.roots] == facts.roots
    )


class CliSmall:
    """In-process ``tropoly.cli.main(argv)`` calls on small polynomials."""

    name = "cli-small"
    cycle = 1

    def stream(self, seed):
        return inputs.cli_stream(seed)

    def prepare(self, item):
        return item["argv"]

    def answer(self, t, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = t.call("cli.main", main, argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, item, result) -> bool:
        code, out, err = result
        want = item["expect"]
        if code != want["code"] or out != want["stdout"]:
            return False
        kind = want["stderr"]
        if kind is None:
            return err == ""
        if kind == "usage":
            return err != ""
        if kind == "domain":
            return err.startswith("domain error")
        at = re.search(r"position (\d+)", err)
        return err.startswith("parse error") and at is not None and int(at.group(1)) == want["position"]

    def probe(self, t, item, result):
        """Replay the query through the library calls ``main`` makes, so
        that ``main`` minus the replay is the CLI's own time."""
        code = result[0]
        t.count("cli.exit_1", code == 1)
        t.count("cli.exit_2", code == 2)
        t.count("cli.exit_1_expected", item["expect"]["code"] == 1)
        t.count("cli.exit_2_expected", item["expect"]["code"] == 2)
        made = []
        try:
            t.call("replay", self._replay, t, item["argv"], made)
        except TropolyError:
            pass  # main reported the same error
        for c in made:
            t.call("canonical.revalidate", is_canonical, c.poly)

    def _parse(self, t, text):
        terms = t.call("polynomial.parse_poly", parse_poly, text)
        t.count("polynomial.terms_parsed", len(terms))
        f = t.call("polynomial.from_terms", from_terms, terms)
        t.maximum("scalar.coeff_bits_max", bits(f.coeffs))
        return f

    def _emit(self, t, f, as_json):
        t.maximum("scalar.coeff_bits_max", bits(f.coeffs))
        if as_json:
            t.call("polynomial.json", poly_json, f)
        else:
            t.count("polynomial.chars_out", len(t.call("polynomial.format_poly", format_poly, f)))

    def _replay(self, t, argv, made):
        as_json = argv[0] == "--json"
        verb, *args = argv[1:] if as_json else argv
        if len(args) != (2 if verb in ("eval", "equiv", "mul", "add") else 1):
            return  # argparse rejects the call before any library work
        if verb == "expand":
            fac = t.call("factorization.format", lambda s: factorization_from_json(json.loads(s)), args[0])
            e = t.call("factorization.expand", expand, fac)
            made.append(e)
            self._emit(t, e.poly, as_json)
            return
        f = self._parse(t, args[0])
        if verb == "eval":
            x = parse_scalar(args[1])
            t.call("polynomial.evaluate", f.evaluate, x)
            return
        if verb in ("equiv", "mul", "add"):
            g = self._parse(t, args[1])
            if verb == "mul":
                t.count("polynomial.mul_pairs", _finite(f) * _finite(g))
                self._emit(t, t.call("polynomial.mul", operator.mul, f, g), as_json)
            elif verb == "add":
                self._emit(t, t.call("polynomial.add", operator.add, f, g), as_json)
            else:
                t.hull(f)
                t.hull(g)
                t.call("canonical.equivalent", equivalent, f, g)
            return
        t.hull(f)
        if verb == "canon":
            c = t.call("canonical.canonicalize", canonicalize, f)
            made.append(c)
            self._emit(t, c.poly, as_json)
        elif verb == "factor":
            fac = t.call("factorization.factor", factor, f)
            _count_roots(t, fac)
            fmt = (lambda x: json.dumps(factorization_to_json(x))) if as_json else format_factorization
            t.call("factorization.format", fmt, fac)
        elif verb == "roots":
            t.call("factorization.zero_locus", zero_locus, f)
        elif verb == "plot":
            env = t.call("envelope.lower_envelope", lower_envelope, f)
            if not as_json:
                for x in env.breakpoints:
                    t.call("polynomial.argmin", f.argmin_monomials, x)
                    t.call("polynomial.evaluate", f.evaluate, x)


def _finite(f) -> int:
    return sum(1 for c in f.coeffs if not c.is_infinite)


def _count_roots(t, fac):
    t.count("factorization.roots", len(fac.roots))
    t.count("factorization.distinct_roots", len(set(fac.roots)))
    t.maximum("scalar.coeff_bits_max", bits(fac.roots))


class LargeDegree:
    """Sessions of questions on fresh dense degree-10^5 polynomials."""

    name = "large-degree"
    cycle = len(inputs.SHAPES)

    def __init__(self, degree=100_000):
        self.degree = degree

    def stream(self, seed):
        return inputs.large_stream(seed, self.degree)

    def prepare(self, item):
        gc.collect()  # leave none of the generator's garbage to the session
        f, variant = (
            [Term(ExtendedRational(c), low + j) for j, c in enumerate(coeffs)]
            for low, coeffs in (item["f"], item["variant"])
        )
        return f, variant, [ExtendedRational(x) for x in item["points"]]

    def answer(self, t, inp):
        terms, variant_terms, points = inp
        f = t.call("polynomial.from_terms", from_terms, terms)
        t.hull(f)
        c = t.call("canonical.canonicalize", canonicalize, f)
        fac = t.call("factorization.factor", factor, f)
        e = t.call("factorization.expand", expand, fac)
        zeros = t.call("factorization.zero_locus", zero_locus, f)
        env = t.call("envelope.lower_envelope", lower_envelope, f)
        v = t.call("polynomial.from_terms", from_terms, variant_terms)
        t.hull(v)
        same = t.call("canonical.equivalent", equivalent, f, v)
        at = [
            (t.call("polynomial.evaluate", f.evaluate, x), t.call("polynomial.argmin", f.argmin_monomials, x))
            for x in points
        ]
        return {"f": f, "canon": c, "factor": fac, "expand": e, "zeros": zeros, "envelope": env, "same": same, "at": at}

    def check(self, item, out) -> bool:
        facts = item["facts"]
        e = out["expand"].poly
        env = out["envelope"]
        pieces = [
            (p.degree, None if p.lo is None else p.lo.frac, None if p.hi is None else p.hi.frac)
            for p in env.pieces
        ]
        return (
            facts_match(facts, out["canon"], out["factor"])
            and e.low_degree == facts.low
            and fracs(e.coeffs) == facts.g
            and [d.frac for d in out["zeros"]] == facts.distinct
            and [x.frac for x in env.breakpoints] == facts.distinct
            and pieces == facts.pieces()
            and out["same"] is True
            and len(out["at"]) == len(item["points"])
            and all(
                facts.at_root(x) == (value.frac, tie)
                for x, (value, tie) in zip(item["points"], out["at"])
            )
        )

    def probe(self, t, item, out):
        for c in (out["canon"], out["expand"]):
            t.call("canonical.revalidate", is_canonical, c.poly)
        _count_roots(t, out["factor"])
        t.maximum("scalar.coeff_bits_max", max(bits(out["f"].coeffs), bits(out["canon"].poly.coeffs)))


class Products:
    """Parse two operands, multiply, canonicalize, factor and format."""

    name = "products"
    cycle = len(inputs.PRODUCT_KINDS)

    def __init__(self, scale=1.0):
        self.scale = scale

    def stream(self, seed):
        return inputs.product_stream(seed, self.scale)

    def prepare(self, item):
        gc.collect()
        return item["texts"]

    def answer(self, t, texts):
        f, g = (
            t.call("polynomial.from_terms", from_terms, t.call("polynomial.parse_poly", parse_poly, s))
            for s in texts
        )
        p = t.call("polynomial.mul", operator.mul, f, g)
        t.hull(p)
        c = t.call("canonical.canonicalize", canonicalize, p)
        fac = t.call("factorization.factor", factor, p)
        return {
            "operands": (f, g),
            "product": p,
            "canon": c,
            "factor": fac,
            "text": t.call("polynomial.format_poly", format_poly, c.poly),
            "factored": t.call("factorization.format", format_factorization, fac),
            "json": t.call("polynomial.json", poly_json, p),
        }

    def check(self, item, out) -> bool:
        facts = item["facts"]
        p = out["product"]
        g = (facts.low, facts.g)
        return (
            (p.low_degree, fracs(p.coeffs)) == item["product"]
            and facts_match(facts, out["canon"], out["factor"])
            and out["text"] == ref.fmt_poly(g)
            and out["factored"] == ref.fmt_factorization(facts.g[-1], facts.low, facts.roots)
            and out["json"] == ref.poly_json(item["product"])
        )

    def probe(self, t, item, out):
        f, g = out["operands"]
        t.count("polynomial.terms_parsed", _finite(f) + _finite(g))
        t.count("polynomial.mul_pairs", _finite(f) * _finite(g))
        t.count("polynomial.chars_out", len(out["text"]))
        t.call("canonical.revalidate", is_canonical, out["canon"].poly)
        _count_roots(t, out["factor"])
        t.maximum("scalar.coeff_bits_max", max(bits(f.coeffs), bits(g.coeffs), bits(out["product"].coeffs)))


WORKLOADS = {w.name: w for w in (CliSmall, LargeDegree, Products)}


def run_phase(wl, items, t, seconds: float, between=None) -> dict:
    """Closed loop, one client: answer items one after another until the
    answers have taken `seconds` in total, in whole cycles of the
    workload's mix. Generation and checks run between answers, outside
    the timed region, and so does `between(answer seconds so far)`."""
    latencies = []
    busy = answered = 0.0
    failed = 0
    while True:
        item = next(items)
        inp = wl.prepare(item)
        t0 = perf_counter()
        out = t.call("answer", wl.answer, t, inp)
        t1 = perf_counter()
        if t.on:
            wl.probe(t, item, out)
        busy += perf_counter() - t0
        latencies.append(t1 - t0)
        answered += t1 - t0
        if not wl.check(item, out):
            failed += 1
        del out, inp
        if between:
            between(answered)
        if len(latencies) % wl.cycle == 0 and answered >= seconds:
            return {"latencies": latencies, "busy_s": busy, "failed": failed}

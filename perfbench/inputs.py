"""Seeded input streams and their expected answers.

Nothing here imports tropoly: the program only ever sees the inputs these
generators produce, and the expected answers come from ``reference``.
Every stream is infinite and deterministic in its seed. Workloads whose
answers differ in kind repeat a fixed cycle of kinds, so that a run made
of whole cycles always holds the same mix.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from . import reference as ref

# -- cli-small --------------------------------------------------------------------

VERBS = ("canon", "factor", "roots", "plot", "eval", "equiv", "mul", "add", "expand")


def _small(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-20, 20), rng.randint(1, 20))


def small_terms(rng: random.Random, max_degree: int = 12, inf_prob: float = 0.1) -> list:
    """Raw terms of a nonzero polynomial in the acceptance-corpus shape:
    support from degree 0..2, degree <= max_degree, p/q coefficients with
    |p|, q <= 20, interior coefficients inf with probability inf_prob.
    Terms are (text of the coefficient or None, value or None, exponent)."""
    low = rng.randint(0, 2)
    length = rng.randint(1, max_degree + 1 - low)
    terms = []
    for j in range(length):
        if 0 < j < length - 1 and rng.random() < inf_prob:
            terms.append((None, None, low + j))
        else:
            p, q = rng.randint(-20, 20), rng.randint(1, 20)  # written unreduced
            text = str(p) if q == 1 and rng.random() < 0.5 else f"{p}/{q}"
            terms.append((text, Fraction(p, q), low + j))
    return terms


def poly_text(rng: random.Random, terms: list) -> str:
    """Write raw terms in the textual grammar, varying the spelling the
    way hand-written input does: order, '*', omitted zero coefficients,
    explicit or omitted inf terms, spacing."""
    terms = list(terms)
    if rng.random() < 0.3:
        rng.shuffle(terms)
    else:
        terms.reverse()
    parts = []
    for text, value, e in terms:
        if value is None:
            if rng.random() < 0.5:
                continue
            coef = "inf"
        elif value == 0 and e > 0 and rng.random() < 0.5:
            coef = ""
        else:
            coef = text
        if e == 0:
            parts.append(coef or "0")
            continue
        x = "x" if e == 1 and rng.random() < 0.8 else f"x^{e}"
        star = "*" if coef and coef != "inf" and rng.random() < 0.2 else ""
        sep = " " if coef == "inf" else ""
        parts.append(f"{coef}{sep}{star}{x}")
    return (" + " if rng.random() < 0.8 else "+").join(parts)


def _as_run(terms: list) -> tuple:
    return ref.from_terms([(v, e) for _, v, e in terms])


def _same_function(rng: random.Random, f: tuple) -> tuple:
    """A run with f's function: every coefficient strictly above the hull
    is raised, or made inf when interior; hull points are kept."""
    low, coeffs = f
    g = ref.canonical(f)
    out = list(coeffs)
    for j, (c, gc) in enumerate(zip(coeffs, g)):
        if c is not None and c > gc:
            out[j] = None if 0 < j < len(out) - 1 and rng.random() < 0.3 else c + abs(_small(rng)) + 1
    return low, out


def _run_terms(rng: random.Random, f: tuple) -> list:
    low, coeffs = f
    terms = []
    for j, c in enumerate(coeffs):
        if c is None:
            terms.append((None, None, low + j))
        else:
            terms.append((str(c), c, low + j))
    return terms


def _stdout(text: str) -> dict:
    return {"code": 0, "stdout": text + "\n", "stderr": None}


def _error(code: int, kind: str, position: int = None) -> dict:
    return {"code": code, "stdout": "", "stderr": kind, "position": position}


def cli_query(rng: random.Random) -> dict:
    """One CLI call: argv and the expected exit code, stdout, and kind of
    stderr message: None (empty), "usage", "domain" or "parse" (with the
    character position the message must report)."""
    r = rng.random()
    if r < 0.015:
        return _bad_char(rng)
    if r < 0.02:
        return _trailing_plus(rng)
    if r < 0.035:
        return _domain_error(rng)
    if r < 0.04:
        verb = rng.choice(["eval", "mul", "add", "equiv"])
        return {"argv": [verb, poly_text(rng, small_terms(rng))], "expect": _error(2, "usage")}
    as_json = rng.random() < 0.25
    verb = rng.choice(VERBS)
    head = ["--json"] if as_json else []
    terms = small_terms(rng)
    f = _as_run(terms)
    if verb == "expand":
        lead = _small(rng)
        r = rng.randint(0, 2)
        roots = [_small(rng) for _ in range(rng.randint(0, 10))]
        doc = {"leading": str(lead), "monomial_degree": r, "roots": [str(d) for d in roots]}
        g = ref.expand(lead, r, roots)
        return {
            "argv": head + ["expand", json.dumps(doc)],
            "expect": _stdout(ref.poly_json(g) if as_json else ref.fmt_poly(g)),
        }
    if verb in ("mul", "add", "equiv"):
        if verb == "equiv" and rng.random() < 0.5:
            other = _same_function(rng, f)
            other_terms = _run_terms(rng, other)
        else:
            other_terms = small_terms(rng)
            other = _as_run(other_terms)
        argv = head + [verb, poly_text(rng, terms), poly_text(rng, other_terms)]
        if verb == "equiv":
            same = ref.canonical(f) == ref.canonical(other) and f[0] == other[0]
            out = json.dumps(same) if as_json else ("true" if same else "false")
        else:
            h = ref.convolve(f, other) if verb == "mul" else ref.add(f, other)
            out = ref.poly_json(h) if as_json else ref.fmt_poly(h)
        return {"argv": argv, "expect": _stdout(out)}
    text = poly_text(rng, terms)
    facts = ref.Facts(f, ref.canonical(f))
    if verb == "canon":
        g = (f[0], facts.g)
        out = ref.poly_json(g) if as_json else ref.fmt_poly(g)
        return {"argv": head + ["canon", text], "expect": _stdout(out)}
    if verb == "factor":
        args = (facts.g[-1], f[0], facts.roots)
        out = ref.factorization_json(*args) if as_json else ref.fmt_factorization(*args)
        return {"argv": head + ["factor", text], "expect": _stdout(out)}
    if verb == "roots":
        roots = [str(d) for d in facts.distinct]
        return {"argv": head + ["roots", text], "expect": _stdout(json.dumps(roots) if as_json else "\n".join(roots))}
    if verb == "eval":
        if facts.distinct and rng.random() < 0.3:
            x = rng.choice(facts.distinct)
        else:
            x = _small(rng)
        value, _ = ref.evaluate(f, x)
        out = json.dumps(str(value)) if as_json else str(value)
        return {"argv": head + ["eval", text, str(x)], "expect": _stdout(out)}
    # plot
    if as_json:
        out = json.dumps(
            {
                "breakpoints": [str(x) for x in facts.distinct],
                "pieces": [
                    {"degree": d, "lo": None if lo is None else str(lo), "hi": None if hi is None else str(hi)}
                    for d, lo, hi in facts.pieces()
                ],
            }
        )
    else:
        lines = ["x\tf(x)\tactive_degrees"]
        for x in facts.distinct:
            value, tie = ref.evaluate(f, x)
            lines.append(f"{x}\t{value}\t{','.join(str(i) for i in sorted(tie))}")
        out = "\n".join(lines)
    return {"argv": head + ["plot", text], "expect": _stdout(out)}


def _boundaries(text: str) -> list:
    """Positions between terms, where an inserted character starts a token."""
    return [i for i, ch in enumerate(text) if ch == "+"] + [len(text)]


def _bad_char(rng: random.Random) -> dict:
    text = poly_text(rng, small_terms(rng))
    at = rng.choice(_boundaries(text))
    bad = rng.choice("?#y$!")
    text = text[:at] + bad + text[at:]
    verb = rng.choice(["canon", "factor", "roots", "plot"])
    return {"argv": [verb, text], "expect": _error(2, "parse", at)}


def _trailing_plus(rng: random.Random) -> dict:
    text = poly_text(rng, small_terms(rng)) + " +"
    return {"argv": ["canon", text], "expect": _error(2, "parse", len(text))}


def _domain_error(rng: random.Random) -> dict:
    verb = rng.choice(["canon", "factor", "roots", "plot", "eval"])
    if verb == "eval":
        argv = ["eval", poly_text(rng, small_terms(rng)), "inf"]
    else:
        argv = [verb, "inf"]
    return {"argv": argv, "expect": _error(1, "domain")}


def cli_stream(seed: int):
    rng = random.Random(f"cli-small:{seed}")
    while True:
        yield cli_query(rng)


# -- large-degree -----------------------------------------------------------------

SHAPES = ("random", "near-convex")


def dense_run(rng: random.Random, shape: str, degree: int) -> tuple:
    """random: integer coefficients in +-10^6 (hull of ~17 vertices at
    degree 10^5). near-convex: j^2/2 plus rational noise in [0, 40] with
    denominator 20, which leaves about a quarter of the points on the hull."""
    low = rng.randint(0, 2)
    if shape == "random":
        coeffs = [Fraction(rng.randint(-10**6, 10**6)) for _ in range(low, degree + 1)]
    else:
        coeffs = [Fraction(10 * j * j + rng.randint(0, 800), 20) for j in range(low, degree + 1)]
    return low, coeffs


def session(rng: random.Random, shape: str, degree: int) -> dict:
    """One large-degree session: the run, a same-function variant, two
    breakpoints to evaluate at, and the reference facts."""
    f = dense_run(rng, shape, degree)
    facts = ref.Facts(f, ref.canonical_hull(f))
    low, coeffs = f
    variant = [c + rng.randint(1, 1000) if c > gc else c for c, gc in zip(coeffs, facts.g)]
    points = rng.sample(facts.distinct, min(2, len(facts.distinct)))
    return {"f": f, "variant": (low, variant), "points": points, "facts": facts}


def large_stream(seed: int, degree: int = 100_000):
    rng = random.Random(f"large-degree:{seed}")
    while True:
        for shape in SHAPES:
            yield session(rng, shape, degree)


# -- products ---------------------------------------------------------------------

#: (operand shapes, coefficient class, operand degree). Degrees keep every
#: answer under about a second; 1000-bit coefficients cost ~6x more per pair.
PRODUCT_KINDS = (
    (("convex", "convex"), "small", 320),
    (("convex", "arbitrary"), "small", 320),
    (("arbitrary", "arbitrary"), "small", 320),
    (("convex", "convex"), "big", 128),
    (("convex", "arbitrary"), "big", 128),
    (("arbitrary", "arbitrary"), "big", 128),
)

BIG_BITS = 1000


def operand(rng: random.Random, shape: str, cls: str, degree: int) -> list:
    """Dense coefficients from degree 0. Convex operands are running sums
    of sorted slopes; 1000-bit convex ones share one denominator so that
    their coefficients stay ~1000-bit instead of growing with the sum."""
    if cls == "small":
        if shape == "arbitrary":
            return [_small(rng) for _ in range(degree + 1)]
        out = [_small(rng)]
        for s in sorted(_small(rng) for _ in range(degree)):
            out.append(out[-1] + s)
        return out
    half = 1 << (BIG_BITS - 1)
    if shape == "arbitrary":
        return [Fraction(rng.getrandbits(BIG_BITS) - half, rng.getrandbits(BIG_BITS) | half) for _ in range(degree + 1)]
    den = rng.getrandbits(BIG_BITS) | half
    nums = [rng.getrandbits(BIG_BITS) - half]
    for s in sorted(rng.getrandbits(BIG_BITS) - half for _ in range(degree)):
        nums.append(nums[-1] + s)
    return [Fraction(v, den) for v in nums]


def product_case(rng: random.Random, kind: tuple) -> dict:
    shapes, cls, degree = kind
    runs = [(0, operand(rng, shape, cls, degree)) for shape in shapes]
    texts = [poly_text(rng, _run_terms(rng, f)) for f in runs]
    p = ref.convolve(*runs)
    facts = ref.Facts(p, ref.canonical_hull(p))
    return {"texts": texts, "product": p, "facts": facts}


def product_stream(seed: int, scale: float = 1.0):
    """scale shrinks the operand degrees, for tests at tiny sizes."""
    rng = random.Random(f"products:{seed}")
    while True:
        for shapes, cls, degree in PRODUCT_KINDS:
            yield product_case(rng, (shapes, cls, max(2, int(degree * scale))))


def warmup(workload: str, seed: int) -> list:
    """Small inputs of every kind the workload answers, for set-up."""
    rng = random.Random(f"warmup:{workload}:{seed}")
    if workload == "cli-small":
        return [cli_query(rng) for _ in range(30)]
    if workload == "large-degree":
        return [session(rng, shape, 2000) for shape in SHAPES]
    return [product_case(rng, (shapes, cls, degree // 10)) for shapes, cls, degree in PRODUCT_KINDS]

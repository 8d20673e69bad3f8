"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line. Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import contextlib
import random
import time
from fractions import Fraction

from tropoly import (
    ExtendedRational,
    TropPoly,
    canonicalize,
    canonicalize_naive,
    expand,
    expand_via_product,
    factor,
    is_canonical,
    is_least_coefficient,
    parse,
    rational,
    trop_add,
    trop_mul,
    zero_locus,
)
from tropoly.cli import main
from tropoly.polynomial import format_poly

from conftest import random_rational, scan_argmin, scan_evaluate


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_factoring_example(capsys):
    with criterion(1, "canon/factor reproduce the introductory example, < 1 ms"):
        assert main(["canon", "x^2 + 4x + 6"]) == 0
        assert capsys.readouterr()[0].strip() == "x^2 + 3x + 6"
        fac = factor(parse("x^2 + 4x + 6"))
        assert fac.leading == rational(0)
        assert fac.roots == (rational(3), rational(3))
        # warmed, in-process timing of parse + canonicalize + format
        canonicalize(parse("x^2 + 4x + 6"))
        t0 = time.perf_counter()
        out = format_poly(canonicalize(parse("x^2 + 4x + 6")).poly)
        elapsed = time.perf_counter() - t0
        assert out == "x^2 + 3x + 6"
        assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"


def test_criterion_2_equivalence_example(capsys):
    with criterion(2, "equiv reproduces the functional-equivalence example"):
        assert main(["equiv", "x^2 + 1x + 2", "x^2 + 2x + 2"]) == 0
        assert capsys.readouterr()[0].strip() == "true"


def test_criterion_3_hull_equals_naive_oracle(corpus):
    with criterion(3, "10,000 random polynomials: hull path == cubic oracle, < 60 s"):
        t0 = time.perf_counter()
        for f in corpus:
            assert canonicalize(f).poly == canonicalize_naive(f).poly
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, f"took {elapsed:.1f} s"


def test_criterion_4_fta_round_trip(corpus):
    with criterion(4, "expand(factor(f)) == canonicalize(f); both expansion paths agree"):
        for f in corpus:
            fac = factor(f)
            expanded = expand(fac)
            assert expanded.poly == canonicalize(f).poly
            assert expanded.poly == expand_via_product(fac)


def _sample_grid(f):
    """Breakpoints of the canonical form, midpoints between consecutive
    ones, one point beyond each extreme, padded to >= 2*degree + 1."""
    bps = [d.frac for d in zero_locus(f)]
    probes = set(bps)
    for a, b in zip(bps, bps[1:]):
        probes.add((a + b) / 2)
    lo = min(bps, default=Fraction(0)) - 1
    hi = max(bps, default=Fraction(0)) + 1
    probes.update([lo, hi])
    pad = 0
    while len(probes) < 2 * (f.degree - f.low_degree) + 1:
        pad += 1
        probes.add(lo - pad)
    return probes


def test_criterion_5_equivalence_soundness(corpus):
    with criterion(5, "f == canonicalize(f) pointwise on a >= 2n+1 point grid"):
        for f in corpus:
            c = canonicalize(f).poly
            for x in _sample_grid(f):
                x = ExtendedRational(x)
                # f over all of its terms, the canonical form over its hull
                assert scan_evaluate(f, x) == c.evaluate(x)


def test_criterion_6_zero_locus_characterization(corpus):
    with criterion(6, "d is a root iff >= 2 monomials tie at d (roots + 5 non-roots each)"):
        rng = random.Random(424242)
        for f in corpus:
            c = canonicalize(f).poly
            roots = set(zero_locus(f))
            for d in roots:
                assert len(scan_argmin(c, d)) >= 2
            picked = 0
            while picked < 5:
                x = ExtendedRational(random_rational(rng))
                if x in roots:
                    continue
                assert len(scan_argmin(c, x)) == 1
                picked += 1


def test_criterion_7_canonicity_characterization(corpus):
    with criterion(7, "is_canonical(f) iff every supported coefficient is least"):
        for f in corpus:
            degrees = range(f.low_degree, f.degree + 1)
            no_interior_inf = all(not f.coefficient(i).is_infinite for i in degrees)
            all_least = no_interior_inf and all(
                is_least_coefficient(f, i) for i in degrees
            )
            assert is_canonical(f) == all_least


def test_criterion_8_semiring_laws():
    with criterion(8, "10,000 random scalar triples satisfy the semiring laws"):
        rng = random.Random(31337)

        def scalar():
            if rng.random() < 0.1:
                return ExtendedRational(None)
            return ExtendedRational(random_rational(rng))

        zero = rational(0)
        inf = ExtendedRational(None)
        for _ in range(10_000):
            a, b, c = scalar(), scalar(), scalar()
            assert trop_add(a, b) == trop_add(b, a)
            assert trop_mul(a, b) == trop_mul(b, a)
            assert trop_add(trop_add(a, b), c) == trop_add(a, trop_add(b, c))
            assert trop_mul(trop_mul(a, b), c) == trop_mul(a, trop_mul(b, c))
            assert trop_mul(a, trop_add(b, c)) == trop_add(trop_mul(a, b), trop_mul(a, c))
            assert trop_add(a, a) == a
            assert trop_add(a, inf) == a
            assert trop_mul(a, zero) == a
            assert trop_mul(a, inf) == inf


def test_criterion_9_large_degree_performance():
    with criterion(9, "canonicalize + factor at degree 100,000 in < 1 s"):
        rng = random.Random(271828)
        coeffs = [ExtendedRational(rng.randint(-10**6, 10**6)) for _ in range(100_001)]
        f = TropPoly(0, coeffs)
        t0 = time.perf_counter()
        c = canonicalize(f)
        fac = factor(f)
        elapsed = time.perf_counter() - t0
        assert is_canonical(c.poly)
        assert len(fac.roots) == 100_000
        assert elapsed < 1.0, f"took {elapsed:.2f} s"

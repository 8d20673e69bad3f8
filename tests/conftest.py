import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from tropoly import (
    ExtendedRational,
    INFINITY,
    TropPoly,
    Term,
    breakpoints,
    canonicalize,
    from_terms,
)

# -- hypothesis strategies -------------------------------------------------

finite_scalars = st.fractions(
    min_value=-20, max_value=20, max_denominator=20
).map(ExtendedRational)

scalars = st.one_of(finite_scalars, st.just(INFINITY))


@st.composite
def trop_polys(draw, max_degree=12, allow_zero=True):
    terms = draw(
        st.lists(
            st.tuples(scalars, st.integers(min_value=0, max_value=max_degree)),
            min_size=0 if allow_zero else 1,
            max_size=max_degree + 2,
        )
    )
    f = from_terms([Term(c, e) for c, e in terms])
    if not allow_zero and f.is_zero:
        f = from_terms([Term(ExtendedRational(0), 0)])
    return f


# -- oracles for the hull queries -------------------------------------------
#
# The term scans read every finite term of f and never its lower hull, so
# they are independent references for evaluate / argmin_monomials.

def scan_values(f: TropPoly, x: ExtendedRational) -> list:
    """(a_i + i·x, i) for every finite term of f."""
    x = x.frac
    return [(c.frac + i * x, i) for c, i in f.terms()]


def scan_evaluate(f: TropPoly, x: ExtendedRational) -> ExtendedRational:
    """min over all finite terms of a_i + i·x; inf for the zero polynomial."""
    values = scan_values(f, x)
    return ExtendedRational(min(v for v, _ in values)) if values else INFINITY


def scan_argmin(f: TropPoly, x: ExtendedRational) -> set:
    """Degrees of all finite terms attaining the minimum at x."""
    values = scan_values(f, x)
    best = min(v for v, _ in values)
    return {i for v, i in values if v == best}


def canonically_equal(f: TropPoly, g: TropPoly) -> bool:
    """Reference for `equivalent`: build both canonical forms and compare."""
    if f.is_zero or g.is_zero:
        return f.is_zero and g.is_zero
    return canonicalize(f).poly == canonicalize(g).poly


def probe_points(f: TropPoly) -> list:
    """Each corner of f, the midpoints between consecutive corners, and
    one point beyond each end (0 for a polynomial with no corner)."""
    bps = [d.frac for d in breakpoints(f)]
    probes = set(bps)
    probes.update((a + b) / 2 for a, b in zip(bps, bps[1:]))
    probes.update([min(bps, default=Fraction(0)) - 1, max(bps, default=Fraction(0)) + 1])
    return [ExtendedRational(x) for x in sorted(probes)]


# -- seeded random corpus (shared by the acceptance criteria) --------------

def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-20, 20), rng.randint(1, 20))


def random_poly(rng: random.Random, max_degree=12, inf_prob=0.1) -> TropPoly:
    """Nonzero polynomial with random support range, rational coefficients
    with numerator/denominator in [-20, 20], and interior coefficients
    replaced by inf with the given probability."""
    low = rng.randint(0, 2)
    length = rng.randint(1, max_degree + 1 - low)
    coeffs = []
    for j in range(length):
        interior = 0 < j < length - 1
        if interior and rng.random() < inf_prob:
            coeffs.append(INFINITY)
        else:
            coeffs.append(ExtendedRational(random_rational(rng)))
    return TropPoly(low, coeffs)


@pytest.fixture(scope="session")
def corpus():
    """Deterministic corpus of 10,000 random nonzero polynomials."""
    rng = random.Random(20240817)
    return [random_poly(rng) for _ in range(10_000)]

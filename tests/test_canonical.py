import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropoly import (
    CanonicalPoly,
    DomainError,
    ExtendedRational,
    INFINITY,
    TropPoly,
    ZERO_POLY,
    breakpoints,
    canonicalize,
    canonicalize_naive,
    equivalent,
    is_canonical,
    is_least_coefficient,
    parse,
    rational,
)

from conftest import canonically_equal, random_poly, trop_polys


def q(n, d=1):
    return rational(n, d)


class TestCanonicalizeNaive:
    def test_textbook_example(self):
        assert canonicalize_naive(parse("x^2 + 4x + 6")).poly == parse("x^2 + 3x + 6")

    def test_half_coefficient(self):
        # b_1 = min(1, (1 + 0)/2) = 1/2
        assert canonicalize_naive(parse("x^2 + 1x + 1")).poly == parse("x^2 + 1/2x + 1")

    def test_repairs_interior_infinity(self):
        assert canonicalize_naive(parse("x^2 + inf x + 4")).poly == parse("x^2 + 2x + 4")

    def test_zero_poly_rejected(self):
        with pytest.raises(DomainError):
            canonicalize_naive(ZERO_POLY)


class TestCanonicalize:
    def test_textbook_example(self):
        assert canonicalize(parse("x^2 + 4x + 6")).poly == parse("x^2 + 3x + 6")

    def test_already_canonical_unchanged(self):
        f = parse("x^3 + 1x^2 + 3x + 6")
        assert canonicalize(f).poly == f

    def test_zero_poly_rejected(self):
        with pytest.raises(DomainError):
            canonicalize(ZERO_POLY)

    @given(trop_polys(allow_zero=False))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_naive_oracle(self, f):
        assert canonicalize(f).poly == canonicalize_naive(f).poly

    def test_agrees_with_naive_oracle_seeded(self):
        rng = random.Random(99)
        for _ in range(300):
            f = random_poly(rng)
            assert canonicalize(f).poly == canonicalize_naive(f).poly

    @given(trop_polys(allow_zero=False))
    @settings(max_examples=100)
    def test_idempotent(self, f):
        c = canonicalize(f).poly
        assert canonicalize(c).poly == c

    @given(trop_polys(allow_zero=False))
    @settings(max_examples=100)
    def test_monotone_repair(self, f):
        c = canonicalize(f).poly
        for i in range(f.low_degree, f.degree + 1):
            assert c.coefficient(i) <= f.coefficient(i)

    @given(trop_polys(allow_zero=False))
    @settings(max_examples=100)
    def test_output_is_canonical(self, f):
        assert is_canonical(canonicalize(f).poly)

    @given(trop_polys(allow_zero=False))
    @settings(max_examples=80)
    def test_function_preserved_on_grid(self, f):
        """f and its canonical form agree at every breakpoint, between
        breakpoints, and beyond the extremes."""
        c = canonicalize(f).poly
        bps = [x.frac for x in breakpoints(f)]
        probes = set(bps)
        for a, b in zip(bps, bps[1:]):
            probes.add((a + b) / 2)
        lo = min(bps, default=Fraction(0)) - 1
        hi = max(bps, default=Fraction(0)) + 1
        probes.update([lo, hi])
        k = 0
        while len(probes) < 2 * (f.degree - f.low_degree) + 1:
            k += 1
            probes.add(lo - k)
        for x in probes:
            x = ExtendedRational(x)
            assert f.evaluate(x) == c.evaluate(x)


class TestIsCanonical:
    def test_equal_differences(self):
        assert is_canonical(parse("x^2 + 1x + 2")) is True

    def test_decreasing_differences(self):
        assert is_canonical(parse("x^2 + 4x + 6")) is False

    def test_monomial(self):
        assert is_canonical(parse("7x^4")) is True

    def test_interior_infinity(self):
        assert is_canonical(parse("x^2 + inf x + 4")) is False

    def test_wrapper_validates(self):
        with pytest.raises(ValueError):
            CanonicalPoly(parse("x^2 + 4x + 6"))

    @given(trop_polys(allow_zero=False))
    @settings(max_examples=100)
    def test_characterization_by_least_coefficients(self, f):
        all_least = all(
            is_least_coefficient(f, i)
            for i in range(f.low_degree, f.degree + 1)
            if not f.coefficient(i).is_infinite
        )
        no_interior_inf = all(
            not f.coefficient(i).is_infinite
            for i in range(f.low_degree, f.degree + 1)
        )
        assert is_canonical(f) == (all_least and no_interior_inf)


class TestIsLeastCoefficient:
    def test_replaceable_coefficient(self):
        assert is_least_coefficient(parse("x^2 + 4x + 6"), 1) is False

    def test_end_coefficients(self):
        assert is_least_coefficient(parse("x^2 + 4x + 6"), 0) is True
        assert is_least_coefficient(parse("x^2 + 4x + 6"), 2) is True

    def test_interior_infinity(self):
        assert is_least_coefficient(parse("x^2 + inf x + 4"), 1) is False

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            is_least_coefficient(parse("x^2 + 0"), 5)


class TestEquivalent:
    def test_equivalent_but_unequal_pair(self):
        assert equivalent(parse("x^2 + 1x + 2"), parse("x^2 + 2x + 2")) is True

    def test_product_form(self):
        assert equivalent(parse("x^2 + 4x + 6"), parse("x + 3") * parse("x + 3")) is True

    def test_differ_at_a_point(self):
        assert equivalent(parse("x + 1"), parse("x + 2")) is False

    def test_zero_poly_cases(self):
        assert equivalent(ZERO_POLY, ZERO_POLY) is True
        assert equivalent(ZERO_POLY, parse("1")) is False

    @given(trop_polys(), trop_polys())
    @settings(max_examples=150)
    def test_matches_canonical_forms(self, f, g):
        assert equivalent(f, g) == canonically_equal(f, g)

    @given(trop_polys(allow_zero=False), st.data())
    @settings(max_examples=150)
    def test_matches_canonical_forms_on_variants(self, f, data):
        """Variants of f that keep or break equivalence, checked against
        canonical equality both ways round."""
        j = data.draw(st.integers(f.low_degree, f.degree))
        new = data.draw(st.sampled_from([INFINITY, q(-1), q(1, 3), q(25)]))
        coeffs = list(f.coeffs)
        coeffs[j - f.low_degree] = new
        variants = [canonicalize(f).poly, parse("0") * f]
        if 0 < j - f.low_degree < len(coeffs) - 1 or not new.is_infinite:
            variants.append(TropPoly(f.low_degree, coeffs))
        for g in variants:
            assert equivalent(f, g) == equivalent(g, f) == canonically_equal(f, g)

    def test_matches_canonical_forms_seeded(self):
        rng = random.Random(17)
        for _ in range(400):
            f = random_poly(rng, inf_prob=0.3)
            c = canonicalize(f).poly
            j = rng.randrange(len(c.coeffs))
            bumped = list(c.coeffs)
            bumped[j] = ExtendedRational(bumped[j].frac + rng.choice([-1, 1]) * Fraction(1, 3))
            for g in (c, TropPoly(c.low_degree, bumped), random_poly(rng)):
                assert equivalent(f, g) == canonically_equal(f, g)

    @given(trop_polys(allow_zero=False))
    @settings(max_examples=80)
    def test_sampling_cross_check(self, f):
        """Canonical-equality equivalence agrees with pointwise sampling
        against an additively shifted copy (equal iff shift is 0)."""
        g = parse("0") * f
        assert equivalent(f, g) is True
        shifted = parse("1") * f
        assert equivalent(f, shifted) is False

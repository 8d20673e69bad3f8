import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropoly import (
    DomainError,
    ParseError,
    Factorization,
    INFINITY,
    ZERO_POLY,
    breakpoints,
    canonicalize,
    expand,
    expand_via_product,
    factor,
    multiplicity,
    parse,
    rational,
    zero_locus,
)
from tropoly.factorization import (
    factorization_from_json,
    factorization_to_json,
    format_factorization,
)

from conftest import finite_scalars, random_poly, trop_polys


def q(n, d=1):
    return rational(n, d)


factorizations = st.builds(
    lambda lead, r, roots: Factorization(lead, r, tuple(sorted(roots))),
    finite_scalars,
    st.integers(min_value=0, max_value=3),
    st.lists(finite_scalars, max_size=8),
)


class TestFactor:
    def test_known_double_root(self):
        fac = factor(parse("x^2 + 4x + 6"))
        assert fac.leading == q(0)
        assert fac.monomial_degree == 0
        assert fac.roots == (q(3), q(3))

    def test_three_simple_roots(self):
        fac = factor(parse("x^3 + 1x^2 + 3x + 6"))
        assert fac.roots == (q(1), q(2), q(3))

    def test_monomial_factor(self):
        fac = factor(parse("3x^2 + 5x"))
        assert fac.leading == q(3)
        assert fac.monomial_degree == 1
        assert fac.roots == (q(2),)

    def test_zero_poly_rejected(self):
        with pytest.raises(DomainError):
            factor(ZERO_POLY)

    @given(trop_polys(allow_zero=False))
    @settings(max_examples=120)
    def test_roots_are_consecutive_differences(self, f):
        canon = canonicalize(f).poly
        diffs = [
            canon.coefficient(i - 1).frac - canon.coefficient(i).frac
            for i in range(canon.degree, canon.low_degree, -1)
        ]
        assert [d.frac for d in factor(f).roots] == diffs

    @given(trop_polys(allow_zero=False))
    @settings(max_examples=120)
    def test_round_trip(self, f):
        assert expand(factor(f)).poly == canonicalize(f).poly


class TestExpand:
    def test_squared_binomial(self):
        fac = Factorization(q(0), 0, (q(3), q(3)))
        assert expand(fac).poly == parse("x^2 + 3x + 6")

    def test_empty_product(self):
        assert expand(Factorization(q(0), 0, ())).poly == parse("0")

    def test_partial_sums(self):
        fac = Factorization(q(0), 0, (q(1), q(2), q(3)))
        assert expand(fac).poly == parse("x^3 + 1x^2 + 3x + 6")

    def test_sortedness_enforced(self):
        with pytest.raises(ValueError):
            Factorization(q(0), 0, (q(2), q(1)))

    def test_infinite_leading_rejected(self):
        with pytest.raises(ValueError):
            Factorization(INFINITY, 0, ())

    @given(factorizations)
    @settings(max_examples=100)
    def test_agrees_with_convolution(self, fac):
        assert expand(fac).poly == expand_via_product(fac)

    @given(factorizations, factorizations)
    @settings(max_examples=80)
    def test_uniqueness(self, fa, fb):
        same_data = (
            fa.leading == fb.leading
            and fa.monomial_degree == fb.monomial_degree
            and fa.roots == fb.roots
        )
        assert (expand(fa).poly == expand(fb).poly) == same_data


class TestZeroLocus:
    def test_known_double_root(self):
        assert zero_locus(parse("x^2 + 4x + 6")) == [q(3)]

    def test_constant(self):
        assert zero_locus(parse("5")) == []

    def test_simple_roots(self):
        assert zero_locus(parse("x^3 + 1x^2 + 3x + 6")) == [q(1), q(2), q(3)]

    @given(trop_polys(allow_zero=False))
    @settings(max_examples=150)
    def test_equals_distinct_factor_roots(self, f):
        """The corner locus read off the hull edges agrees with the
        distinct roots of the factorization, and multiplicities with
        their counts."""
        roots = factor(f).roots
        assert zero_locus(f) == sorted(set(roots))
        for d in set(roots):
            assert multiplicity(f, d) == roots.count(d)

    def test_equals_distinct_factor_roots_seeded(self):
        rng = random.Random(8)
        for _ in range(300):
            f = random_poly(rng, max_degree=rng.choice([4, 12, 60]), inf_prob=0.3)
            assert zero_locus(f) == sorted(set(factor(f).roots))

    @given(trop_polys(allow_zero=False))
    @settings(max_examples=100)
    def test_equals_breakpoints_of_canonical(self, f):
        assert zero_locus(f) == breakpoints(canonicalize(f).poly)

    @given(trop_polys(allow_zero=False))
    @settings(max_examples=100)
    def test_corner_characterization(self, f):
        """Roots are exactly the points with >= 2 tying monomials; between
        and beyond roots exactly one monomial wins, and ties are a
        contiguous degree range."""
        canon = canonicalize(f).poly
        roots = [d.frac for d in zero_locus(f)]
        for d in roots:
            tied = sorted(canon.argmin_monomials(q(d.numerator, d.denominator)))
            assert len(tied) >= 2
            assert tied == list(range(tied[0], tied[-1] + 1))
        non_roots = [(a + b) / 2 for a, b in zip(roots, roots[1:])]
        if roots:
            non_roots += [roots[0] - 1, roots[-1] + 1]
        else:
            non_roots += [0]
        non_roots = [x for x in non_roots if x not in roots]
        for x in non_roots:
            assert len(canon.argmin_monomials(q(x.numerator, x.denominator))) == 1


class TestMultiplicity:
    def test_double_root(self):
        assert multiplicity(parse("x^2 + 4x + 6"), q(3)) == 2

    def test_non_root(self):
        assert multiplicity(parse("x^2 + 4x + 6"), q(0)) == 0

    def test_simple_root(self):
        assert multiplicity(parse("x^3 + 1x^2 + 3x + 6"), q(2)) == 1

    def test_infinite_point_rejected(self):
        with pytest.raises(DomainError):
            multiplicity(parse("x + 1"), INFINITY)

    def test_seeded_counts_sum_to_degree_span(self):
        rng = random.Random(5)
        for _ in range(100):
            f = random_poly(rng)
            fac = factor(f)
            total = sum(multiplicity(f, d) for d in zero_locus(f))
            assert total == len(fac.roots) == fac.degree - fac.monomial_degree


class TestTextAndJson:
    def test_text_collects_powers(self):
        fac = factor(parse("x^2 + 4x + 6"))
        assert format_factorization(fac) == "0 * (x + 3)^2"

    def test_text_half_root(self):
        assert format_factorization(factor(parse("x^2 + 1x + 1"))) == "0 * (x + 1/2)^2"

    def test_text_monomial_part(self):
        assert format_factorization(factor(parse("3x^2 + 5x"))) == "3 * x * (x + 2)"

    def test_json_shape(self):
        fac = factor(parse("x^2 + 4x + 6"))
        assert factorization_to_json(fac) == {
            "leading": "0",
            "monomial_degree": 0,
            "roots": ["3", "3"],
        }

    @given(factorizations)
    @settings(max_examples=60)
    def test_json_round_trip(self, fac):
        assert factorization_from_json(factorization_to_json(fac)) == fac

    @pytest.mark.parametrize(
        "data",
        [
            {"leading": "0", "monomial_degree": 2.7, "roots": ["1"]},
            {"leading": "0", "monomial_degree": 2.0, "roots": ["1"]},
            {"leading": "0", "monomial_degree": True, "roots": ["1"]},
            {"leading": "0", "monomial_degree": "2", "roots": ["1"]},
            {"leading": "0", "monomial_degree": None, "roots": ["1"]},
            {"leading": "0", "monomial_degree": 0, "roots": "12"},
            {"leading": "0", "monomial_degree": 0, "roots": {"1": "2"}},
            {"leading": "0", "monomial_degree": 0, "roots": [1, 2]},
            {"leading": "0", "monomial_degree": 0, "roots": [["1"]]},
            {"leading": 0, "monomial_degree": 0, "roots": []},
            {"leading": "0", "roots": []},
            ["0", 0, []],
        ],
    )
    def test_json_wrong_types_rejected(self, data):
        with pytest.raises(ParseError):
            factorization_from_json(data)

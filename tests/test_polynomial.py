import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropoly import (
    DomainError,
    ExtendedRational,
    INFINITY,
    ParseError,
    Term,
    TropPoly,
    ZERO_POLY,
    format_poly,
    from_terms,
    parse,
    parse_poly,
    poly_from_json,
    poly_to_json,
    rational,
    trop_add,
)

from conftest import (
    finite_scalars,
    probe_points,
    random_poly,
    scan_argmin,
    scan_evaluate,
    trop_polys,
)


def q(n, d=1):
    return rational(n, d)


def P(text):
    return parse(text)


class TestNormalize:
    def test_reorders_by_degree(self):
        f = from_terms([Term(q(4), 1), Term(q(0), 2), Term(q(6), 0)])
        assert f == TropPoly(0, [q(6), q(4), q(0)])

    def test_min_merges_duplicates(self):
        f = from_terms([Term(q(1), 1), Term(q(2), 1)])
        assert f == TropPoly(1, [q(1)])

    def test_all_infinite_is_zero(self):
        assert from_terms([Term(INFINITY, 3)]) == ZERO_POLY
        assert from_terms([]) == ZERO_POLY

    def test_trims_infinite_ends(self):
        f = from_terms([Term(INFINITY, 0), Term(q(2), 1), Term(INFINITY, 2)])
        assert f == TropPoly(1, [q(2)])

    @given(trop_polys())
    def test_idempotent(self, f):
        assert from_terms(list(f.terms())) == f

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            TropPoly(0, [INFINITY, q(1)])

    def test_attributes_are_read_only(self):
        f = P("x^2 + 4x + 6")
        assert f.evaluate(q(10)) == q(6)  # memoizes the hull
        with pytest.raises(AttributeError):
            f.coeffs = (q(0),)
        with pytest.raises(AttributeError):
            f.low_degree = 3
        assert f == TropPoly(0, [q(6), q(4), q(0)])
        assert f.evaluate(q(10)) == q(6)


def _special_polys():
    """Shapes the random corpus rarely draws: monomials, long collinear
    runs (with and without interior inf), and many corners."""
    yield TropPoly(5, [q(3)])
    yield TropPoly(0, [q(-1, 3)])
    yield TropPoly(0, [q(j) for j in range(200)])
    yield TropPoly(2, [q(7 - 3 * j, 2) for j in range(150)])
    yield TropPoly(0, [INFINITY if j % 3 == 1 else q(2 * j) for j in range(100)])
    yield TropPoly(0, [q(j * j, 2) for j in range(120)])
    yield TropPoly(1, [q(abs(j - 40) * (j % 5)) for j in range(90)])
    yield TropPoly(0, [q(0), INFINITY, INFINITY, INFINITY, q(0)])


def _hull_query_cases():
    rng = random.Random(7)
    yield from _special_polys()
    for _ in range(400):
        yield random_poly(rng, max_degree=rng.choice([3, 12, 40]), inf_prob=rng.choice([0.0, 0.1, 0.5]))


class TestHullQueriesMatchTermScan:
    """evaluate / argmin_monomials read the lower hull; the term scan over
    every finite coefficient is the reference."""

    @given(trop_polys(allow_zero=False), finite_scalars)
    @settings(max_examples=150)
    def test_hypothesis(self, f, x):
        for y in probe_points(f) + [x]:
            assert f.evaluate(y) == scan_evaluate(f, y)
            assert f.argmin_monomials(y) == scan_argmin(f, y)

    def test_seeded(self):
        for f in _hull_query_cases():
            for x in probe_points(f) + [q(-1000), q(1000), q(1, 7)]:
                assert f.evaluate(x) == scan_evaluate(f, x)
                assert f.argmin_monomials(x) == scan_argmin(f, x)


class TestEval:
    def test_at_multiplicative_identity(self):
        # at x=0 eval is the min of the coefficients
        assert P("x^2 + 3x + 6").evaluate(q(0)) == q(0)

    def test_direct_min(self):
        assert P("x^2 + 3x + 6").evaluate(q(10)) == q(6)

    def test_three_way_tie(self):
        assert P("x^2 + 3x + 6").evaluate(q(3)) == q(6)

    def test_zero_poly_evaluates_to_infinity(self):
        assert ZERO_POLY.evaluate(q(5)) == INFINITY

    def test_rejects_infinity(self):
        with pytest.raises(DomainError):
            P("x + 1").evaluate(INFINITY)

    @given(trop_polys(allow_zero=False), finite_scalars)
    def test_monomial_upper_bound(self, f, x):
        v = f.evaluate(x)
        for c, i in f.terms():
            assert v.frac <= c.frac + i * x.frac


class TestArgmin:
    def test_tie_at_double_root(self):
        assert P("x^2 + 3x + 6").argmin_monomials(q(3)) == {0, 1, 2}

    def test_strict_winner(self):
        assert P("x^2 + 3x + 6").argmin_monomials(q(0)) == {2}

    def test_constant(self):
        assert P("5").argmin_monomials(q(99)) == {0}

    def test_zero_poly_rejected(self):
        with pytest.raises(DomainError):
            ZERO_POLY.argmin_monomials(q(0))


class TestAdd:
    def test_pointwise_min(self):
        assert P("x + 3") + P("x + 1") == P("x + 1")

    def test_zero_identity(self):
        f = P("x^2 + 1x + 2")
        assert f + ZERO_POLY == f
        assert ZERO_POLY + f == f

    def test_disjoint_supports(self):
        assert P("x^2 + 0") + P("1x") == P("x^2 + 1x + 0")

    @given(trop_polys(), trop_polys(), finite_scalars)
    @settings(max_examples=60)
    def test_eval_homomorphism(self, f, g, x):
        assert (f + g).evaluate(x) == trop_add(f.evaluate(x), g.evaluate(x))


class TestMul:
    def test_squared_binomial(self):
        assert P("x + 3") * P("x + 3") == P("x^2 + 3x + 6")

    def test_hand_convolution(self):
        assert P("x + 1") * P("x + 2") == P("x^2 + 1x + 3")

    def test_constant_identity(self):
        f = P("x^2 + 1x + 2")
        assert f * P("0") == f

    def test_zero_absorbs(self):
        assert P("x + 1") * ZERO_POLY == ZERO_POLY

    @given(trop_polys(), trop_polys(), finite_scalars)
    @settings(max_examples=60)
    def test_eval_homomorphism(self, f, g, x):
        lhs = (f * g).evaluate(x)
        fx, gx = f.evaluate(x), g.evaluate(x)
        if fx.is_infinite or gx.is_infinite:
            assert lhs == INFINITY
        else:
            assert lhs.frac == fx.frac + gx.frac

    @given(trop_polys(), trop_polys())
    @settings(max_examples=60)
    def test_commutative(self, f, g):
        assert f * g == g * f

    @given(trop_polys(max_degree=5), trop_polys(max_degree=5), trop_polys(max_degree=5))
    @settings(max_examples=40)
    def test_associative(self, f, g, h):
        assert (f * g) * h == f * (g * h)


class TestParse:
    def test_textbook_example(self):
        terms = parse_poly("x^2 + 4x + 6")
        assert terms == [Term(q(0), 2), Term(q(4), 1), Term(q(6), 0)]

    def test_inf_literal(self):
        assert parse_poly("inf") == [Term(INFINITY, 0)]

    def test_rational_and_negative_coefficients(self):
        assert parse_poly("1/2 x^3 + -2x") == [Term(q(1, 2), 3), Term(q(-2), 1)]

    def test_optional_star_and_whitespace(self):
        assert parse("3*x^2+5x") == parse("3x^2 + 5x")

    def test_inf_coefficient_in_context(self):
        assert parse("x^2 + inf x + 4") == TropPoly(0, [q(4), INFINITY, q(0)])

    @pytest.mark.parametrize(
        "bad",
        ["", "  ", "x +", "+ x", "x^", "x^-2", "x^1/2", "2 2", "x y", "1.5x", "x^(2)"],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("x^2 + $")
        assert err.value.position == 6

    def test_huge_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("x^4294967296")


class TestFormat:
    def test_descending_degree(self):
        assert format_poly(TropPoly(0, [q(6), q(3), q(0)])) == "x^2 + 3x + 6"

    def test_zero(self):
        assert format_poly(ZERO_POLY) == "inf"

    def test_monomial_factor_visible(self):
        assert format_poly(TropPoly(1, [q(5), q(3)])) == "3x^2 + 5x"

    @given(trop_polys())
    @settings(max_examples=80)
    def test_round_trip(self, f):
        assert parse(format_poly(f)) == f


class TestJson:
    def test_shape(self):
        f = parse("x^2 + 4x + 6")
        assert poly_to_json(f) == {"low_degree": 0, "coeffs": ["6", "4", "0"]}

    def test_infinite_interior(self):
        f = parse("x^2 + inf x + 4")
        assert poly_to_json(f) == {"low_degree": 0, "coeffs": ["4", "inf", "0"]}

    @given(trop_polys())
    @settings(max_examples=60)
    def test_round_trip(self, f):
        assert poly_from_json(poly_to_json(f)) == f

    @pytest.mark.parametrize(
        "data",
        [
            {"low_degree": 1.0, "coeffs": ["1"]},
            {"low_degree": True, "coeffs": ["1"]},
            {"low_degree": "0", "coeffs": ["1"]},
            {"low_degree": -1, "coeffs": ["1"]},
            {"low_degree": 0, "coeffs": "12"},
            {"low_degree": 0, "coeffs": [1, 2]},
            {"low_degree": 0, "coeffs": ["1", None]},
            {"coeffs": ["1"]},
            ["0", ["1"]],
        ],
    )
    def test_wrong_types_rejected(self, data):
        with pytest.raises(ParseError):
            poly_from_json(data)

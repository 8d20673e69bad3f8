from fractions import Fraction

import pytest
from hypothesis import given, settings

from tropoly import (
    DomainError,
    ExtendedRational,
    ZERO_POLY,
    breakpoints,
    canonicalize,
    lower_envelope,
    parse,
    rational,
    supports_degree,
)

from conftest import scan_argmin, scan_evaluate, trop_polys


def q(n, d=1):
    return rational(n, d)


class TestLowerEnvelope:
    def test_triple_meeting_point(self):
        env = lower_envelope(parse("x^2 + 3x + 6"))
        assert [p.degree for p in env.pieces] == [2, 1, 0]
        assert env.pieces[0].lo is None and env.pieces[0].hi == q(3)
        assert env.pieces[1].lo == q(3) and env.pieces[1].hi == q(3)
        assert env.pieces[2].lo == q(3) and env.pieces[2].hi is None
        assert list(env.breakpoints) == [q(3)]

    def test_degenerate_middle_piece(self):
        env = lower_envelope(parse("x^2 + 1x + 2"))
        assert [p.degree for p in env.pieces] == [2, 1, 0]
        assert env.pieces[1].lo == env.pieces[1].hi == q(1)
        assert list(env.breakpoints) == [q(1)]

    def test_constant(self):
        env = lower_envelope(parse("5"))
        assert [p.degree for p in env.pieces] == [0]
        assert env.pieces[0].lo is None and env.pieces[0].hi is None
        assert env.breakpoints == ()

    def test_zero_poly_rejected(self):
        with pytest.raises(DomainError):
            lower_envelope(ZERO_POLY)

    @given(trop_polys(allow_zero=False))
    @settings(max_examples=120)
    def test_degrees_strictly_decrease(self, f):
        env = lower_envelope(f)
        degrees = [p.degree for p in env.pieces]
        assert degrees == sorted(degrees, reverse=True)
        assert len(set(degrees)) == len(degrees)

    @given(trop_polys(allow_zero=False))
    @settings(max_examples=120)
    def test_pieces_are_exact(self, f):
        """Inside its interval each piece's line equals f; strictly outside
        (past a non-degenerate endpoint) the active degree differs."""
        env = lower_envelope(f)
        one = Fraction(1)
        for piece in env.pieces:
            lo = None if piece.lo is None else piece.lo.frac
            hi = None if piece.hi is None else piece.hi.frac
            if lo is None and hi is None:
                probes = [Fraction(0)]
            elif lo is None:
                probes = [hi - one, hi]
            elif hi is None:
                probes = [lo, lo + one]
            else:
                probes = [lo, (lo + hi) / 2, hi]
            a = f.coefficient(piece.degree).frac
            for x in probes:
                assert scan_evaluate(f, ExtendedRational(x)).frac == a + piece.degree * x
            # beyond the interval the piece's line loses
            if lo is not None:
                left = lo - one
                assert scan_evaluate(f, ExtendedRational(left)).frac < a + piece.degree * left
            if hi is not None:
                right = hi + one
                assert scan_evaluate(f, ExtendedRational(right)).frac < a + piece.degree * right

    @given(trop_polys(allow_zero=False))
    @settings(max_examples=120)
    def test_breakpoints_have_ties(self, f):
        for x in lower_envelope(f).breakpoints:
            assert len(scan_argmin(f, x)) >= 2


class TestSupportsDegree:
    def test_interior_not_least(self):
        assert supports_degree(parse("x^2 + 4x + 6"), 1) is False

    def test_end_coefficient(self):
        assert supports_degree(parse("x^2 + 4x + 6"), 2) is True

    def test_on_chord(self):
        assert supports_degree(parse("x^2 + 1x + 2"), 1) is True

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            supports_degree(parse("x^2 + 0"), 3)

    def test_zero_poly_rejected(self):
        with pytest.raises(DomainError):
            supports_degree(ZERO_POLY, 0)

    @given(trop_polys(allow_zero=False))
    @settings(max_examples=100)
    def test_matches_canonicalization(self, f):
        """A degree is attainable iff canonicalization leaves its finite
        coefficient unchanged."""
        canon = canonicalize(f).poly
        for i in range(f.low_degree, f.degree + 1):
            a = f.coefficient(i)
            expected = (not a.is_infinite) and canon.coefficient(i) == a
            assert supports_degree(f, i) is expected


class TestBreakpoints:
    def test_known_double_root(self):
        assert breakpoints(parse("x^2 + 4x + 6")) == [q(3)]

    def test_three_simple_roots(self):
        assert breakpoints(parse("x^3 + 1x^2 + 3x + 6")) == [q(1), q(2), q(3)]

    def test_monomial_has_none(self):
        assert breakpoints(parse("7x^4")) == []

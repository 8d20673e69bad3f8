"""Piecewise-linear lower envelope of the monomial lines y = i·x + a_i.

A degree i is active somewhere iff the point (i, a_i) lies on the lower
convex hull of the finite support points, collinear points included. The
envelope's breakpoints are exactly the corner locus: the x-values where
at least two monomials tie for the minimum.

The hull is the one object every query reads. It is built once per
polynomial, in O(n) for n stored coefficients, and memoized. With h hull
points, evaluation and argmin then take O(log h) (plus the length of a
tie), and the corner locus, envelope and equivalence test take O(h).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import DomainError
from .polynomial import TropPoly
from .scalar import ExtendedRational, _wrap


def _lower_hull_degrees(points, strict: bool = False) -> list:
    """Monotone-chain lower hull over (degree, numerator, denominator)
    triples sorted by degree. Collinear points are kept, so the result is
    every input point lying on the hull boundary; `strict` drops them and
    keeps only the vertices.

    Turn tests are evaluated as integer sign expressions; no rounding.
    """
    # the turn is an integer: popping on turn < 1 also drops collinear points
    pop_below = 1 if strict else 0
    hull: list = []
    for p in points:
        while len(hull) >= 2:
            (x0, n0, d0), (x1, n1, d1) = hull[-2], hull[-1]
            x2, n2, d2 = p
            # sign of the cross product (p1-p0) x (p2-p0), cleared of denominators
            turn = (x1 - x0) * (n2 * d0 - n0 * d2) * d1 - (x2 - x0) * (n1 * d0 - n0 * d1) * d2
            if turn < pop_below:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def hull_points(f: TropPoly) -> list:
    """The finite support points (i, a_i) on the lower hull, as
    (degree, numerator, denominator) triples in increasing degree.
    Memoized on the polynomial."""
    if f.is_zero:
        raise DomainError("the zero polynomial has no envelope")
    if f._hull is None:
        low = f.low_degree
        pts = [
            (low + j, fr.numerator, fr.denominator)
            for j, c in enumerate(f.coeffs)
            if (fr := c._frac) is not None
        ]
        f._hull = _lower_hull_degrees(pts)
    return f._hull


def hull_corners(f: TropPoly) -> list:
    """`hull_points` without the collinear points: the corners of the
    lower hull, which determine the function f. O(h)."""
    return _lower_hull_degrees(hull_points(f), strict=True)


def hull_edges(f: TropPoly) -> list:
    """One (i, k, x) per pair of adjacent hull points of degrees i < k:
    the monomials of degree i and k tie at x = (a_i - a_k)/(k - i), and
    every degree between them is a root x of multiplicity k - i.
    In increasing degree, so x is non-increasing. Memoized on the
    polynomial, like the hull."""
    if f._edges is None:
        hull = hull_points(f)
        f._edges = [
            (i, k, _wrap(Fraction(ni * dk - nk * di, di * dk * (k - i))))
            for (i, ni, di), (k, nk, dk) in zip(hull, hull[1:])
        ]
    return f._edges


def _ascending_distinct(xs) -> list:
    """The distinct values of a non-increasing sequence, ascending."""
    out: list = []
    for x in reversed(xs):
        if not out or out[-1] != x:
            out.append(x)
    return out


# -- point queries ---------------------------------------------------------

def _gap(u, v, p: int, q: int) -> int:
    """An integer with the sign of (a_k + k·x) - (a_i + i·x) at x = p/q,
    q > 0, for hull points u = (i, ni, di) and v = (k, nk, dk): positive
    when degree i is strictly lower there, zero on a tie."""
    (i, ni, di), (k, nk, dk) = u, v
    return (nk * di - ni * dk) * q + (k - i) * p * di * dk


def _first_minimizer(hull: list, p: int, q: int) -> int:
    """Index of the lowest-degree hull point attaining the minimum at p/q.

    Along the hull the switch points are non-increasing, so the test
    "point t is no worse than point t+1" is false, then true: binary
    search finds where it turns.
    """
    lo, hi = 0, len(hull) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _gap(hull[mid], hull[mid + 1], p, q) >= 0:
            hi = mid
        else:
            lo = mid + 1
    return lo


def evaluate_at(f: TropPoly, x: Fraction) -> ExtendedRational:
    """f(x) for a nonzero f: the value of its minimizing hull monomial."""
    hull = hull_points(f)
    p, q = x.numerator, x.denominator
    i, n, d = hull[_first_minimizer(hull, p, q)]
    return _wrap(Fraction(n * q + i * p * d, d * q))


def argmin_at(f: TropPoly, x: Fraction) -> set:
    """Degrees of a nonzero f whose monomials attain the minimum at x:
    the first minimizing hull point and the collinear points tying with it."""
    hull = hull_points(f)
    p, q = x.numerator, x.denominator
    t = _first_minimizer(hull, p, q)
    out = {hull[t][0]}
    while t + 1 < len(hull) and _gap(hull[t], hull[t + 1], p, q) == 0:
        t += 1
        out.add(hull[t][0])
    return out


# -- the envelope ----------------------------------------------------------

@dataclass(frozen=True)
class Piece:
    """One linear piece: the active degree and its closed x-interval.
    None endpoints mark -inf / +inf."""

    degree: int
    lo: Optional[ExtendedRational]
    hi: Optional[ExtendedRational]


@dataclass(frozen=True)
class Envelope:
    """Pieces ordered left to right (degrees strictly decreasing) plus the
    sorted, deduplicated breakpoint list."""

    pieces: Tuple[Piece, ...]
    breakpoints: Tuple[ExtendedRational, ...]


def lower_envelope(f: TropPoly) -> Envelope:
    """Compute the envelope of a nonzero polynomial.

    Between adjacent hull degrees i < k the active line switches at
    x = (a_i - a_k)/(k - i); a degree sandwiched at a multiple switch
    gets a degenerate single-point piece.
    """
    hull = hull_points(f)
    # switch points, one per adjacent hull pair, indexed like hull[:-1]
    switches = [x for _, _, x in hull_edges(f)]
    pieces = []
    m = len(hull) - 1
    for t in range(m, -1, -1):
        lo = switches[t] if t < m else None
        hi = switches[t - 1] if t > 0 else None
        pieces.append(Piece(hull[t][0], lo, hi))
    return Envelope(tuple(pieces), tuple(_ascending_distinct(switches)))


def supports_degree(f: TropPoly, i: int) -> bool:
    """True iff the monomial of degree i attains the minimum at some
    finite point, i.e. (i, a_i) is finite and on the lower hull."""
    if f.is_zero:
        raise DomainError("the zero polynomial has no envelope")
    if not f.low_degree <= i <= f.degree:
        raise DomainError(f"degree {i} outside the support range")
    return any(h == i for h, _, _ in hull_points(f))


def breakpoints(f: TropPoly) -> list:
    """The corner locus of f: sorted distinct x-values where at least two
    monomials tie for the minimum. O(h) after the hull."""
    return _ascending_distinct([x for _, _, x in hull_edges(f)])

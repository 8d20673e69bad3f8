"""Least-coefficient canonical forms.

Every tropical polynomial is functionally equivalent to exactly one
polynomial in which no coefficient can be lowered without changing the
function. Canonical equality therefore decides functional equivalence
exactly, with no sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .envelope import hull_corners, hull_edges, supports_degree
from .errors import DomainError
from .polynomial import TropPoly
from .scalar import INFINITY, _wrap


@dataclass(frozen=True)
class CanonicalPoly:
    """A TropPoly verified to be in least-coefficient form.

    The tag is structural: construction re-checks the invariants (no
    interior inf, consecutive differences non-decreasing downward), so
    any polynomial passing `is_canonical` may be wrapped.
    """

    poly: TropPoly

    def __post_init__(self):
        if not is_canonical(self.poly):
            raise ValueError("polynomial is not in least-coefficient form")

    @classmethod
    def _trusted(cls, poly: TropPoly) -> "CanonicalPoly":
        """Wrap a polynomial built in least-coefficient form by this
        package (read off a hull or a sorted factorization), skipping
        the O(n) re-check."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "poly", poly)
        return obj


def canonicalize_naive(f: TropPoly) -> CanonicalPoly:
    """Reference canonicalization: each coefficient b_j is the min of a_j
    and every chord value (a_i·(k-j) + a_k·(j-i))/(k-i) over i < j < k,
    chords with an infinite endpoint omitted. Cubic; kept as the oracle
    for the hull-based path.
    """
    if f.is_zero:
        raise DomainError("the zero polynomial has no canonical form")
    r = f.low_degree
    coeffs = [c._frac for c in f.coeffs]
    n_len = len(coeffs)
    out = []
    for j in range(n_len):
        best = coeffs[j]
        for i in range(j):
            if coeffs[i] is None:
                continue
            for k in range(j + 1, n_len):
                if coeffs[k] is None:
                    continue
                chord = (coeffs[i] * (k - j) + coeffs[k] * (j - i)) / Fraction(k - i)
                if best is None or chord < best:
                    best = chord
        out.append(INFINITY if best is None else _wrap(best))
    return CanonicalPoly(TropPoly(r, out))


def progression(start: Fraction, step: Fraction, m: int) -> list:
    """The scalars start + step, start + 2·step, ..., start + m·step.

    Canonical coefficients run along each lower-hull edge in such a
    progression, so it is how both `canonicalize` and
    `factorization.expand` build them: one integer add per value, over
    a denominator common to the whole run.
    """
    den = start.denominator // gcd(start.denominator, step.denominator) * step.denominator
    num = start.numerator * (den // start.denominator)
    inc = step.numerator * (den // step.denominator)
    out = []
    for _ in range(m):
        num += inc
        out.append(_wrap(Fraction(num, den)))
    return out


def canonicalize(f: TropPoly) -> CanonicalPoly:
    """Production canonicalization via the lower hull: b_j is the hull's
    value at abscissa j, which is a_j on hull points and, between two
    adjacent hull points, a step along the chord joining them. Linear
    after the degree-sorted scan."""
    if f.is_zero:
        raise DomainError("the zero polynomial has no canonical form")
    r = f.low_degree
    coeffs = f.coeffs
    out = [coeffs[0]]
    for i, k, x in hull_edges(f):
        # the chord from (i, a_i) to (k, a_k) has slope -x
        out += progression(coeffs[i - r].frac, -x.frac, k - i - 1)
        out.append(coeffs[k - r])
    return CanonicalPoly._trusted(TropPoly(r, out))


def is_canonical(f: TropPoly) -> bool:
    """True iff f has no interior inf coefficient and the consecutive
    differences a_{i-1} - a_i do not decrease as i decreases."""
    if f.is_zero:
        raise DomainError("the zero polynomial has no canonical form")
    fracs = [c._frac for c in f.coeffs]
    if any(fr is None for fr in fracs):
        return False
    pairs = [(fr.numerator, fr.denominator) for fr in fracs]
    # convexity of j -> a_j, with cleared denominators
    for (np_, dp), (nm, dm), (nn, dn) in zip(pairs, pairs[1:], pairs[2:]):
        if 2 * nm * dp * dn > (np_ * dn + nn * dp) * dm:
            return False
    return True


def is_least_coefficient(f: TropPoly, i: int) -> bool:
    """True iff a_i cannot be lowered without changing the function."""
    if f.is_zero:
        raise DomainError("the zero polynomial has no coefficients")
    if not f.low_degree <= i <= f.degree:
        raise DomainError(f"degree {i} outside the support range")
    if f.coefficient(i).is_infinite:
        return False
    return supports_degree(f, i)


def equivalent(f: TropPoly, g: TropPoly) -> bool:
    """Decide whether f and g define the same function on all of Q.

    A nonzero polynomial's function is fixed by the corners of its lower
    hull, and fixes them, so this compares the two hulls with collinear
    points dropped: O(h), with no canonical coefficients built.
    """
    if f.is_zero or g.is_zero:
        return f.is_zero and g.is_zero
    return hull_corners(f) == hull_corners(g)

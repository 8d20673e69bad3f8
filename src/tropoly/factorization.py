"""Unique factorization into linear tropical factors.

A canonical polynomial of degree n with least supported degree r splits
as leading·x^r · (x ⊕ d) over n-r roots d, where the roots are the
consecutive-coefficient differences of the canonical form (equivalently,
the negated slopes of its lower-hull edges, with the edge length as
multiplicity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .canonical import CanonicalPoly, progression
from .envelope import breakpoints, hull_edges
from .errors import DomainError
from .polynomial import TropPoly, Term, from_terms, json_int, json_scalar, json_scalars
from .scalar import ExtendedRational, format_scalar


@dataclass(frozen=True)
class Factorization:
    """leading·x^monomial_degree times one linear factor (x ⊕ d) per root.

    Roots are stored sorted non-decreasing; repeated values encode
    multiplicity.
    """

    leading: ExtendedRational
    monomial_degree: int
    roots: Tuple[ExtendedRational, ...]

    def __post_init__(self):
        if self.leading.is_infinite:
            raise ValueError("leading coefficient must be finite")
        if self.monomial_degree < 0:
            raise ValueError("negative monomial degree")
        prev = None
        for d in self.roots:
            if d is prev:  # repeated roots share one object; skip recheck
                continue
            if d.is_infinite:
                raise ValueError("roots must be finite")
            if prev is not None and prev > d:
                raise ValueError("roots must be sorted non-decreasing")
            prev = d

    @property
    def degree(self) -> int:
        return self.monomial_degree + len(self.roots)


def factor(f: TropPoly) -> Factorization:
    """Factor f through its functional-equivalence representative.

    Canonicalizing changes neither the hull, the end coefficients, nor
    the support range, so the factorization is read off the hull of f
    itself: the edge from degree i up to degree k contributes the root
    (a_i - a_k)/(k - i) with multiplicity k - i. Edges are scanned
    top-down, so the roots come out already sorted non-decreasing.
    """
    if f.is_zero:
        raise DomainError("the zero polynomial has no factorization")
    roots = []
    for i, k, d in reversed(hull_edges(f)):
        roots.extend([d] * (k - i))
    return Factorization(
        leading=f.coeffs[-1],
        monomial_degree=f.low_degree,
        roots=tuple(roots),
    )


def _runs(roots) -> list:
    """[root, multiplicity] pairs for the runs of equal values in a
    sorted root sequence."""
    runs: list = []
    for d in roots:
        if runs and (runs[-1][0] is d or runs[-1][0] == d):
            runs[-1][1] += 1
        else:
            runs.append([d, 1])
    return runs


def expand(fac: Factorization) -> CanonicalPoly:
    """Multiply the factorization back out. The coefficient m steps below
    the top degree is leading plus the sum of the m smallest roots.

    Over a run of m equal roots d the coefficients step by d, so each run
    is one arithmetic `progression`.
    """
    coeffs = [fac.leading]
    for d, m in _runs(fac.roots):
        coeffs += progression(coeffs[-1].frac, d.frac, m)
    coeffs.reverse()
    return CanonicalPoly._trusted(TropPoly(fac.monomial_degree, coeffs))


def expand_via_product(fac: Factorization) -> TropPoly:
    """Expansion by iterated min-plus convolution of the linear factors;
    slower cross-check for `expand`."""
    acc = from_terms([Term(fac.leading, fac.monomial_degree)])
    for d in fac.roots:
        acc = acc * from_terms([Term(ExtendedRational(0), 1), Term(d, 0)])
    return acc


def zero_locus(f: TropPoly) -> list:
    """Sorted distinct roots of f: the points where at least two
    monomials tie for the minimum, i.e. the envelope's breakpoints.
    O(h) after the hull."""
    return breakpoints(f)


def multiplicity(f: TropPoly, d: ExtendedRational) -> int:
    """Number of linear factors (x ⊕ d) in the factorization of f: the
    total length of the hull edges that tie at d."""
    if d.is_infinite:
        raise DomainError("roots are finite")
    return sum(k - i for i, k, x in hull_edges(f) if x == d)


# -- text and JSON forms ---------------------------------------------------

def format_factorization(fac: Factorization) -> str:
    """e.g. "0 * x^2 * (x + 3)^2 (x + 5)"; the x^r factor is omitted when
    r is zero, and equal roots are collected into powers."""
    parts = [format_scalar(fac.leading)]
    if fac.monomial_degree == 1:
        parts.append("x")
    elif fac.monomial_degree > 1:
        parts.append(f"x^{fac.monomial_degree}")
    factors = []
    for d, m in _runs(fac.roots):
        base = f"(x + {format_scalar(d)})"
        factors.append(base if m == 1 else f"{base}^{m}")
    if factors:
        parts.append(" ".join(factors))
    return " * ".join(parts)


def factorization_to_json(fac: Factorization) -> dict:
    return {
        "leading": format_scalar(fac.leading),
        "monomial_degree": fac.monomial_degree,
        "roots": [format_scalar(d) for d in fac.roots],
    }


def factorization_from_json(data: dict) -> Factorization:
    """Inverse of factorization_to_json; roots may come in any order.
    A field of the wrong JSON type raises ParseError, never a coercion."""
    return Factorization(
        leading=json_scalar(data, "leading"),
        monomial_degree=json_int(data, "monomial_degree"),
        roots=tuple(sorted(json_scalars(data, "roots"))),
    )

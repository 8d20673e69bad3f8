"""The min-plus semiring on Q ∪ {inf}.

Scalars are exact rationals (arbitrary-precision, always reduced) plus a
distinguished infinity, which is the additive identity of the semiring.
Tropical addition is min, tropical multiplication is classical addition.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import total_ordering
from typing import Union

from .errors import DomainError, ParseError

_SCALAR_RE = re.compile(r"[+-]?\d+(?:/\d+)?")

RationalLike = Union[int, Fraction, "ExtendedRational"]


@total_ordering
class ExtendedRational:
    """An exact rational number, or infinity.

    Infinity compares greater than every finite value. Finite values are
    backed by `fractions.Fraction`, so they are always in lowest terms
    with a positive denominator.
    """

    __slots__ = ("_frac",)

    def __init__(self, value: Union[RationalLike, None]):
        if value is None:
            self._frac = None
        elif type(value) is Fraction:
            self._frac = value  # immutable, so it is shared, not copied
        elif isinstance(value, ExtendedRational):
            self._frac = value._frac
        elif isinstance(value, (int, Fraction)):
            self._frac = Fraction(value)
        else:
            raise TypeError(f"cannot build a scalar from {type(value).__name__}")

    @property
    def is_infinite(self) -> bool:
        return self._frac is None

    @property
    def frac(self) -> Fraction:
        """The underlying Fraction; raises on infinity."""
        if self._frac is None:
            raise DomainError("infinity has no finite value")
        return self._frac

    @property
    def numerator(self) -> int:
        return self.frac.numerator

    @property
    def denominator(self) -> int:
        return self.frac.denominator

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtendedRational):
            return NotImplemented
        return self._frac == other._frac

    def __lt__(self, other: "ExtendedRational") -> bool:
        if not isinstance(other, ExtendedRational):
            return NotImplemented
        if self._frac is None:
            return False
        if other._frac is None:
            return True
        return self._frac < other._frac

    def __hash__(self) -> int:
        return hash(self._frac)

    def __str__(self) -> str:
        return "inf" if self._frac is None else str(self._frac)

    def __repr__(self) -> str:
        return f"ExtendedRational({self})"


def _wrap(frac: Fraction) -> ExtendedRational:
    """Internal fast path: wrap an already-built Fraction without checks."""
    obj = ExtendedRational.__new__(ExtendedRational)
    obj._frac = frac
    return obj


#: The additive identity of the semiring (absorbing for tropical product).
INFINITY = ExtendedRational(None)

#: The multiplicative identity of the semiring.
ZERO = ExtendedRational(0)


def rational(numerator: int, denominator: int = 1) -> ExtendedRational:
    """Finite scalar numerator/denominator, reduced automatically."""
    return ExtendedRational(Fraction(numerator, denominator))


def trop_add(a: ExtendedRational, b: ExtendedRational) -> ExtendedRational:
    """Tropical sum: min(a, b). Infinity is the identity."""
    return a if a <= b else b


def trop_mul(a: ExtendedRational, b: ExtendedRational) -> ExtendedRational:
    """Tropical product: classical a + b. Infinity is absorbing."""
    if a._frac is None or b._frac is None:
        return INFINITY
    return ExtendedRational(a._frac + b._frac)


def trop_pow(a: ExtendedRational, k: int) -> ExtendedRational:
    """k-fold tropical product of a, i.e. classical k·a.

    trop_pow(a, 0) is the multiplicative identity 0 for every a,
    including infinity (empty product).
    """
    if k < 0:
        raise DomainError("exponent must be non-negative")
    if k == 0:
        return ZERO
    if a._frac is None:
        return INFINITY
    return ExtendedRational(a._frac * k)


def trop_inverse(a: ExtendedRational) -> ExtendedRational:
    """Tropical multiplicative inverse: classical negation."""
    if a._frac is None:
        raise DomainError("infinity has no multiplicative inverse")
    return ExtendedRational(-a._frac)


def parse_scalar(text: str, offset: int = 0) -> ExtendedRational:
    """Parse "inf", an integer, or "p/q", with an optional leading sign.

    `offset` shifts reported error positions when the text is a slice of
    a larger input.
    """
    s = text.strip()
    pos = offset + text.index(s) if s else offset
    if s == "inf":
        return INFINITY
    m = _SCALAR_RE.fullmatch(s)
    if m is None:
        raise ParseError(f"malformed rational {s!r}", pos)
    try:
        return ExtendedRational(Fraction(s))
    except ZeroDivisionError:
        raise ParseError("zero denominator", pos) from None


def format_scalar(a: ExtendedRational) -> str:
    """Inverse of parse_scalar: "inf", "p", or "p/q"."""
    return str(a)

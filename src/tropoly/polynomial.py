"""Formal min-plus polynomials in one variable.

A polynomial is a dense coefficient run [a_r, ..., a_n] indexed from its
least supported degree r. The empty run is the zero polynomial, i.e. the
constant function inf. Interior coefficients may be inf; the endpoints of
a nonzero polynomial never are.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple, Sequence

from .errors import DomainError, ParseError
from .scalar import (
    ExtendedRational,
    INFINITY,
    format_scalar,
    parse_scalar,
    trop_add,
)


class Term(NamedTuple):
    coeff: ExtendedRational
    exponent: int


class TropPoly:
    """Immutable tropical polynomial. Build with `from_terms`.

    `low_degree` and `coeffs` are read-only, so the lower hull and its
    edges, memoized on first use (see `envelope.hull_points` and
    `envelope.hull_edges`), always describe them.
    """

    __slots__ = ("_low_degree", "_coeffs", "_hull", "_edges")

    def __init__(self, low_degree: int, coeffs: Sequence[ExtendedRational]):
        coeffs = tuple(coeffs)
        self._hull = None  # lazily memoized by envelope.hull_points
        self._edges = None  # lazily memoized by envelope.hull_edges
        if coeffs:
            if low_degree < 0:
                raise ValueError("negative degree")
            if coeffs[0].is_infinite or coeffs[-1].is_infinite:
                raise ValueError("end coefficients of a nonzero polynomial must be finite")
        else:
            low_degree = 0
        self._low_degree = low_degree
        self._coeffs = coeffs

    # -- structure ---------------------------------------------------------

    @property
    def low_degree(self) -> int:
        """Least supported degree r; 0 for the zero polynomial."""
        return self._low_degree

    @property
    def coeffs(self) -> tuple:
        """The dense coefficient run [a_r, ..., a_n]."""
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise DomainError("the zero polynomial has no degree")
        return self.low_degree + len(self.coeffs) - 1

    def coefficient(self, i: int) -> ExtendedRational:
        """Coefficient of x^i; inf outside the stored run."""
        j = i - self.low_degree
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return INFINITY

    def terms(self) -> Iterator[Term]:
        """Finite (coefficient, degree) terms in increasing degree."""
        for j, c in enumerate(self.coeffs):
            if not c.is_infinite:
                yield Term(c, self.low_degree + j)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropPoly):
            return NotImplemented
        return self.low_degree == other.low_degree and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.low_degree, self.coeffs))

    def __repr__(self) -> str:
        return f"TropPoly({format_poly(self)!r})"

    # -- algebra -----------------------------------------------------------

    def evaluate(self, x0: ExtendedRational) -> ExtendedRational:
        """min over supported degrees i of a_i + i·x0; inf for the zero
        polynomial. Read off the memoized lower hull: O(log h) for h hull
        points once the hull is built."""
        if x0.is_infinite:
            raise DomainError("evaluation at infinity is undefined")
        if not self._coeffs:
            return INFINITY
        from .envelope import evaluate_at  # envelope imports this module

        return evaluate_at(self, x0.frac)

    def argmin_monomials(self, x0: ExtendedRational) -> set:
        """Degrees whose monomial attains the minimum at x0: a run of
        collinear hull points, found in O(log h) plus its length."""
        if not self._coeffs:
            raise DomainError("the zero polynomial has no monomials")
        if x0.is_infinite:
            raise DomainError("evaluation at infinity is undefined")
        from .envelope import argmin_at  # envelope imports this module

        return argmin_at(self, x0.frac)

    def __add__(self, other: "TropPoly") -> "TropPoly":
        """Pointwise tropical sum (coefficient-wise min)."""
        if not isinstance(other, TropPoly):
            return NotImplemented
        terms = [Term(c, i) for c, i in self.terms()]
        terms += [Term(c, i) for c, i in other.terms()]
        return from_terms(terms)

    def __mul__(self, other: "TropPoly") -> "TropPoly":
        """Min-plus convolution: c_k = min over i+j=k of (a_i + b_j)."""
        if not isinstance(other, TropPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return ZERO_POLY
        low = self.low_degree + other.low_degree
        out: list = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        for a, i in self.terms():
            af = a.frac
            for b, j in other.terms():
                k = i + j - low
                v = af + b.frac
                if out[k] is None or v < out[k]:
                    out[k] = v
        return TropPoly(low, [INFINITY if v is None else ExtendedRational(v) for v in out])


#: The zero polynomial, the constant function inf.
ZERO_POLY = TropPoly(0, ())


def from_terms(terms: list) -> TropPoly:
    """Lower raw terms to a TropPoly: min-merge duplicate exponents and
    trim infinite ends. All-inf (or empty) input gives the zero polynomial."""
    merged: dict = {}
    for coeff, exponent in terms:
        if exponent < 0:
            raise ValueError("negative exponent")
        prev = merged.get(exponent)
        merged[exponent] = coeff if prev is None else trop_add(prev, coeff)
    finite = [e for e, c in merged.items() if not c.is_infinite]
    if not finite:
        return ZERO_POLY
    low, high = min(finite), max(finite)
    return TropPoly(low, [merged.get(i, INFINITY) for i in range(low, high + 1)])


# -- text form -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<inf>inf)
  | (?P<x>x)
  | (?P<caret>\^)
  | (?P<plus>\+)
  | (?P<minus>-)
  | (?P<star>\*)
    """,
    re.VERBOSE,
)

_MAX_EXPONENT = 2**32


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        at = tok[2] if tok else len(self.text)
        raise ParseError(message, at)

    def poly(self) -> list:
        if not self.tokens:
            raise ParseError("empty input", 0)
        terms = [self.term()]
        while self.peek() is not None:
            kind, _, _ = self.peek()
            if kind != "plus":
                self.fail("expected '+' between terms")
            self.take()
            terms.append(self.term())
        return terms

    def term(self) -> Term:
        tok = self.peek()
        if tok is None:
            self.fail("expected a term")
        kind, value, at = tok
        coeff = None
        sign = 1
        if kind in ("plus", "minus"):
            sign = -1 if kind == "minus" else 1
            self.take()
            tok = self.peek()
            if tok is None or tok[0] != "number":
                self.fail("expected a number after sign")
            kind, value, at = tok
        if kind in ("number", "inf"):
            self.take()
            if kind == "inf":
                coeff = INFINITY
            else:
                coeff = parse_scalar(value, at)
                if sign < 0:
                    coeff = ExtendedRational(-coeff.frac)
            nxt = self.peek()
            if nxt is not None and nxt[0] == "star":
                self.take()
                if self.peek() is None or self.peek()[0] != "x":
                    self.fail("expected 'x' after '*'")
        nxt = self.peek()
        if nxt is not None and nxt[0] == "x":
            self.take()
            exponent = 1
            if self.peek() is not None and self.peek()[0] == "caret":
                self.take()
                exponent = self.exponent()
            if coeff is None:
                coeff = ExtendedRational(0)
            return Term(coeff, exponent)
        if coeff is None:
            self.fail("expected a coefficient or 'x'")
        return Term(coeff, 0)

    def exponent(self) -> int:
        tok = self.peek()
        if tok is not None and tok[0] == "minus":
            raise ParseError("negative exponent", tok[2])
        if tok is None or tok[0] != "number":
            self.fail("expected an exponent after '^'")
        _, value, at = self.take()
        if "/" in value:
            raise ParseError("exponent must be a non-negative integer", at)
        e = int(value)
        if e >= _MAX_EXPONENT:
            raise ParseError("exponent too large", at)
        return e


def parse_poly(text: str) -> list:
    """Parse the textual grammar: terms joined by '+', each term
    [coef]['*']['x'['^' exp]], coefficients "p/q" rationals or "inf".
    Returns the raw Terms in input order, duplicates allowed."""
    return _Parser(text).poly()


def parse(text: str) -> TropPoly:
    """Parse and lower in one step."""
    return from_terms(parse_poly(text))


def _format_term(c: ExtendedRational, i: int) -> str:
    if i == 0:
        return format_scalar(c)
    x = "x" if i == 1 else f"x^{i}"
    if c == ExtendedRational(0):
        return x
    return format_scalar(c) + x


def format_poly(f: TropPoly) -> str:
    """Canonical text, descending degree; round-trips through parse."""
    if f.is_zero:
        return "inf"
    parts = [_format_term(c, i) for c, i in reversed(list(f.terms()))]
    return " + ".join(parts)


# -- JSON form -------------------------------------------------------------

def poly_to_json(f: TropPoly) -> dict:
    """{"low_degree": r, "coeffs": [...]} with coefficients as exact strings,
    ascending from degree r."""
    return {
        "low_degree": f.low_degree,
        "coeffs": [format_scalar(c) for c in f.coeffs],
    }


def poly_from_json(data: dict) -> TropPoly:
    """Inverse of poly_to_json. A malformed object raises ParseError."""
    low = json_int(data, "low_degree")
    coeffs = json_scalars(data, "coeffs")
    if low < 0:
        raise ParseError("'low_degree' must be non-negative", 0)
    return from_terms([Term(c, low + j) for j, c in enumerate(coeffs)])


def _json_field(data, key: str):
    if not isinstance(data, dict):
        raise ParseError("expected a JSON object", 0)
    if key not in data:
        raise ParseError(f"missing key {key!r}", 0)
    return data[key]


def json_int(data: dict, key: str) -> int:
    """data[key] as an int; a bool, float or anything else raises ParseError."""
    value = _json_field(data, key)
    if type(value) is not int:  # bool is a subclass of int
        raise ParseError(f"{key!r} must be an integer", 0)
    return value


def json_scalar(data: dict, key: str) -> ExtendedRational:
    """data[key], which must be a string, parsed as a scalar."""
    value = _json_field(data, key)
    if not isinstance(value, str):
        raise ParseError(f"{key!r} must be a string", 0)
    return parse_scalar(value)


def json_scalars(data: dict, key: str) -> list:
    """data[key], which must be a list of strings, parsed as scalars."""
    value = _json_field(data, key)
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ParseError(f"{key!r} must be a list of strings", 0)
    return [parse_scalar(s) for s in value]

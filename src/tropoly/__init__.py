"""Exact min-plus (tropical) univariate polynomials over the rationals.

Canonical least-coefficient forms, unique factorization into linear
factors, corner loci, and exact functional-equivalence testing. All
arithmetic is arbitrary-precision rational; nothing is ever rounded.
"""

from .canonical import (
    CanonicalPoly,
    canonicalize,
    canonicalize_naive,
    equivalent,
    is_canonical,
    is_least_coefficient,
)
from .envelope import Envelope, Piece, breakpoints, lower_envelope, supports_degree
from .errors import DomainError, ParseError, TropolyError
from .factorization import (
    Factorization,
    expand,
    expand_via_product,
    factor,
    multiplicity,
    zero_locus,
)
from .polynomial import (
    Term,
    TropPoly,
    ZERO_POLY,
    format_poly,
    from_terms,
    parse,
    parse_poly,
    poly_from_json,
    poly_to_json,
)
from .scalar import (
    ExtendedRational,
    INFINITY,
    ZERO,
    format_scalar,
    parse_scalar,
    rational,
    trop_add,
    trop_inverse,
    trop_mul,
    trop_pow,
)

__all__ = [
    "CanonicalPoly",
    "DomainError",
    "Envelope",
    "ExtendedRational",
    "Factorization",
    "INFINITY",
    "ParseError",
    "Piece",
    "Term",
    "TropPoly",
    "TropolyError",
    "ZERO",
    "ZERO_POLY",
    "breakpoints",
    "canonicalize",
    "canonicalize_naive",
    "equivalent",
    "expand",
    "expand_via_product",
    "factor",
    "format_poly",
    "format_scalar",
    "from_terms",
    "is_canonical",
    "is_least_coefficient",
    "lower_envelope",
    "multiplicity",
    "parse",
    "parse_poly",
    "parse_scalar",
    "poly_from_json",
    "poly_to_json",
    "rational",
    "supports_degree",
    "trop_add",
    "trop_inverse",
    "trop_mul",
    "trop_pow",
    "zero_locus",
]

__version__ = "0.1.0"

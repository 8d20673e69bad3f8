"""Reference answers, written independently of tropoly's code.

Nothing here imports tropoly. A polynomial is a pair ``(low, coeffs)``:
the least supported degree and the dense coefficient run from it, with
``Fraction`` entries and ``None`` for inf. A nonzero run has finite ends;
the zero polynomial is ``(0, [])``.

The checks rest on two exact characterizations rather than on a second
copy of the library's algorithms:

* The min-plus product is the naive convolution ``c_k = min a_i + b_j``.
* The canonical form ``g`` of ``f`` is the largest convex function below
  the points ``(j, f_j)``. A run ``g`` is that function iff it has the
  support range of ``f``, no inf, is convex, lies on or below ``f``, and
  meets ``f`` at each of its own corners (see ``is_canonical_of``). The
  small-degree reference is the chord formula itself.
"""

from __future__ import annotations

import json
from fractions import Fraction


def from_terms(terms) -> tuple:
    """Min-merge raw (coefficient, exponent) terms into a trimmed run."""
    merged: dict = {}
    for c, e in terms:
        if c is None:
            merged.setdefault(e, None)
        elif merged.get(e) is None or c < merged[e]:
            merged[e] = c
    finite = [e for e, c in merged.items() if c is not None]
    if not finite:
        return 0, []
    low, high = min(finite), max(finite)
    return low, [merged.get(e) for e in range(low, high + 1)]


def convolve(f: tuple, g: tuple) -> tuple:
    """Naive min-plus convolution. Candidate sums are compared unreduced by
    cross-multiplication; each output is reduced to a Fraction once."""
    (fl, fc), (gl, gc) = f, g
    if not fc or not gc:
        return 0, []
    a = [(i, c.numerator, c.denominator) for i, c in enumerate(fc) if c is not None]
    b = [(j, c.numerator, c.denominator) for j, c in enumerate(gc) if c is not None]
    best: list = [None] * (len(fc) + len(gc) - 1)
    for i, na, da in a:
        for j, nb, db in b:
            num, den = na * db + nb * da, da * db
            cur = best[i + j]
            if cur is None or num * cur[1] < cur[0] * den:
                best[i + j] = (num, den)
    return fl + gl, [None if v is None else Fraction(*v) for v in best]


def add(f: tuple, g: tuple) -> tuple:
    """Pointwise min of two runs."""
    terms = [(c, f[0] + j) for j, c in enumerate(f[1]) if c is not None]
    terms += [(c, g[0] + j) for j, c in enumerate(g[1]) if c is not None]
    return from_terms(terms)


def evaluate(f: tuple, x: Fraction) -> tuple:
    """(min over finite terms of a_i + i*x, set of degrees attaining it)."""
    low, coeffs = f
    values = [(c + (low + j) * x, low + j) for j, c in enumerate(coeffs) if c is not None]
    best = min(v for v, _ in values)
    return best, {i for v, i in values if v == best}


# -- canonical forms -----------------------------------------------------------

def canonical_chord(f: tuple) -> list:
    """Chord formula: b_j = min(a_j, (a_i (k-j) + a_k (j-i)) / (k-i)) over
    finite a_i, a_k with i < j < k. Cubic; for small degrees only."""
    coeffs = f[1]
    n = len(coeffs)
    out = []
    for j in range(n):
        best = coeffs[j]
        for i in range(j):
            if coeffs[i] is None:
                continue
            for k in range(j + 1, n):
                if coeffs[k] is None:
                    continue
                chord = (coeffs[i] * (k - j) + coeffs[k] * (j - i)) / (k - i)
                if best is None or chord < best:
                    best = chord
        out.append(best)
    return out


def hull_vertices(f: tuple) -> list:
    """Indices into the run of the strict lower-hull vertices (collinear
    points dropped), by a monotone chain with integer turn tests."""
    pts = [(j, c.numerator, c.denominator) for j, c in enumerate(f[1]) if c is not None]
    hull: list = []
    for p in pts:
        while len(hull) >= 2:
            (x0, n0, d0), (x1, n1, d1) = hull[-2], hull[-1]
            x2, n2, d2 = p
            if (x1 - x0) * (n2 * d0 - n0 * d2) * d1 <= (x2 - x0) * (n1 * d0 - n0 * d1) * d2:
                hull.pop()
            else:
                break
        hull.append(p)
    return [x for x, _, _ in hull]


def canonical_hull(f: tuple) -> list:
    """Canonical coefficients as chord values between consecutive hull
    vertices. Linear after the hull; for any degree."""
    coeffs = f[1]
    verts = hull_vertices(f)
    out = [coeffs[verts[0]]]
    for i, k in zip(verts, verts[1:]):
        ai, ak = coeffs[i], coeffs[k]
        ni, di, nk, dk = ai.numerator, ai.denominator, ak.numerator, ak.denominator
        for j in range(i + 1, k):
            out.append(Fraction(ni * dk * (k - j) + nk * di * (j - i), di * dk * (k - i)))
        out.append(ak)
    return out


def canonical(f: tuple) -> list:
    """Canonical coefficients of a nonzero run: the chord formula for
    small degrees, chords over the hull otherwise."""
    return canonical_chord(f) if len(f[1]) <= 16 else canonical_hull(f)


def differences(g: list) -> list:
    """d_j = g_{j-1} - g_j for j = 1..len(g)-1; minus the slopes of g."""
    return [a - b for a, b in zip(g, g[1:])]


def is_canonical_of(f: tuple, g_low: int, g: list) -> bool:
    """True iff (g_low, g) is the canonical form of the nonzero run f.

    g must span f's support range with no inf, be convex, lie on or below
    f, and meet f at its two ends and at each interior corner. Then g is
    the largest convex minorant of f: any convex minorant h has h <= g at
    the corners, hence on each segment between them, and g is one.
    """
    low, coeffs = f
    if g_low != low or len(g) != len(coeffs) or any(c is None for c in g):
        return False
    d = differences(g)
    if any(a < b for a, b in zip(d, d[1:])):
        return False
    if any(c is not None and gc > c for gc, c in zip(g, coeffs)):
        return False
    corners = [0, len(g) - 1] + [j for j in range(1, len(g) - 1) if d[j - 1] > d[j]]
    return all(g[j] == coeffs[j] for j in corners)


def distinct(values) -> list:
    out = []
    for v in values:
        if not out or out[-1] != v:
            out.append(v)
    return out


class Facts:
    """Everything the checks derive from a nonzero run f and its canonical
    coefficients g: roots, corner locus, envelope pieces."""

    def __init__(self, f: tuple, g: list):
        self.f, self.g = f, g
        self.low = f[0]
        self.diffs = differences(g)
        self.roots = self.diffs[::-1]  # non-decreasing, by convexity
        self.distinct = distinct(self.roots)

    def on_hull(self) -> list:
        """Degrees j with f_j finite and on the hull (collinear included)."""
        return [self.low + j for j, (c, gc) in enumerate(zip(self.f[1], self.g)) if c == gc]

    def pieces(self) -> list:
        """Envelope pieces left to right: (degree, lo, hi) with None for
        -inf / +inf, one per hull point, degenerate at collinear ones."""
        pts = self.on_hull()
        coeffs, low = self.f[1], self.low
        switches = [
            (coeffs[i - low] - coeffs[k - low]) / (k - i) for i, k in zip(pts, pts[1:])
        ]
        m = len(pts) - 1
        return [
            (pts[t], switches[t] if t < m else None, switches[t - 1] if t > 0 else None)
            for t in range(m, -1, -1)
        ]

    def at_root(self, x: Fraction) -> tuple:
        """(f(x), argmin degrees) at a root x, read off the canonical form:
        the tying degrees are the hull points on the edge of slope -x."""
        js = [j for j, d in enumerate(self.diffs) if d == x]
        i, k = js[0], js[-1] + 1
        value = self.g[i] + (self.low + i) * x
        tie = {self.low + j for j in range(i, k + 1) if self.f[1][j] == self.g[j]}
        return value, tie


# -- text and JSON forms, as the CLI prints them --------------------------------

def fmt_scalar(c) -> str:
    return "inf" if c is None else str(c)


def fmt_poly(f: tuple) -> str:
    low, coeffs = f
    if not coeffs:
        return "inf"
    parts = []
    for j in range(len(coeffs) - 1, -1, -1):
        c, i = coeffs[j], low + j
        if c is None:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            x = "x" if i == 1 else f"x^{i}"
            parts.append(x if c == 0 else f"{c}{x}")
    return " + ".join(parts)


def poly_json(f: tuple) -> str:
    return json.dumps({"low_degree": f[0], "coeffs": [fmt_scalar(c) for c in f[1]]})


def fmt_factorization(leading: Fraction, r: int, roots: list) -> str:
    parts = [str(leading)]
    if r == 1:
        parts.append("x")
    elif r > 1:
        parts.append(f"x^{r}")
    groups: list = []
    for d in roots:
        if groups and groups[-1][0] == d:
            groups[-1][1] += 1
        else:
            groups.append([d, 1])
    factors = [f"(x + {d})" if m == 1 else f"(x + {d})^{m}" for d, m in groups]
    if factors:
        parts.append(" ".join(factors))
    return " * ".join(parts)


def factorization_json(leading: Fraction, r: int, roots: list) -> str:
    return json.dumps(
        {"leading": str(leading), "monomial_degree": r, "roots": [str(d) for d in roots]}
    )


def expand(leading: Fraction, r: int, roots: list) -> tuple:
    """Coefficients of leading * x^r * prod (x + d): the coefficient m steps
    below the top is leading plus the m smallest roots."""
    roots = sorted(roots)
    coeffs = [leading]
    for d in roots:
        coeffs.append(coeffs[-1] + d)
    return r, coeffs[::-1]

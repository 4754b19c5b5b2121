"""Sparse exact polynomials in two variables s, t.

A polynomial is a dict mapping exponent pairs (es, et) to nonzero
exact coefficients, int or Fraction, kept as given; the zero polynomial
is the empty dict.  Keeping the representation canonical (no zero
coefficients stored) makes equality plain dict equality.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Dict, Tuple

Exponent = Tuple[int, int]
Poly = Dict[Exponent, Rational]


def monomial(coeff, es: int = 0, et: int = 0) -> Poly:
    if coeff == 0:
        return {}
    if es < 0 or et < 0:
        raise ValueError("exponents must be nonnegative")
    return {(es, et): coeff}


def add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def scale(p: Poly, coeff) -> Poly:
    if coeff == 0:
        return {}
    return {e: c * coeff for e, c in p.items()}


def mul(p: Poly, q: Poly, out: Poly | None = None) -> Poly:
    """p * q; when out is given, the product is added into it in place
    and out is returned."""
    if out is None:
        out = {}
    for (a1, a2), c in p.items():
        for (b1, b2), d in q.items():
            e = (a1 + b1, a2 + b2)
            s = out.get(e, 0) + c * d
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def divide(p: Poly, q: Poly) -> Poly | None:
    """The polynomial r with p = r * q, or None when q does not divide p.

    Long division in the lexicographic order with s first (plain tuple
    order on exponents): if q divides p, the leading monomial of every
    remainder is a multiple of that of q.  q must be nonzero.
    """
    lead, lc = max(q.items())
    rem = dict(p)
    out: Poly = {}
    while rem:
        e = max(rem)
        qs, qt = e[0] - lead[0], e[1] - lead[1]
        if qs < 0 or qt < 0:
            return None
        r = Fraction(rem[e]) / lc
        r = r.numerator if r.denominator == 1 else r
        out[(qs, qt)] = r
        mul(monomial(-r, qs, qt), q, rem)
    return out


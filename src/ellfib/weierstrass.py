"""Local analysis of a Weierstrass model y^2 = x^3 + a x + b along a
smooth branch of its discriminant.

The input is the triple of valuations (va, vb, vdelta) of a, b and
Delta = 4 a^3 + 27 b^2 along the branch.  Rescaling (x, y) by a unit u
of weight (2, 3) shifts the triple by (4, 6, 12); a model is minimal
when no full shift can be removed, and the fibre type of the minimal
model is read off the classification table below.

INFINITY is the valuation of the zero polynomial: va = INFINITY means a
vanishes identically.  Valid profiles never have both va and vb
infinite, since then Delta would vanish identically too.
"""

from __future__ import annotations

import functools
import math
import random
import re
from bisect import bisect_left
from dataclasses import dataclass

from . import poly
from .errors import DegenerateModel, InvalidProfile, NotMinimal
from .readers import INFINITY, read_nonnegative

_STAR_KINDS = ("I", "I*")
_FIXED_KINDS = ("II", "III", "IV", "IV*", "III*", "II*")


def _check_valuation(v, name: str):
    if v == INFINITY:
        return
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise InvalidProfile(f"{name} must be a nonnegative integer or INFINITY, got {v!r}")


@dataclass(frozen=True)
class KodairaType:
    """A Kodaira fibre type.  kind is one of I, I*, II, III, IV, IV*,
    III*, II*; index is the subscript for the I and I* series and 0
    otherwise."""

    kind: str
    index: int = 0

    def __post_init__(self):
        if self.kind not in _STAR_KINDS + _FIXED_KINDS:
            raise ValueError(f"unknown fibre kind {self.kind!r}")
        if type(self.index) is not int or self.index < 0:  # no bool or float
            raise ValueError(f"index must be a nonnegative int, got {self.index!r}")
        if self.kind in _FIXED_KINDS and self.index != 0:
            raise ValueError(f"type {self.kind} carries no index")

    @classmethod
    def parse(cls, text: str) -> "KodairaType":
        """The type text names, read as written: spelled as str() spells
        it up to leading zeros of the index, which read_nonnegative reads,
        with no whitespace around it."""
        if text in _FIXED_KINDS:
            return cls(text)
        m = re.fullmatch(r"I(\d+)(\*)?", text)
        if not m:
            raise ValueError(f"cannot parse fibre type {text!r}")
        return cls("I*" if m[2] else "I", read_nonnegative(m[1]))

    @property
    def is_smooth(self) -> bool:
        return self.kind == "I" and self.index == 0

    @property
    def is_multiplicative(self) -> bool:
        return self.kind == "I" and self.index >= 1

    def __str__(self) -> str:
        if self.kind == "I":
            return f"I{self.index}"
        if self.kind == "I*":
            return f"I{self.index}*"
        return self.kind


@dataclass(frozen=True)
class ValuationProfile:
    """Valuations (va, vb, vdelta) of (a, b, Delta) along one branch.

    Since Delta = 4 a^3 + 27 b^2, vdelta is at least min(3 va, 2 vb) and
    equals it whenever 3 va != 2 vb (no cancellation between different
    orders).  vdelta is always finite: Delta never vanishes identically.
    """

    va: object
    vb: object
    vdelta: int

    def __post_init__(self):
        _check_valuation(self.va, "va")
        _check_valuation(self.vb, "vb")
        if not isinstance(self.vdelta, int) or isinstance(self.vdelta, bool) or self.vdelta < 0:
            raise InvalidProfile(
                f"vdelta must be a nonnegative integer, got {self.vdelta!r}"
            )
        if self.va == INFINITY and self.vb == INFINITY:
            raise InvalidProfile("a and b cannot both vanish identically")
        floor = min(3 * self.va, 2 * self.vb)
        if self.vdelta < floor:
            raise InvalidProfile(
                f"vdelta = {self.vdelta} is below min(3 va, 2 vb) = {floor}"
            )
        if 3 * self.va != 2 * self.vb and self.vdelta != floor:
            raise InvalidProfile(
                f"vdelta = {self.vdelta} must equal min(3 va, 2 vb) = {floor} "
                "when 3 va != 2 vb"
            )

    def as_tuple(self):
        return (self.va, self.vb, self.vdelta)


def minimalize(p: ValuationProfile) -> tuple[ValuationProfile, int]:
    """Remove every full unit twist of weight (4, 6, 12).

    Returns the minimal profile and the number of twists removed.
    Infinite valuations stay infinite and do not constrain the count.
    """
    candidates = [p.vdelta // 12]
    if p.va != INFINITY:
        candidates.append(p.va // 4)
    if p.vb != INFINITY:
        candidates.append(p.vb // 6)
    k = min(candidates)
    reduced = ValuationProfile(
        p.va if p.va == INFINITY else p.va - 4 * k,
        p.vb if p.vb == INFINITY else p.vb - 6 * k,
        p.vdelta - 12 * k,
    )
    return reduced, k


def classify(p: ValuationProfile) -> KodairaType:
    """Kodaira type of a minimal profile.

    Raises NotMinimal when va >= 4 and vb >= 6 (a twist remains), with
    INFINITY passing every lower bound.
    """
    va, vb, vd = p.va, p.vb, p.vdelta
    if va >= 4 and vb >= 6:
        raise NotMinimal(f"profile {p.as_tuple()} still admits a unit twist")
    if vd == 0:
        return KodairaType("I", 0)
    if va == 0 and vb == 0:
        return KodairaType("I", vd)
    if va >= 1 and vb == 1:
        return KodairaType("II")
    if va == 1 and vb >= 2:
        return KodairaType("III")
    if va >= 2 and vb == 2:
        return KodairaType("IV")
    if va >= 2 and vb >= 3 and vd == 6:
        return KodairaType("I*", 0)
    if va == 2 and vb == 3 and vd >= 7:
        return KodairaType("I*", vd - 6)
    if va >= 3 and vb == 4:
        return KodairaType("IV*")
    if va == 3 and vb >= 5:
        return KodairaType("III*")
    if va >= 4 and vb == 5:
        return KodairaType("II*")
    raise InvalidProfile(f"profile {p.as_tuple()} matches no table row")


def j_valuation(p: ValuationProfile):
    """Valuation of j = 4 a^3 / Delta along the branch, INFINITY when a
    vanishes identically.  Negative exactly for the I_n, I_n* series."""
    if p.va == INFINITY:
        return INFINITY
    return 3 * p.va - p.vdelta


@dataclass(frozen=True)
class WeierstrassPolyModel:
    """A global model y^2 = x^3 + a(s, t) x + b(s, t) with exact rational
    coefficients.  The coordinate axes {s = 0} and {t = 0} are the
    branches along which profiles are read.

    The discriminant Delta = 4 a^3 + 27 b^2 is never expanded: the
    model reads from a and b only the three facts the analysis needs,
    "Delta is not identically zero" (checked here, raising
    DegenerateModel, by discriminant_vanishes) and v_s(Delta), v_t(Delta)
    (axis_profile).  Each is read from the leading terms of a and b,
    and only where those cancel from more of them."""

    a: poly.Poly
    b: poly.Poly

    def __post_init__(self):
        if discriminant_vanishes(self.a, self.b):
            raise DegenerateModel("discriminant 4 a^3 + 27 b^2 vanishes identically")


def discriminant_vanishes(a: poly.Poly, b: poly.Poly) -> bool:
    """Whether Delta = 4 a^3 + 27 b^2 is the zero polynomial, without
    expanding it.

    With a or b zero, Delta vanishes exactly when both do.  Otherwise
    the leading term of Delta in the lexicographic order is
    4 LT(a)^3 + 27 LT(b)^2 unless those cancel, which needs
    3 LM(a) = 2 LM(b) and 4 LC(a)^3 + 27 LC(b)^2 = 0.  When they do, a
    nonzero value of Delta at one point modulo a prime still proves
    Delta nonzero (_value_mod_p).  Only when that value is zero too is
    the question settled by division: Delta vanishes exactly when
    c = -3 b / (2 a) is a polynomial and a = -3 c^2 (then b = 2 c^3).
    Such a c has int coefficients when a and b do.
    """
    if not a or not b:
        return not a and not b
    (ea, ca), (eb, cb) = max(a.items()), max(b.items())
    if (3 * ea[0], 3 * ea[1]) != (2 * eb[0], 2 * eb[1]) or 4 * ca**3 + 27 * cb**2:
        return False
    if _value_mod_p(a, b):
        return False
    c = poly.divide(poly.scale(b, -3), poly.scale(a, 2))
    return c is not None and poly.scale(poly.mul(c, c), -3) == a


# the product of the primes below 40, for trial division by one gcd
_PRIMORIAL = 7420738134810


@functools.cache
def _modulus() -> tuple[int, int, int]:
    """A 63-bit probable prime p and a point (s0, t0) modulo p, drawn once
    per process from the operating system's random source."""
    rng = random.SystemRandom()
    p = rng.getrandbits(62) | (1 << 62) | 1
    while math.gcd(p, _PRIMORIAL) != 1 or pow(2, p - 1, p) != 1:
        p += 2
    return p, rng.randrange(p), rng.randrange(p)


def _value_mod_p(a: poly.Poly, b: poly.Poly) -> int:
    """Delta = 4 a^3 + 27 b^2 evaluated at the point of _modulus() modulo
    its p; 0 when a denominator is a multiple of p.

    If Delta is zero, so is this value, for any p, so a nonzero value
    proves Delta nonzero and the answer never depends on p.  Long
    division of b by a can take one step per exponent between their
    degrees when a does not divide b, so models whose leading terms
    cancel are first sent here.  A nonzero Delta reads 0 only if p
    divides all its coefficients or the point is one of its at most
    deg(Delta) * p roots modulo p among p^2 points.  Neither can be
    arranged by the input, as p and the point are drawn at random (a
    fixed p would not do: Delta of a = -3 c^2 + p x, b = 2 c^3 + p y
    vanishes modulo p)."""
    p, s0, t0 = _modulus()
    values = []
    for q in (a, b):
        value = 0
        for (es, et), c in q.items():
            den = c.denominator % p
            if not den:
                return 0
            value += c.numerator * pow(den, -1, p) * pow(s0, es, p) * pow(t0, et, p)
        values.append(value % p)
    return (4 * values[0] ** 3 + 27 * values[1] ** 2) % p


def _axis_slices(p: poly.Poly, idx: int, v: int) -> dict[int, poly.Poly]:
    """p grouped by the exponent along axis idx, less v: the slice at
    offset d holds the terms of x^(v + d), with that exponent set to 0."""
    out: dict[int, poly.Poly] = {}
    for e, c in p.items():
        out.setdefault(e[idx] - v, {})[(0, e[1]) if idx == 0 else (e[0], 0)] = c
    return out


def _pairs(xo, yo, lo, hi):
    """The pairs (d, e) of offsets d in xo and e in yo (both sorted) with
    lo <= d + e < hi, grouped by d + e; for a square (xo is yo) only
    the pairs with d <= e."""
    out: dict[int, list] = {}
    for d in xo:
        start, stop = bisect_left(yo, lo - d), bisect_left(yo, hi - d)
        if xo is yo:
            if 2 * d >= hi:
                break
            start = max(start, bisect_left(yo, d))
        elif d >= hi:
            break
        for e in yo[start:stop]:
            out.setdefault(d + e, []).append((d, e))
    return out


def _slice(x, y, pairs) -> poly.Poly:
    """The sum of x[d] * y[e] over the given pairs, each pair d < e of a
    square (x is y) counted twice."""
    out: poly.Poly = {}
    for d, e in pairs:
        poly.mul(poly.scale(x[d], 2) if x is y and d != e else x[d], y[e], out)
    return out


# perfbench/tracing.py times the discriminant reads under this name
discriminant = discriminant_vanishes


def axis_profile(model: WeierstrassPolyModel, axis: str) -> ValuationProfile:
    """Valuation profile (alpha, beta, v(Delta)) of the model along the s
    or t axis, alpha = v(a) and beta = v(b), INFINITY for a zero
    coefficient.

    v(Delta) = min(3 alpha, 2 beta) when 3 alpha != 2 beta, which holds
    whenever a or b is zero.  Otherwise Delta is expanded one axis degree
    at a time from the lowest slices of a and b.  Its lowest slice
    4 a_0^3 + 27 b_0^2 is tested like the whole (discriminant_vanishes).
    The higher ones are built in increasing order, each from the slices
    of a, a^2 and b below it, until one is nonzero; windows of doubling
    width find the degrees where some product lands, so empty degrees
    cost nothing.
    """
    idx = ("s", "t").index(axis)
    a, b = model.a, model.b
    alpha = min(e[idx] for e in a) if a else INFINITY
    beta = min(e[idx] for e in b) if b else INFINITY
    if 3 * alpha != 2 * beta:
        return ValuationProfile(alpha, beta, min(3 * alpha, 2 * beta))
    xa, xb = _axis_slices(a, idx, alpha), _axis_slices(b, idx, beta)
    if not discriminant_vanishes(xa[0], xb[0]):
        return ValuationProfile(alpha, beta, 3 * alpha)
    ao, bo = sorted(xa), sorted(xb)
    a2 = {0: poly.mul(xa[0], xa[0])}  # slices of a^2
    a2o = [0]  # the offsets where a^2 may have a slice, sorted
    lo, hi = 1, 2
    while lo <= max(3 * ao[-1], 2 * bo[-1]):
        p2 = _pairs(ao, ao, lo, hi)
        a2o += sorted(p2)
        p3, q2 = _pairs(ao, a2o, lo, hi), _pairs(bo, bo, lo, hi)
        for j in sorted({*p2, *p3, *q2}):
            a2[j] = _slice(xa, xa, p2.get(j, ()))
            a3_j = _slice(xa, a2, p3.get(j, ()))
            b2_j = _slice(xb, xb, q2.get(j, ()))
            if poly.add(poly.scale(a3_j, 4), poly.scale(b2_j, 27)):
                return ValuationProfile(alpha, beta, 3 * alpha + j)
        lo, hi = hi, 2 * hi
    raise DegenerateModel("discriminant 4 a^3 + 27 b^2 vanishes identically")

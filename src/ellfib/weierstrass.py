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

import re
from dataclasses import dataclass, field

from . import poly
from .errors import DegenerateModel, InvalidProfile, NotMinimal

INFINITY = float("inf")

_STAR_KINDS = ("I", "I*")
_FIXED_KINDS = ("II", "III", "IV", "IV*", "III*", "II*")


def is_infinite(v) -> bool:
    return v == INFINITY


def render_valuation(v):
    """A valuation as it is printed: "inf" for INFINITY, a finite one as
    the int itself, so it reads the same in text and in JSON."""
    return "inf" if v == INFINITY else v


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
        if not isinstance(self.index, int) or self.index < 0:
            raise ValueError(f"index must be a nonnegative int, got {self.index!r}")
        if self.kind in _FIXED_KINDS and self.index != 0:
            raise ValueError(f"type {self.kind} carries no index")

    @classmethod
    def parse(cls, text: str) -> "KodairaType":
        text = text.strip()
        if text in _FIXED_KINDS:
            return cls(text)
        m = re.fullmatch(r"I(\d+)(\*)?", text)
        if m:
            return cls("I*" if m.group(2) else "I", int(m.group(1)))
        raise ValueError(f"cannot parse fibre type {text!r}")

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
        if is_infinite(self.va) and is_infinite(self.vb):
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
    if not is_infinite(p.va):
        candidates.append(p.va // 4)
    if not is_infinite(p.vb):
        candidates.append(p.vb // 6)
    k = min(candidates)
    reduced = ValuationProfile(
        p.va if is_infinite(p.va) else p.va - 4 * k,
        p.vb if is_infinite(p.vb) else p.vb - 6 * k,
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
    if is_infinite(p.va):
        return INFINITY
    return 3 * p.va - p.vdelta


@dataclass(frozen=True)
class WeierstrassPolyModel:
    """A global model y^2 = x^3 + a(s, t) x + b(s, t) with exact rational
    coefficients and its discriminant delta, built once.  The coordinate
    axes {s = 0} and {t = 0} are the branches along which profiles are read."""

    a: poly.Poly
    b: poly.Poly
    delta: poly.Poly = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "delta", discriminant(self))


def discriminant(model: WeierstrassPolyModel) -> poly.Poly:
    """Delta = 4 a^3 + 27 b^2; identically zero models are rejected."""
    delta = poly.add(
        poly.scale(poly.power(model.a, 3), 4),
        poly.scale(poly.power(model.b, 2), 27),
    )
    if poly.is_zero(delta):
        raise DegenerateModel("discriminant 4 a^3 + 27 b^2 vanishes identically")
    return delta


def axis_profile(model: WeierstrassPolyModel, axis: str) -> ValuationProfile:
    """Valuation profile of the model along one coordinate axis."""
    va = INFINITY if poly.is_zero(model.a) else poly.axis_valuation(model.a, axis)
    vb = INFINITY if poly.is_zero(model.b) else poly.axis_valuation(model.b, axis)
    return ValuationProfile(va, vb, poly.axis_valuation(model.delta, axis))

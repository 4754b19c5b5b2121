"""Shared helpers for the test suite: canonical valuation profiles per
fibre type, small enumerations used by several test modules, and the
polynomial oracles (powers and the fully expanded discriminant) that the
library's leading-term reads are checked against."""

from ellfib import KodairaType, ValuationProfile, poly

# One minimal profile classifying to each type; for the I and I* series
# the profile depends on the index.
_FIXED_PROFILES = {
    "II": (1, 1, 2),
    "III": (1, 2, 3),
    "IV": (2, 2, 4),
    "IV*": (3, 4, 8),
    "III*": (3, 5, 9),
    "II*": (4, 5, 10),
}


def canonical_profile(ft: KodairaType) -> ValuationProfile:
    if ft.kind == "I":
        return ValuationProfile(0, 0, ft.index)
    if ft.kind == "I*":
        return ValuationProfile(2, 3, 6 + ft.index)
    return ValuationProfile(*_FIXED_PROFILES[ft.kind])


def types_with_index_up_to(bound: int, include_smooth: bool = False):
    """All fibre types with index at most bound: I_1..I_bound,
    I*_0..I*_bound and the six fixed additive types."""
    out = []
    if include_smooth:
        out.append(KodairaType("I", 0))
    out.extend(KodairaType("I", n) for n in range(1, bound + 1))
    out.extend(KodairaType("I*", n) for n in range(0, bound + 1))
    out.extend(KodairaType(kind) for kind in ("II", "III", "IV", "IV*", "III*", "II*"))
    return out


def summed_profile_is_consistent(p: ValuationProfile, q: ValuationProfile) -> bool:
    """Whether the componentwise sum of two finite profiles satisfies the
    discriminant relation (the check recomputed from scratch, so tests do
    not rely on the library's own validation)."""
    va = p.va + q.va
    vb = p.vb + q.vb
    vd = p.vdelta + q.vdelta
    floor = min(3 * va, 2 * vb)
    if vd < floor:
        return False
    if 3 * va != 2 * vb and vd != floor:
        return False
    return True


def power(p: poly.Poly, n: int) -> poly.Poly:
    """p^n by repeated multiplication."""
    if n < 0:
        raise ValueError("negative power")
    out = poly.const(1) if n == 0 else p
    for _ in range(n - 1):
        out = poly.mul(out, p)
    return out


def discriminant(a: poly.Poly, b: poly.Poly) -> poly.Poly:
    """Delta = 4 a^3 + 27 b^2, expanded term by term (zero when it
    vanishes identically)."""
    return poly.add(poly.scale(power(a, 3), 4), poly.scale(power(b, 2), 27))

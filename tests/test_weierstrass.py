"""Tests for valuation profiles, twist removal, fibre classification and
the polynomial front end.

The classification table is cross-checked against an independent
invariant: the Euler number of the classified type must equal vdelta of
the (minimal) profile.
"""

import random
from fractions import Fraction

import pytest

from ellfib import poly
from ellfib.errors import (
    DegenerateModel,
    InvalidProfile,
    NotMinimal,
)
from ellfib.kodaira import euler_number
from ellfib.weierstrass import (
    INFINITY,
    KodairaType,
    ValuationProfile,
    WeierstrassPolyModel,
    axis_profile,
    classify,
    discriminant,
    j_valuation,
    minimalize,
)

from support import canonical_profile, types_with_index_up_to


# ---------------------------------------------------------------------------
# fibre type values


def test_kodaira_type_parse_and_str():
    for text in ("I0", "I1", "I12", "I0*", "I3*", "II", "III", "IV", "IV*", "III*", "II*"):
        assert str(KodairaType.parse(text)) == text
    assert KodairaType.parse(" IV* ") == KodairaType("IV*")
    with pytest.raises(ValueError):
        KodairaType.parse("V")
    with pytest.raises(ValueError):
        KodairaType.parse("I-1")
    with pytest.raises(ValueError):
        KodairaType("II", 3)
    with pytest.raises(ValueError):
        KodairaType("W")


def test_kodaira_type_predicates():
    assert KodairaType("I", 0).is_smooth
    assert not KodairaType("I", 0).is_multiplicative
    assert KodairaType("I", 4).is_multiplicative


# ---------------------------------------------------------------------------
# profile validation


def test_profile_validation_accepts_consistent_triples():
    ValuationProfile(0, 0, 5)
    ValuationProfile(2, 3, 6)  # 3 va == 2 vb: any vdelta >= 6
    ValuationProfile(2, 3, 11)
    ValuationProfile(1, 1, 2)
    ValuationProfile(INFINITY, 2, 4)
    ValuationProfile(2, INFINITY, 6)
    ValuationProfile(0, 0, 0)


def test_profile_validation_rejects_inconsistent_triples():
    with pytest.raises(InvalidProfile):
        ValuationProfile(2, 3, 5)  # below min(3 va, 2 vb)
    with pytest.raises(InvalidProfile):
        ValuationProfile(1, 1, 3)  # 3 va != 2 vb forces vdelta = 2
    with pytest.raises(InvalidProfile):
        ValuationProfile(0, 0, -1)
    with pytest.raises(InvalidProfile):
        ValuationProfile(-1, 0, 0)
    with pytest.raises(InvalidProfile):
        ValuationProfile(INFINITY, INFINITY, 3)  # Delta would vanish too
    with pytest.raises(InvalidProfile):
        ValuationProfile(2, INFINITY, 7)  # vdelta must equal 3 va = 6
    with pytest.raises(InvalidProfile):
        ValuationProfile(Fraction(1, 2), 0, 0)
    with pytest.raises(InvalidProfile):
        ValuationProfile(True, 0, 0)


# ---------------------------------------------------------------------------
# twist removal


def test_minimalize_examples():
    assert minimalize(ValuationProfile(6, 9, 18)) == (ValuationProfile(2, 3, 6), 1)
    assert minimalize(ValuationProfile(8, 12, 24)) == (ValuationProfile(0, 0, 0), 2)
    assert minimalize(ValuationProfile(5, 7, 14)) == (ValuationProfile(1, 1, 2), 1)
    assert minimalize(ValuationProfile(0, 0, 7)) == (ValuationProfile(0, 0, 7), 0)
    # infinite valuations never constrain the twist count
    assert minimalize(ValuationProfile(INFINITY, 6, 12)) == (
        ValuationProfile(INFINITY, 0, 0),
        1,
    )
    assert minimalize(ValuationProfile(4, INFINITY, 12)) == (
        ValuationProfile(0, INFINITY, 0),
        1,
    )


def test_minimalize_result_is_always_classifiable():
    rng = random.Random(42)
    for _ in range(300):
        p = _random_consistent_profile(rng)
        reduced, k = minimalize(p)
        assert k >= 0
        classify(reduced)  # must not raise


# ---------------------------------------------------------------------------
# classification


def test_classify_table_rows():
    cases = [
        ((0, 0, 0), "I0"),
        ((0, 0, 1), "I1"),
        ((0, 0, 9), "I9"),
        ((1, 1, 2), "II"),
        ((2, 1, 2), "II"),
        ((3, 1, 2), "II"),
        ((INFINITY, 1, 2), "II"),
        ((1, 2, 3), "III"),
        ((1, 5, 3), "III"),
        ((1, INFINITY, 3), "III"),
        ((2, 2, 4), "IV"),
        ((3, 2, 4), "IV"),
        ((INFINITY, 2, 4), "IV"),
        ((2, 3, 6), "I0*"),
        ((3, 3, 6), "I0*"),
        ((2, 4, 6), "I0*"),
        ((2, INFINITY, 6), "I0*"),
        ((2, 3, 7), "I1*"),
        ((2, 3, 13), "I7*"),
        ((3, 4, 8), "IV*"),
        ((INFINITY, 4, 8), "IV*"),
        ((3, 5, 9), "III*"),
        ((3, INFINITY, 9), "III*"),
        ((4, 5, 10), "II*"),
        ((INFINITY, 5, 10), "II*"),
    ]
    for triple, expected in cases:
        assert str(classify(ValuationProfile(*triple))) == expected


def test_classify_rejects_non_minimal():
    for triple in ((4, 6, 12), (5, 7, 14), (INFINITY, 6, 12), (4, INFINITY, 12), (6, 6, 12)):
        with pytest.raises(NotMinimal):
            classify(ValuationProfile(*triple))


def test_classify_canonical_profiles_round_trip():
    for ft in types_with_index_up_to(9, include_smooth=True):
        assert classify(canonical_profile(ft)) == ft


def test_euler_number_equals_vdelta_on_minimal_profiles():
    # strong cross-check of the table: the Euler number of the type must
    # reproduce vdelta, for every consistent minimal profile in a box
    checked = 0
    values = list(range(0, 7)) + [INFINITY]
    for va in values:
        for vb in values:
            if va == INFINITY and vb == INFINITY:
                continue
            if 3 * va != 2 * vb:
                deltas = [min(3 * va, 2 * vb)]
            else:
                deltas = [3 * va + extra for extra in range(0, 9)]
            for vd in deltas:
                if vd == INFINITY:
                    continue
                p = ValuationProfile(va, vb, int(vd))
                reduced, _ = minimalize(p)
                ft = classify(reduced)
                assert euler_number(ft) == reduced.vdelta
                checked += 1
    assert checked > 50


def _random_consistent_profile(rng):
    choices = list(range(0, 9)) + [INFINITY]
    while True:
        va = rng.choice(choices)
        vb = rng.choice(choices)
        if va == INFINITY and vb == INFINITY:
            continue
        if 3 * va == 2 * vb:
            vd = 3 * va + rng.randint(0, 8)
        else:
            vd = min(3 * va, 2 * vb)
        return ValuationProfile(va, vb, int(vd))


def test_twist_invariance_of_classification():
    rng = random.Random(43)
    for _ in range(120):
        p = _random_consistent_profile(rng)
        base_min, _ = minimalize(p)
        base_type = classify(base_min)
        for k in range(1, 4):
            twisted = ValuationProfile(p.va + 4 * k, p.vb + 6 * k, p.vdelta + 12 * k)
            tw_min, _ = minimalize(twisted)
            assert tw_min == base_min
            assert classify(tw_min) == base_type


def test_j_valuation():
    assert j_valuation(ValuationProfile(0, 0, 5)) == -5
    assert j_valuation(ValuationProfile(1, 1, 2)) == 1
    assert j_valuation(ValuationProfile(2, 3, 6)) == 0
    assert j_valuation(ValuationProfile(2, 3, 9)) == -3
    assert j_valuation(ValuationProfile(INFINITY, 2, 4)) == INFINITY


# ---------------------------------------------------------------------------
# polynomial front end


def _monomial_model(c1, p1, q1, c2, p2, q2):
    return WeierstrassPolyModel(
        poly.monomial(c1, p1, q1), poly.monomial(c2, p2, q2)
    )


def test_discriminant_degenerate_model():
    # 4 a^3 + 27 b^2 = 0 for a = -3 u^2, b = 2 u^3
    with pytest.raises(DegenerateModel):
        WeierstrassPolyModel(poly.monomial(-3, 0, 2), poly.monomial(2, 0, 3))


def test_axis_profiles_cuspidal_model():
    model = WeierstrassPolyModel(poly.monomial(1, 1, 0), poly.monomial(1, 1, 0))
    s_profile = axis_profile(model, "s")
    t_profile = axis_profile(model, "t")
    assert s_profile == ValuationProfile(1, 1, 2)
    assert str(classify(s_profile)) == "II"
    assert t_profile == ValuationProfile(0, 0, 0)
    assert classify(t_profile).is_smooth


def test_axis_profiles_double_i0star_model():
    model = _monomial_model(1, 2, 2, 1, 3, 3)
    for axis in ("s", "t"):
        profile = axis_profile(model, axis)
        assert profile == ValuationProfile(2, 3, 6)
        assert str(classify(profile)) == "I0*"


def test_axis_profile_with_identically_zero_coefficient():
    # a = 0: va is infinite, vdelta = 2 vb
    model = WeierstrassPolyModel(poly.zero(), poly.monomial(1, 2, 0))
    profile = axis_profile(model, "s")
    assert profile == ValuationProfile(INFINITY, 2, 4)
    assert str(classify(profile)) == "IV"


def test_axis_profile_detects_cancellation():
    # 4 a^3 and 27 b^2 cancel at order 6; the perturbation raises the
    # discriminant valuation to 7 and the branch carries I1*
    a = poly.monomial(-3, 2, 0)
    b = poly.add(poly.monomial(2, 3, 0), poly.monomial(1, 4, 0))
    profile = axis_profile(WeierstrassPolyModel(a, b), "s")
    assert profile == ValuationProfile(2, 3, 7)
    assert str(classify(profile)) == "I1*"


def test_monomial_discriminant_valuation_rule():
    # for monomial a, b with 3 v(a) != 2 v(b) there is no cancellation:
    # v(Delta) = min(3 v(a), 2 v(b)) on each axis
    rng = random.Random(44)
    done = 0
    while done < 60:
        p1, q1 = rng.randint(0, 5), rng.randint(0, 5)
        p2, q2 = rng.randint(0, 5), rng.randint(0, 5)
        if 3 * p1 == 2 * p2 or 3 * q1 == 2 * q2:
            continue
        c1 = rng.choice([x for x in range(-5, 6) if x])
        c2 = rng.choice([x for x in range(-5, 6) if x])
        model = _monomial_model(c1, p1, q1, c2, p2, q2)
        delta = discriminant(model)
        assert poly.axis_valuation(delta, "s") == min(3 * p1, 2 * p2)
        assert poly.axis_valuation(delta, "t") == min(3 * q1, 2 * q2)
        for axis, va, vb in (("s", p1, p2), ("t", q1, q2)):
            profile = axis_profile(model, axis)
            assert profile.as_tuple() == (va, vb, min(3 * va, 2 * vb))
            assert j_valuation(profile) == 3 * profile.va - profile.vdelta
        done += 1

"""Tests for valuation profiles, twist removal, fibre classification and
the polynomial front end.

The classification table is cross-checked against an independent
invariant: the Euler number of the classified type must equal vdelta of
the (minimal) profile.
"""

import random
from fractions import Fraction

import pytest

from ellfib import poly, weierstrass
from ellfib.errors import (
    DegenerateModel,
    InvalidProfile,
    NotMinimal,
)
from ellfib.kodaira import euler_number
from ellfib.readers import INFINITY
from ellfib.weierstrass import (
    KodairaType,
    ValuationProfile,
    WeierstrassPolyModel,
    axis_profile,
    classify,
    j_valuation,
    minimalize,
)

from support import (
    axis_valuation,
    canonical_profile,
    discriminant,
    random_consistent_profile,
    types_with_index_up_to,
)


# ---------------------------------------------------------------------------
# fibre type values


def test_kodaira_type_parse_and_str():
    for text in ("I0", "I1", "I12", "I0*", "I3*", "II", "III", "IV", "IV*", "III*", "II*"):
        assert str(KodairaType.parse(text)) == text
    # a type is read as written: whitespace around it is not stripped
    for text in (" IV* ", " I3", "I3 ", "I3\n"):
        with pytest.raises(ValueError, match="cannot parse fibre type"):
            KodairaType.parse(text)
    with pytest.raises(ValueError):
        KodairaType.parse("V")
    with pytest.raises(ValueError):
        KodairaType.parse("I-1")
    with pytest.raises(ValueError):
        KodairaType("II", 3)
    with pytest.raises(ValueError):
        KodairaType("W")
    # a bool or float index would print as ITrue or IFalse*
    for kind, index in (("I", True), ("I*", False), ("I", 2.0)):
        with pytest.raises(ValueError, match="index must be a nonnegative int"):
            KodairaType(kind, index)


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
        p = random_consistent_profile(rng)
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


def test_twist_invariance_of_classification():
    rng = random.Random(43)
    for _ in range(120):
        p = random_consistent_profile(rng)
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
    model = WeierstrassPolyModel({}, poly.monomial(1, 2, 0))
    profile = axis_profile(model, "s")
    assert profile == ValuationProfile(INFINITY, 2, 4)
    assert str(classify(profile)) == "IV"
    # b = 0: vb is infinite, vdelta = 3 va
    model = WeierstrassPolyModel(poly.monomial(1, 1, 2), {})
    profile = axis_profile(model, "t")
    assert profile == ValuationProfile(2, INFINITY, 6)
    assert str(classify(profile)) == "I0*"


def test_axis_profile_refuses_other_axes():
    # only the coordinate axes s and t are branches; the empty name too
    # is refused, though it is a substring of "st"
    model = WeierstrassPolyModel(poly.monomial(1, 1, 0), poly.monomial(1, 0, 1))
    for axis in ("x", "", "st", "S"):
        with pytest.raises(ValueError):
            axis_profile(model, axis)


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
        delta = discriminant(model.a, model.b)
        assert axis_valuation(delta, "s") == min(3 * p1, 2 * p2)
        assert axis_valuation(delta, "t") == min(3 * q1, 2 * q2)
        for axis, va, vb in (("s", p1, p2), ("t", q1, q2)):
            profile = axis_profile(model, axis)
            assert profile.as_tuple() == (va, vb, min(3 * va, 2 * vb))
            assert j_valuation(profile) == 3 * profile.va - profile.vdelta
        done += 1


def _random_poly(rng, terms, box, ratios):
    p = {}
    for _ in range(terms):
        c = rng.choice([x for x in range(-6, 7) if x])
        if ratios and rng.random() < 0.4:
            c = Fraction(c, rng.choice((2, 3, 5, 7)))
        p = poly.add(p, poly.monomial(c, rng.randrange(box), rng.randrange(box)))
    return p


def _oracle_case(rng, i):
    """(a, b), with int coefficients on even cases and Fraction ones on
    odd cases.  Half have cancelling leading terms (a = -3 w^2,
    b = 2 w^3 + r); the rest in turn have 3 LM(a) = 2 LM(b) with
    4 LC(a)^3 + 27 LC(b)^2 != 0, are degenerate (a = -3 c^2, b = 2 c^3),
    have a or b (or both) zero, or are unrelated."""
    ratios = i % 2 == 1
    w = _random_poly(rng, rng.randint(1, 4), 4, ratios)
    r = poly.mul(poly.monomial(1, rng.randint(0, 3), rng.randint(0, 3)),
                 _random_poly(rng, rng.randint(1, 3), 3, ratios))
    w2 = poly.mul(w, w)
    w3 = poly.mul(w2, w)
    kind = i % 8
    if kind < 4:
        return poly.scale(w2, -3), poly.add(poly.scale(w3, 2), r)
    if kind == 4:
        lam = rng.choice([x for x in range(-4, 5) if x not in (0, -3)])
        return poly.scale(w2, lam), poly.add(poly.scale(w3, rng.choice((1, 2, -2))), r)
    if kind == 5:
        return poly.scale(w2, -3), poly.scale(w3, 2)
    if kind == 6:
        return rng.choice(((w, {}), ({}, r), ({}, {})))
    return _random_poly(rng, rng.randint(1, 5), 5, ratios), _random_poly(rng, rng.randint(1, 5), 5, ratios)


@pytest.mark.parametrize("certificate", [True, False], ids=["mod_p", "division_only"])
def test_leading_term_reads_match_full_discriminant(certificate, monkeypatch):
    # discriminant_vanishes, the model and axis_profile read Delta
    # from leading terms and low slices only; the oracle expands all of it.
    # Without the modular certificate every cancelling case goes to division.
    if not certificate:
        monkeypatch.setattr(weierstrass, "_value_mod_p", lambda a, b: 0)
    rng = random.Random(20261018)
    seen = {"cancelled": 0, "degenerate": 0, "lm_tie": 0}
    for i in range(320):
        a, b = _oracle_case(rng, i)
        delta = discriminant(a, b)
        assert weierstrass.discriminant_vanishes(a, b) == (not delta), (a, b)
        if not delta:
            seen["degenerate"] += 1
            with pytest.raises(DegenerateModel):
                WeierstrassPolyModel(a, b)
            continue
        if a and b and (3 * max(a)[0], 3 * max(a)[1]) == (2 * max(b)[0], 2 * max(b)[1]):
            seen["lm_tie"] += 1
        model = WeierstrassPolyModel(a, b)
        for axis in ("s", "t"):
            profile = axis_profile(model, axis)
            vdelta = axis_valuation(delta, axis)
            assert profile.vdelta == vdelta, (a, b, axis)
            assert profile.va == (axis_valuation(a, axis) if a else INFINITY)
            assert profile.vb == (axis_valuation(b, axis) if b else INFINITY)
            seen["cancelled"] += vdelta > min(3 * profile.va, 2 * profile.vb)
    assert seen["cancelled"] >= 120 and seen["degenerate"] >= 40 and seen["lm_tie"] >= 140, seen


def test_cancelling_models_are_proved_nonzero_without_division(monkeypatch):
    # The modulus and point of the nonzero proof are drawn at random, so
    # neither a model that vanishes modulo a fixed prime nor one whose
    # long division would take a step per exponent reaches division.
    def no_division(p, q):
        raise AssertionError("divided")

    monkeypatch.setattr(poly, "divide", no_division)
    fixed = 2**61 - 1
    c = {(0, 0): 1, (1, 2): 3, (3, 1): -2}
    c2 = poly.mul(c, c)
    k = 11111
    for a, b in (
        (poly.add(poly.scale(c2, -3), poly.monomial(fixed, 1, 1)),
         poly.add(poly.scale(poly.mul(c2, c), 2), poly.monomial(fixed**2, 0, 2))),
        ({(0, 2 * k): -3, (0, 7): 5, (0, 0): -3}, {(0, 3 * k): 2, (0, 11): -1, (0, 0): 2}),
    ):
        assert 4 * max(a.items())[1] ** 3 + 27 * max(b.items())[1] ** 2 == 0
        assert discriminant(a, b)
        assert not weierstrass.discriminant_vanishes(a, b)


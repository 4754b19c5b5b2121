"""Tests for component presentations of resolved collisions and the
local Tate-Shafarevich groups computed from them."""

import hashlib
import json
import pathlib
import random
from fractions import Fraction

import pytest

from ellfib.collisions import miranda_entry
from ellfib.errors import PresentationInconsistent
from ellfib.exact_linalg import DivisibleGroup
from ellfib.kodaira import component_count, multiplicities
from ellfib.presentations import (
    MAX_PRESENTATION_SIZE,
    BranchPresentation,
    CollisionPresentation,
    DivisorRecord,
    assemble,
    load_presentation_file,
    load_presentations,
    local_sha_with_witnesses,
    miranda_presentation,
    presentation_from_dict,
)
from ellfib.weierstrass import KodairaType

from support import I2_I0STAR, cokernel_chart, types_with_index_up_to

SHIPPED_FILE = (
    pathlib.Path(__file__).resolve().parent.parent / "corpus" / "presentations" / "i2_i0star.json"
)

REFERENCE_WITNESS = (
    Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(1, 2),
    Fraction(0), Fraction(0), Fraction(0),
)


def _i2_i0star() -> CollisionPresentation:
    return load_presentations()[I2_I0STAR]


# ---------------------------------------------------------------------------
# data validation


def test_divisor_record_validation():
    with pytest.raises(PresentationInconsistent):
        DivisorRecord(0, 1, (1,))
    with pytest.raises(PresentationInconsistent):
        DivisorRecord(1, 0, (1,))
    with pytest.raises(PresentationInconsistent):
        DivisorRecord(1, 1, (0, 0))
    with pytest.raises(PresentationInconsistent):
        DivisorRecord(1, 1, (1, -1))


def test_presentation_bookkeeping_identity():
    # each branch's divisors must sweep out exactly the central fibre
    with pytest.raises(PresentationInconsistent):
        CollisionPresentation(
            (1, 2),
            (BranchPresentation(KodairaType.parse("I1"), (DivisorRecord(1, 1, (1, 1)),)),),
        )
    with pytest.raises(PresentationInconsistent):
        CollisionPresentation((1, 1), ())
    with pytest.raises(PresentationInconsistent):
        CollisionPresentation(
            (0, 1), (BranchPresentation(KodairaType.parse("I1"), (DivisorRecord(1, 1, (0, 1)),)),)
        )
    with pytest.raises(PresentationInconsistent):
        # incidence length mismatch
        CollisionPresentation(
            (1,),
            (BranchPresentation(KodairaType.parse("I1"), (DivisorRecord(1, 1, (1, 0)),)),),
        )
    with pytest.raises(PresentationInconsistent):
        BranchPresentation(KodairaType.parse("I1"), ())
    with pytest.raises(PresentationInconsistent, match="'I2x'"):
        BranchPresentation("I2x", (DivisorRecord(1, 1, (1,)),))


def test_tampered_multiplicity_is_rejected():
    data = _builtin_as_dict()
    data["branches"][1]["divisors"][2]["m"] = 1  # doubled component un-doubled
    with pytest.raises(PresentationInconsistent):
        presentation_from_dict(data)


# ---------------------------------------------------------------------------
# matrix assembly


def test_assemble_shapes_and_commutation():
    r, n, m0, sigma = assemble(_i2_i0star())
    assert (r.rows, r.cols) == (7, 2)
    assert (n.rows, n.cols) == (6, 7)
    assert (m0.rows, m0.cols) == (6, 1)
    assert (sigma.rows, sigma.cols) == (1, 2)
    assert n @ r == m0 @ sigma
    # R is block diagonal with the m * r weights of each branch
    assert r.to_rows() == [
        [1, 0], [1, 0],
        [0, 1], [0, 1], [0, 2], [0, 1], [0, 1],
    ]
    assert m0.to_rows() == [[1], [1], [2], [2], [1], [1]]


def test_builtin_presentations_are_built_once():
    # each call returns its own dict, so no caller can change what the
    # next one sees, holding the same frozen presentations
    first, second = load_presentations(), load_presentations()
    assert first is not second
    assert first == second
    assert all(first[pair] is second[pair] for pair in first)
    first.clear()
    assert load_presentations() == second


# ---------------------------------------------------------------------------
# the local group


def test_builtin_collision_group_and_witness():
    pres = _i2_i0star()
    assert local_sha_with_witnesses(pres)[0] == DivisibleGroup.cyclic(2)
    group, witnesses = local_sha_with_witnesses(pres)
    assert group == DivisibleGroup.cyclic(2)
    assert len(witnesses) == 1
    chart = cokernel_chart(assemble(pres)[0])
    zero = (Fraction(0),) * 7
    assert chart.same_class(witnesses[0], REFERENCE_WITNESS)
    assert not chart.same_class(witnesses[0], zero)
    # the witness is 2-torsion: doubling lands in the trivial class
    doubled = tuple(2 * x for x in witnesses[0])
    assert chart.same_class(doubled, zero)


def test_group_invariant_under_branch_and_divisor_order():
    pres = _i2_i0star()
    swapped_branches = CollisionPresentation(
        pres.central_multiplicities, tuple(reversed(pres.branches))
    )
    assert local_sha_with_witnesses(swapped_branches)[0] == DivisibleGroup.cyclic(2)
    b0, b1 = pres.branches
    permuted = CollisionPresentation(
        pres.central_multiplicities,
        (
            BranchPresentation(b0.fibre_type, tuple(reversed(b0.divisors))),
            BranchPresentation(b1.fibre_type, tuple(reversed(b1.divisors))),
        ),
    )
    assert local_sha_with_witnesses(permuted)[0] == DivisibleGroup.cyclic(2)


def test_single_branch_presentation():
    # one I2 branch alone: R = (1, 1)^T column-stacked, kernel of the
    # induced map on a single-branch square
    pres = CollisionPresentation(
        (1, 1),
        (BranchPresentation(
            KodairaType.parse("I2"), (DivisorRecord(1, 1, (1, 0)), DivisorRecord(1, 1, (0, 1)))
        ),),
    )
    group = local_sha_with_witnesses(pres)[0]
    assert group == DivisibleGroup(0)


# ---------------------------------------------------------------------------
# JSON interchange and the registry


def _builtin_as_dict() -> dict:
    pres = _i2_i0star()
    return {
        "pair": ["I2", "I0*"],
        "central_multiplicities": list(pres.central_multiplicities),
        "branches": [
            {
                "fibre_type": str(br.fibre_type),
                "divisors": [
                    {"m": dv.m, "r": dv.r, "incidence": list(dv.incidence)}
                    for dv in br.divisors
                ],
            }
            for br in pres.branches
        ],
    }


def test_presentation_from_dict_round_trip():
    pair, pres = presentation_from_dict(_builtin_as_dict())
    assert tuple(map(str, pair)) == ("I2", "I0*")
    assert pres == _i2_i0star()


def test_presentation_from_dict_rejects_malformed_data():
    with pytest.raises(PresentationInconsistent):
        presentation_from_dict({})
    data = _builtin_as_dict()
    data["pair"] = ["I2"]
    with pytest.raises(PresentationInconsistent):
        presentation_from_dict(data)
    data = _builtin_as_dict()
    data["pair"] = ["I2", "I1*"]  # does not match the branch types
    with pytest.raises(PresentationInconsistent):
        presentation_from_dict(data)
    data = _builtin_as_dict()
    del data["branches"][0]["divisors"][0]["incidence"]
    with pytest.raises(PresentationInconsistent):
        presentation_from_dict(data)
    data = _builtin_as_dict()
    data["pair"][0] = data["branches"][0]["fibre_type"] = "XYZ"  # not a Kodaira type
    with pytest.raises(PresentationInconsistent, match="cannot parse fibre type 'XYZ'"):
        presentation_from_dict(data)
    data = _builtin_as_dict()
    data["pair"][1] = 2  # numbers are not coerced to type names
    with pytest.raises(PresentationInconsistent, match="pair entry must be a string, not int"):
        presentation_from_dict(data)
    data = _builtin_as_dict()
    data["branches"][0]["fibre_type"] = None
    with pytest.raises(PresentationInconsistent, match="fibre_type must be a string, not NoneType"):
        presentation_from_dict(data)
    data = _builtin_as_dict()
    data["branches"][0]["fibre_type"] = "I1"  # each branch is of a type of the pair
    data["branches"] = data["branches"][:1]
    with pytest.raises(PresentationInconsistent, match="does not match branch types"):
        presentation_from_dict(data)
    data = _builtin_as_dict()
    data["pair"] = ["I0*", "I2"]
    data["branches"][0] = data["branches"][1]  # two branches of one pair entry
    with pytest.raises(PresentationInconsistent, match="does not match branch types"):
        presentation_from_dict(data)
    data = _builtin_as_dict()
    data["pair"][1] = "XYZ"
    data["branches"] = data["branches"][:1]
    with pytest.raises(PresentationInconsistent, match="cannot parse fibre type 'XYZ'"):
        presentation_from_dict(data)


def test_load_presentation_file(tmp_path):
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(_builtin_as_dict()), encoding="utf-8")
    pair, pres = load_presentation_file(path)
    assert tuple(map(str, pair)) == ("I2", "I0*")
    assert local_sha_with_witnesses(pres)[0] == DivisibleGroup.cyclic(2)
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]", encoding="utf-8")
    with pytest.raises(PresentationInconsistent):
        load_presentation_file(bad)


def test_store_lookup_is_order_insensitive(tmp_path):
    store = load_presentations()
    found = store.get(I2_I0STAR)
    assert found is not None and found == _i2_i0star()
    assert store.get(frozenset(map(KodairaType.parse, ("I0*", "I2")))) is found
    assert store.get(frozenset(map(KodairaType.parse, ("I1", "I1")))) is None
    # a *.json file in the directory replaces the shipped entry of its
    # pair, here written in the other order; other files are not read
    data = _builtin_as_dict()
    data["pair"] = ["I0*", "I2"]
    data["branches"][1]["divisors"].reverse()
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not a presentation", encoding="utf-8")
    loaded = load_presentations(tmp_path)
    assert list(loaded) == [I2_I0STAR]
    assert loaded[I2_I0STAR] == load_presentation_file(path)[1] != found
    assert load_presentations()[I2_I0STAR] is found


def test_type_names_are_read_in_canonical_form(tmp_path):
    # 'I02' is I2: a file so spelled replaces the shipped I2 + I0* entry
    data = _builtin_as_dict()
    data["pair"][0] = data["branches"][0]["fibre_type"] = "I02"
    data["branches"] = data["branches"][:1]
    pair, pres = presentation_from_dict(data)
    assert tuple(map(str, pair)) == ("I2", "I0*")
    assert [str(br.fibre_type) for br in pres.branches] == ["I2"]
    (tmp_path / "i02.json").write_text(json.dumps(data), encoding="utf-8")
    assert load_presentations(tmp_path) == {I2_I0STAR: pres}


def test_shipped_presentation_file_matches_builtin():
    pair, pres = load_presentation_file(SHIPPED_FILE)
    assert set(map(str, pair)) == {"I2", "I0*"}
    assert pres == _i2_i0star()


# ---------------------------------------------------------------------------
# Miranda's construction


def _census_pairs():
    # I_M1 + I_M2 for M1, M2 <= 12, and I_2k + I*_M for k <= 6, M <= 6
    for m1 in range(1, 13):
        for m2 in range(1, 13):
            yield KodairaType("I", m1), KodairaType("I", m2)
    for k in range(1, 7):
        for m in range(7):
            yield KodairaType("I", 2 * k), KodairaType("I*", m)


def test_miranda_presentation_census():
    # the paper's local-Sha table, computed: each built presentation gives
    # the group Miranda's list records, each witness w of an invariant
    # factor d has d*w and not w in the class of 0, and each branch's
    # divisors account for its type's components: the r sum to the
    # component count, and the m, each taken r times, are the type's
    # multiplicities
    pairs, witnessed = list(_census_pairs()), 0
    assert len(pairs) == 186
    for left, right in pairs:
        pres = miranda_presentation(left, right)
        assert pres is not None and miranda_presentation(right, left) == pres
        group, witnesses = local_sha_with_witnesses(pres)
        assert group == miranda_entry(left, right)[0], (left, right)
        chart = cokernel_chart(assemble(pres)[0])
        for d, w in zip(group.invariant_factors, witnesses, strict=True):
            zero = (0,) * len(w)
            assert chart.same_class(tuple(d * x for x in w), zero)
            assert not chart.same_class(w, zero)
            witnessed += 1
        for br in pres.branches:
            assert sum(dv.r for dv in br.divisors) == component_count(br.fibre_type)
            swept = sorted(dv.m for dv in br.divisors for _ in range(dv.r))
            assert swept == sorted(multiplicities(br.fibre_type))
    assert witnessed == 42


def test_miranda_presentation_builds_the_shipped_file():
    i2, i0star = KodairaType.parse("I2"), KodairaType.parse("I0*")
    pres = load_presentation_file(SHIPPED_FILE)[1]
    assert miranda_presentation(i2, i0star) == miranda_presentation(i0star, i2) == pres


def _sizes(pres):
    return len(pres.central_multiplicities), sum(len(br.divisors) for br in pres.branches)


def test_miranda_presentation_size_edges():
    # MAX_PRESENTATION_SIZE central components or divisors build, one
    # more gives None; the size is checked before anything is built, so
    # an index of 4001 digits costs nothing
    assert MAX_PRESENTATION_SIZE == 64
    i, istar = (lambda n: KodairaType("I", n)), (lambda n: KodairaType("I*", n))
    for a in (1, 32):
        assert _sizes(miranda_presentation(i(a), i(64 - a))) == (64, 64)
    assert miranda_presentation(i(32), i(33)) is None
    assert _sizes(miranda_presentation(i(58), istar(29))) == (63, 64)
    assert miranda_presentation(i(60), istar(29)) is None
    huge = KodairaType.parse("I1" + "0" * 4000)
    assert miranda_presentation(huge, i(3)) is None
    assert miranda_presentation(istar(3), huge) is None


def test_miranda_presentation_off_the_built_families():
    # odd M1 against I*, the fixed pairs and pairs off Miranda's list are
    # not built; whatever is built is on the list
    for pair in (("II", "IV"), ("I3", "I1*"), ("I0", "I3"), ("III", "I0*"), ("I0*", "I0*")):
        assert miranda_presentation(*map(KodairaType.parse, pair)) is None
    types = types_with_index_up_to(4, include_smooth=True)
    for left in types:
        for right in types:
            if miranda_presentation(left, right) is not None:
                assert miranda_entry(left, right) is not None


# ---------------------------------------------------------------------------
# seeded presentations, pinned


def _random_branch(rng, fibre_type: KodairaType, central: tuple[int, ...]) -> BranchPresentation:
    # divisors that sweep out central: each takes a random share of what
    # is left, and the last takes the rest with m = r = 1
    left, divisors = list(central), []
    while any(left):
        m, r = rng.randint(1, 2), rng.randint(1, 2)
        incidence = tuple(rng.randint(0, x // (m * r)) for x in left)
        if not any(incidence) or rng.random() < 0.1:
            m, r, incidence = 1, 1, tuple(left)
        left = [x - m * r * y for x, y in zip(left, incidence)]
        divisors.append(DivisorRecord(m, r, incidence))
    return BranchPresentation(fibre_type, tuple(divisors))


def _random_presentations(count: int = 200):
    # half with one branch, half with two; at most 10 central components,
    # every m, r and incidence entry at most 9
    rng = random.Random(20261020)
    for i in range(count):
        central = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 10)))
        types = tuple(map(KodairaType.parse, ("I2",) if i % 2 else ("I2", "I0*")))
        yield CollisionPresentation(
            central, tuple(_random_branch(rng, t, central) for t in types)
        )


# SHA-256 of the group and witnesses of each of _random_presentations(),
# taken before witnesses were built from one integer product: 71 of the
# 200 have witnesses, 78 in all
_SEEDED_SHA_SHA256 = "99080a94de552fbef3517837aea165f03ed1816f7dc123223c6d412c14d8f337"


def test_seeded_presentations_golden_fingerprint():
    digest, witnessed = hashlib.sha256(), 0
    for pres in _random_presentations():
        group, witnesses = local_sha_with_witnesses(pres)
        witnessed += len(witnesses)
        line = "; ".join([str(group)] + [" ".join(map(str, w)) for w in witnesses])
        digest.update(f"{line}\n".encode())
    assert witnessed == 78
    assert digest.hexdigest() == _SEEDED_SHA_SHA256

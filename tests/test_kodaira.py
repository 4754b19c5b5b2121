"""Tests for fibre component lattices, discriminant groups and the
punctured transverse Tate-Shafarevich table.

The closed-form discriminant groups are checked against a hard-coded
expected table, against the Smith form of the reduced pairing for every
type of index up to 50, and against an independent invariant: the order
of the group must equal |det| of the reduced pairing.
"""

import math

import pytest

from ellfib.errors import LatticeTooLarge
from ellfib.exact_linalg import DivisibleGroup, IntMatrix, smith_normal_form
from ellfib.kodaira import (
    MAX_LATTICE_COMPONENTS,
    component_count,
    discriminant_group,
    euler_number,
    lattice_data,
    multiplicities,
    reduced_pairing,
    sha_punctured_transverse,
)
from ellfib.weierstrass import KodairaType

from support import det_laplace, types_with_index_up_to, zeros


def _expected_discriminant_table(i_max=12, istar_max=6):
    expected = {}
    expected[KodairaType("I", 0)] = DivisibleGroup(0)
    for n in range(1, i_max + 1):
        expected[KodairaType("I", n)] = DivisibleGroup.cyclic(n)
    for n in range(0, istar_max + 1):
        expected[KodairaType("I*", n)] = (
            DivisibleGroup(0, (2, 2)) if n % 2 == 0 else DivisibleGroup.cyclic(4)
        )
    for kind in ("IV", "IV*"):
        expected[KodairaType(kind)] = DivisibleGroup.cyclic(3)
    for kind in ("III", "III*"):
        expected[KodairaType(kind)] = DivisibleGroup.cyclic(2)
    for kind in ("II", "II*"):
        expected[KodairaType(kind)] = DivisibleGroup(0)
    return expected


ALL_TYPES = types_with_index_up_to(12, include_smooth=True)


def test_component_counts():
    expected = {
        "I0": 1, "I1": 1, "I2": 2, "I7": 7,
        "I0*": 5, "I3*": 8,
        "II": 1, "III": 2, "IV": 3, "IV*": 7, "III*": 8, "II*": 9,
    }
    for text, count in expected.items():
        assert component_count(KodairaType.parse(text)) == count


def test_euler_numbers():
    expected = {
        "I0": 0, "I1": 1, "I5": 5,
        "I0*": 6, "I4*": 10,
        "II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10,
    }
    for text, e in expected.items():
        assert euler_number(KodairaType.parse(text)) == e


def test_euler_component_relation():
    # additive fibres: e = components + 1; multiplicative: e = components
    for ft in ALL_TYPES:
        e, c = euler_number(ft), component_count(ft)
        if ft.is_smooth:
            assert e == 0
        elif ft.is_multiplicative:
            assert e == c
        else:
            assert e == c + 1


def test_lattice_structure():
    for ft in ALL_TYPES:
        lat = lattice_data(ft)
        assert lat.component_count == component_count(ft)
        assert len(lat.multiplicities) == lat.component_count
        assert all(m >= 1 for m in lat.multiplicities)
        # symmetry and gram * m = 0 are checked up to index 50 below;
        # check the diagonal convention here
        reducible = lat.component_count > 1
        for i in range(lat.component_count):
            assert lat.gram.at(i, i) == (-2 if reducible else 0)
        if reducible:
            # connectedness: off-diagonal intersection numbers reach
            # every component
            for i in range(lat.component_count):
                assert any(
                    lat.gram.at(i, j) > 0
                    for j in range(lat.component_count)
                    if j != i
                )


def test_lattice_multiplicity_conventions():
    assert lattice_data(KodairaType.parse("I6")).multiplicities == (1,) * 6
    assert lattice_data(KodairaType.parse("I2*")).multiplicities == (1, 1, 1, 1, 2, 2, 2)
    assert lattice_data(KodairaType.parse("IV*")).multiplicities == (1, 2, 3, 2, 1, 2, 1)
    assert lattice_data(KodairaType.parse("III*")).multiplicities == (1, 2, 3, 4, 3, 2, 1, 2)
    assert lattice_data(KodairaType.parse("II*")).multiplicities == (1, 2, 3, 4, 5, 6, 4, 2, 3)
    # I2 and III: two components meeting twice
    for text in ("I2", "III"):
        assert lattice_data(KodairaType.parse(text)).gram.to_rows() == [[-2, 2], [2, -2]]


def test_discriminant_groups_match_expected_table():
    expected = _expected_discriminant_table()
    for ft, group in expected.items():
        assert discriminant_group(ft) == group, f"discriminant group of {ft}"


def test_discriminant_group_order_equals_reduced_pairing_det():
    for ft in ALL_TYPES:
        pairing = reduced_pairing(ft)
        assert pairing.rows == pairing.cols == component_count(ft) - 1
        det = det_laplace(pairing.to_rows())
        assert abs(det) == math.prod(discriminant_group(ft).invariant_factors)


ORACLE_TYPES = types_with_index_up_to(50, include_smooth=True)


def test_discriminant_group_closed_form_matches_smith_oracle():
    for ft in ORACLE_TYPES:
        oracle = DivisibleGroup(0, smith_normal_form(reduced_pairing(ft)).invariant_factors())
        assert discriminant_group(ft) == oracle, f"discriminant group of {ft}"


def test_component_data_closed_form_matches_lattice_data():
    # the Gram matrix is square of side component_count and symmetric,
    # and the full fibre, weighted by multiplicities, meets every
    # component with intersection number 0
    for ft in ORACLE_TYPES:
        c, gram = component_count(ft), lattice_data(ft).gram
        assert gram.rows == gram.cols == c, str(ft)
        assert gram == gram.transpose(), str(ft)
        assert gram @ IntMatrix.column(multiplicities(ft)) == zeros(c, 1), str(ft)


def test_closed_forms_on_huge_index():
    ft = KodairaType("I", 10**8)
    assert component_count(ft) == 10**8
    assert discriminant_group(ft) == DivisibleGroup.cyclic(10**8)
    assert component_count(KodairaType("I*", 10**8 + 1)) == 10**8 + 6
    assert discriminant_group(KodairaType("I*", 10**8 + 1)) == DivisibleGroup.cyclic(4)
    assert discriminant_group(KodairaType("I*", 10**8)) == DivisibleGroup(0, (2, 2))


def test_lattice_data_component_limit():
    at_limit = KodairaType("I", MAX_LATTICE_COMPONENTS)
    assert lattice_data(at_limit).component_count == MAX_LATTICE_COMPONENTS
    for ft in (
        KodairaType("I", MAX_LATTICE_COMPONENTS + 1),
        KodairaType("I*", MAX_LATTICE_COMPONENTS - 4),
        KodairaType("I", 10**8),
    ):
        with pytest.raises(LatticeTooLarge, match=str(MAX_LATTICE_COMPONENTS)):
            lattice_data(ft)
        with pytest.raises(LatticeTooLarge):
            reduced_pairing(ft)


def test_sha_punctured_transverse_table():
    assert sha_punctured_transverse(KodairaType("I", 0)) == DivisibleGroup(2)
    assert sha_punctured_transverse(KodairaType("I", 1)) == DivisibleGroup(1)
    for m in range(2, 13):
        assert sha_punctured_transverse(KodairaType("I", m)) == DivisibleGroup(1, (m,))
    expected = _expected_discriminant_table(istar_max=12)
    for ft in ALL_TYPES:
        if ft.kind != "I":
            assert sha_punctured_transverse(ft) == expected[ft]


"""Acceptance suite: one test per advertised guarantee of the library.

Each test checks the implementation against data stated independently in
this file (tables, reference presentations, brute-force oracles), so a
pass means the advertised behaviour holds, not merely that the code
agrees with itself.  A terminal-summary hook in conftest.py prints one
PASS/FAIL line per criterion.
"""

import io
import itertools
import json
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from ellfib import poly
from ellfib.cli import main as cli_main
from ellfib.collisions import (
    BranchGerm,
    CollisionPoint,
    blow_up,
    miranda_entry,
    miranda_reduce,
)
from ellfib.errors import ProfileInconsistent
from ellfib.exact_linalg import DivisibleGroup, IntMatrix, qz_kernel
from ellfib.kodaira import discriminant_group, sha_punctured_transverse
from ellfib.parser import parse_description
from ellfib.presentations import (
    BranchPresentation,
    CollisionPresentation,
    DivisorRecord,
    assemble,
    load_presentations,
    local_sha_with_witnesses,
)
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
    I2_I0STAR,
    axis_valuation,
    bruteforce_n_torsion,
    cokernel_chart,
    discriminant,
    group_n_torsion,
    random_consistent_profile,
    summed_profile_is_consistent,
)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def _expected_discriminant_group(ft: KodairaType) -> DivisibleGroup:
    """The discriminant-group table, stated as data."""
    if ft.kind == "I":
        return DivisibleGroup.cyclic(ft.index)
    if ft.kind == "I*":
        if ft.index % 2 == 1:
            return DivisibleGroup.cyclic(4)
        return DivisibleGroup(0, (2, 2))
    return {
        "II": DivisibleGroup(0),
        "II*": DivisibleGroup(0),
        "III": DivisibleGroup.cyclic(2),
        "III*": DivisibleGroup.cyclic(2),
        "IV": DivisibleGroup.cyclic(3),
        "IV*": DivisibleGroup.cyclic(3),
    }[ft.kind]


def test_criterion_01_discriminant_group_table():
    checked = 0
    for n in range(1, 13):
        assert discriminant_group(KodairaType("I", n)) == DivisibleGroup.cyclic(n)
        checked += 1
    for n in (1, 3, 5):
        assert discriminant_group(KodairaType("I*", n)) == DivisibleGroup.cyclic(4)
        checked += 1
    for n in (0, 2, 4):
        assert discriminant_group(KodairaType("I*", n)) == DivisibleGroup(0, (2, 2))
        checked += 1
    for kind in ("IV", "IV*"):
        assert discriminant_group(KodairaType(kind)) == DivisibleGroup.cyclic(3)
        checked += 1
    for kind in ("III", "III*"):
        assert discriminant_group(KodairaType(kind)) == DivisibleGroup.cyclic(2)
        checked += 1
    for kind in ("II", "II*"):
        assert discriminant_group(KodairaType(kind)) == DivisibleGroup(0)
        checked += 1
    assert checked == 24


def test_criterion_02_local_sha_of_reference_collision():
    # The reference resolved collision, stated from scratch: six central
    # components of multiplicities (1,1,2,2,1,1); the I2 branch sweeps
    # two divisors, the I0* branch five (one doubled); column maps
    # (a, a, b, b, 2b, b, b) and (1, 1, 2, 2, 1, 1).
    pres = CollisionPresentation(
        central_multiplicities=(1, 1, 2, 2, 1, 1),
        branches=(
            BranchPresentation(
                KodairaType.parse("I2"),
                (
                    DivisorRecord(1, 1, (1, 1, 2, 0, 0, 0)),
                    DivisorRecord(1, 1, (0, 0, 0, 2, 1, 1)),
                ),
            ),
            BranchPresentation(
                KodairaType.parse("I0*"),
                (
                    DivisorRecord(1, 1, (1, 0, 0, 0, 0, 0)),
                    DivisorRecord(1, 1, (0, 1, 0, 0, 0, 0)),
                    DivisorRecord(2, 1, (0, 0, 1, 1, 0, 0)),
                    DivisorRecord(1, 1, (0, 0, 0, 0, 1, 0)),
                    DivisorRecord(1, 1, (0, 0, 0, 0, 0, 1)),
                ),
            ),
        ),
    )
    r, n, m0, sigma = assemble(pres)
    assert r.to_rows() == [
        [1, 0], [1, 0], [0, 1], [0, 1], [0, 2], [0, 1], [0, 1],
    ]
    assert n.to_rows() == [
        [1, 0, 1, 0, 0, 0, 0],
        [1, 0, 0, 1, 0, 0, 0],
        [2, 0, 0, 0, 1, 0, 0],
        [0, 2, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0, 1, 0],
        [0, 1, 0, 0, 0, 0, 1],
    ]
    assert m0.to_rows() == [[1], [1], [2], [2], [1], [1]]
    assert sigma.to_rows() == [[1, 1]]

    group, witnesses = local_sha_with_witnesses(pres)
    assert group == DivisibleGroup.cyclic(2)
    assert local_sha_with_witnesses(pres)[0] == DivisibleGroup.cyclic(2)
    (w,) = witnesses
    half = Fraction(1, 2)
    reference = (half, 0, half, half, 0, 0, 0)
    chart = cokernel_chart(assemble(pres)[0])
    assert chart.same_class(w, reference)
    assert not chart.same_class(w, (0,) * 7)
    # The shipped registry entry is exactly this presentation.
    assert load_presentations()[I2_I0STAR] == pres


def test_criterion_03_multiple_fibre_verdict_census():
    universe = (
        [KodairaType("I", n) for n in range(1, 7)]
        + [KodairaType("I*", n) for n in range(0, 7)]
        + [KodairaType(k) for k in ("II", "III", "IV", "IV*", "III*", "II*")]
    )
    obstinate = locally_trivial = silent = disallowed = 0
    for lt, rt in itertools.combinations_with_replacement(universe, 2):
        if miranda_entry(lt, rt) is None:
            assert miranda_entry(rt, lt) is None, (str(rt), str(lt))
            disallowed += 1
            continue
        names = {str(lt), str(rt)}
        has_even_i = any(
            t.kind == "I" and t.index % 2 == 0 for t in (lt, rt)
        ) and any(t.kind == "I*" for t in (lt, rt))
        if has_even_i or names == {"III", "I0*"}:
            expected = "PossiblyObstinate"
            obstinate += 1
        elif names == {"IV", "I0*"}:
            expected = "PossiblyLocallyTrivial"
            locally_trivial += 1
        else:
            expected = "NoIsolatedMultipleFibre"
            silent += 1
        for a, b in ((lt, rt), (rt, lt)):
            _, kind, obstruction = miranda_entry(a, b)
            assert kind == expected, (str(a), str(b))
            if expected == "PossiblyObstinate":
                assert obstruction == DivisibleGroup.cyclic(2)
            else:
                assert obstruction is None
    # census: 21 I_even+I* pairs plus III+I0*; IV+I0* alone; the rest of
    # the allowed pairs are quiet; everything else is out of scope
    assert (obstinate, locally_trivial) == (22, 1)
    assert silent > 0 and disallowed > 0
    assert obstinate + locally_trivial + silent + disallowed == 190


def test_criterion_04_multiplicative_blowup_addition():
    cases = 0
    for m1 in range(1, 9):
        for m2 in range(1, 9):
            point = CollisionPoint(
                BranchGerm("L", ValuationProfile(0, 0, m1)),
                BranchGerm("R", ValuationProfile(0, 0, m2)),
            )
            minimal, twists = blow_up(point)
            assert str(classify(minimal)) == f"I{m1 + m2}"
            assert twists == 0
            cases += 1
    assert cases == 64


def test_criterion_05_sha_punctured_table():
    assert sha_punctured_transverse(KodairaType("I", 0)) == DivisibleGroup(2, ())
    for m in range(1, 13):
        expected = DivisibleGroup(1, (m,) if m > 1 else ())
        assert sha_punctured_transverse(KodairaType("I", m)) == expected
    additive = [KodairaType("I*", n) for n in range(0, 6)] + [
        KodairaType(k) for k in ("II", "III", "IV", "IV*", "III*", "II*")
    ]
    for ft in additive:
        assert sha_punctured_transverse(ft) == _expected_discriminant_group(ft)


def test_criterion_06_twist_invariance():
    rng = random.Random(20260819)
    for _ in range(200):
        p = random_consistent_profile(rng)
        k = rng.randint(1, 5)
        twisted = ValuationProfile(
            p.va + 4 * k, p.vb + 6 * k, p.vdelta + 12 * k
        )
        base_type = classify(minimalize(p)[0])
        assert classify(minimalize(twisted)[0]) == base_type


def test_criterion_07_torsion_kernel_oracle():
    rng = random.Random(8311)
    samples = 0
    while samples < 500:
        rows = rng.randrange(4)
        cols = rng.randrange(4)
        m = IntMatrix(
            rows, cols, tuple(rng.randint(-4, 4) for _ in range(rows * cols))
        )
        group = qz_kernel(m)
        for n in (2, 3, 4, 6, 12):
            assert group_n_torsion(group, n) == bruteforce_n_torsion(m, n)
        samples += 1
    assert samples == 500


def test_criterion_08_reduction_termination():
    universe = (
        [KodairaType("I", n) for n in range(1, 5)]
        + [KodairaType("I*", n) for n in range(0, 5)]
        + [KodairaType(k) for k in ("II", "III", "IV", "IV*", "III*", "II*")]
    )

    def canonical(ft):
        if ft.kind == "I":
            return ValuationProfile(0, 0, ft.index)
        if ft.kind == "I*":
            return ValuationProfile(2, 3, 6 + ft.index)
        return ValuationProfile(*{
            "II": (1, 1, 2), "III": (1, 2, 3), "IV": (2, 2, 4),
            "IV*": (3, 4, 8), "III*": (3, 5, 9), "II*": (4, 5, 10),
        }[ft.kind])

    terminated = inconsistent = 0
    for lt, rt in itertools.combinations_with_replacement(universe, 2):
        p, q = canonical(lt), canonical(rt)
        point = CollisionPoint(BranchGerm("L", p), BranchGerm("R", q))
        if summed_profile_is_consistent(p, q):
            tree = miranda_reduce([point])[0]
            assert tree.height() <= 5
            for leaf in tree.leaves():
                assert leaf.status in ("allowed", "dissolved")
                if leaf.status == "allowed":
                    assert miranda_entry(*leaf.type_pair()) is not None
            terminated += 1
        else:
            with pytest.raises(ProfileInconsistent):
                miranda_reduce([point])
            inconsistent += 1
    assert (terminated, inconsistent) == (64, 56)


def test_criterion_09_polynomial_front_end():
    rng = random.Random(424242)
    nonzero = [c for c in range(-3, 4) if c != 0]
    for _ in range(100):
        while True:
            p1, p2, q1, q2 = (rng.randrange(5) for _ in range(4))
            if 3 * p1 != 2 * q1 and 3 * p2 != 2 * q2:
                break
        model = WeierstrassPolyModel(
            poly.monomial(rng.choice(nonzero), p1, p2),
            poly.monomial(rng.choice(nonzero), q1, q2),
        )
        delta = discriminant(model.a, model.b)
        for axis, pa, pb in (("s", p1, q1), ("t", p2, q2)):
            expected_vdelta = min(3 * pa, 2 * pb)
            assert axis_valuation(delta, axis) == expected_vdelta
            profile = axis_profile(model, axis)
            assert profile.as_tuple() == (pa, pb, expected_vdelta)
            assert j_valuation(profile) == 3 * pa - expected_vdelta
            assert j_valuation(minimalize(profile)[0]) == 3 * pa - expected_vdelta


def _report_json(path: pathlib.Path) -> str:
    out = io.StringIO()
    rc = cli_main(["report", str(path), "--format", "json"], out=out)
    assert rc == 0, path.name
    return out.getvalue()


def test_criterion_10_report_determinism():
    files = sorted(CORPUS.glob("*.fib"))
    assert len(files) >= 5
    modes = set()
    by_mode: dict[str, pathlib.Path] = {}
    for path in files:
        d = parse_description(path.read_text(encoding="utf-8"))
        modes.add(d.mode)
        by_mode.setdefault(d.mode, path)
        first = _report_json(path)
        second = _report_json(path)
        assert first == second, path.name
        json.loads(first)  # the deterministic output is valid JSON
    assert modes == {"branches", "weierstrass"}

    # byte-identity must survive process boundaries (fresh hash seeds)
    for path in by_mode.values():
        runs = [
            subprocess.run(
                [sys.executable, "-m", "ellfib.cli",
                 "report", str(path), "--format", "json"],
                capture_output=True,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1], path.name
        assert runs[0].decode("utf-8") == _report_json(path), path.name

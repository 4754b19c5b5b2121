"""Tests for the whole-fibration analysis pipeline and its renderers."""

import json
import pathlib

from ellfib import kodaira, weierstrass
from ellfib.parser import parse_description
from ellfib.report import (
    ALL_IRREDUCIBLE_NOTE,
    PUNCTURED_HYPOTHESIS,
    analyze,
    render_json,
    render_text,
)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def _analyze_file(name: str):
    text = (CORPUS / name).read_text(encoding="utf-8")
    return analyze(parse_description(text), base_dir=str(CORPUS))


# ---------------------------------------------------------------------------
# branch-level reporting


def test_branch_reports_for_transverse_collision():
    rep = _analyze_file("i2_i0star.fib")
    assert not rep.has_errors
    by_name = {b.name: b for b in rep.branches}
    n2, d0 = by_name["N2"], by_name["D0"]
    assert n2.fibre_type == "I2"
    assert n2.minimal_profile == (0, 0, 2)
    assert n2.twist_count == 0
    assert n2.j_valuation == -2
    assert n2.component_count == 2
    assert n2.discriminant_group == "Z/2"
    assert n2.sha_punctured == "(Q/Z)^1 + Z/2"
    assert d0.fibre_type == "I0*"
    assert d0.multiplicities == (1, 1, 1, 1, 2)
    assert d0.discriminant_group == "Z/2 + Z/2"
    assert d0.sha_punctured == "Z/2 + Z/2"
    assert d0.j_valuation == 0


EVERY_KIND = (
    "[branch S] va=0 vb=0 vdelta=0\n"
    "[branch N5] va=0 vb=0 vdelta=5\n"
    "[branch D1] va=2 vb=3 vdelta=7\n"
    "[branch C] va=1 vb=1 vdelta=2\n"
    "[branch T] va=1 vb=2 vdelta=3\n"
    "[branch F] va=2 vb=2 vdelta=4\n"
    "[branch Fs] va=3 vb=4 vdelta=8\n"
    "[branch Ts] va=3 vb=5 vdelta=9\n"
    "[branch Cs] va=4 vb=5 vdelta=10\n"
    "[collision] N5 D1\n"
)


def test_branch_reports_need_no_lattice_or_smith_form(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("branch reports must not build lattices or Smith forms")

    monkeypatch.setattr(kodaira, "smith_normal_form", forbidden)
    monkeypatch.setattr(kodaira, "lattice_data", forbidden)
    for rep in (
        _analyze_file("i2_i0star.fib"),
        _analyze_file("mixed_reduction.fib"),
        analyze(parse_description(EVERY_KIND)),
    ):
        assert not rep.has_errors
        render_text(rep)
        render_json(rep)
    by_name = {b.name: b for b in rep.branches}
    assert [b.fibre_type for b in rep.branches] == [
        "I0", "I5", "I1*", "II", "III", "IV", "IV*", "III*", "II*"
    ]
    assert by_name["D1"].discriminant_group == "Z/4"
    assert by_name["D1"].multiplicities == (1, 1, 1, 1, 2, 2)
    assert by_name["Cs"].discriminant_group == "0"
    assert by_name["Cs"].component_count == 9


def test_branch_of_large_index():
    rep = analyze(parse_description("[branch A] va=0 vb=0 vdelta=3000\n"))
    assert not rep.has_errors
    (b,) = rep.branches
    assert b.fibre_type == "I3000"
    assert b.component_count == 3000
    assert b.multiplicities == (1,) * 3000
    assert b.discriminant_group == "Z/3000"
    assert b.sha_punctured == "(Q/Z)^1 + Z/3000"


def test_leaf_report_uses_registry_presentation():
    rep = _analyze_file("i2_i0star.fib")
    (crep,) = rep.collisions
    assert not crep.failed
    assert crep.tree.height() == 0
    (leaf,) = crep.leaves
    assert leaf.path == "root"
    assert (leaf.left_name, leaf.right_name) == ("N2", "D0")
    assert (leaf.left_type, leaf.right_type) == ("I2", "I0*")
    assert leaf.verdict == "PossiblyObstinate"
    assert leaf.obstruction == "Z/2"
    assert leaf.registry_sha == "Z/2"
    assert leaf.computed_sha == "Z/2"
    assert leaf.agreement is True
    assert leaf.divisible_part_flag is False
    assert leaf.presentation_source == "registry"
    assert leaf.witnesses  # a generator of Z/2 is emitted
    (w,) = leaf.witnesses
    assert len(w) == 7 and w.count("1/2") == 3


def test_weierstrass_mode_axis_branches():
    rep = _analyze_file("cuspidal_axis.fib")
    assert not rep.has_errors
    assert [b.name for b in rep.branches] == ["s-axis", "t-axis"]
    assert [b.fibre_type for b in rep.branches] == ["II", "I0"]
    assert rep.summary.all_irreducible is True
    assert rep.summary.note == ALL_IRREDUCIBLE_NOTE


def test_rational_model_with_cancelling_discriminant():
    rep = _analyze_file("rational_cancel.fib")
    assert not rep.has_errors
    assert [(b.name, b.fibre_type, b.input_profile) for b in rep.branches] == [
        ("s-axis", "I1*", (2, 3, 7)),
        ("t-axis", "I0", (0, 0, 0)),
    ]


def test_polynomial_report_builds_one_discriminant(monkeypatch):
    built = []
    real = weierstrass.discriminant

    def counting(model):
        built.append(model)
        return real(model)

    monkeypatch.setattr(weierstrass, "discriminant", counting)
    rep = _analyze_file("axes_collision.fib")
    render_json(rep)
    render_text(rep)
    assert len(built) == 1


def test_weierstrass_axes_collision_dissolves():
    rep = _analyze_file("axes_collision.fib")
    assert not rep.has_errors
    assert [b.fibre_type for b in rep.branches] == ["I0*", "I0*"]
    (crep,) = rep.collisions
    assert crep.tree.root.status == "blown-up"
    assert str(crep.tree.root.exceptional.fibre_type) == "I0"
    assert all(n.status == "dissolved" for n in crep.tree.leaves())
    assert crep.leaves == []  # nothing left to measure


def test_mixed_reduction_corpus():
    rep = _analyze_file("mixed_reduction.fib")
    assert not rep.has_errors
    by_name = {b.name: b for b in rep.branches}
    assert by_name["W"].twist_count == 1
    assert by_name["W"].fibre_type == "I0*"
    assert by_name["D2"].fibre_type == "I2*"
    coll = {(c.left, c.right): c for c in rep.collisions}

    n2d2 = coll[("N2", "D2")]
    (leaf,) = n2d2.leaves
    assert leaf.verdict == "PossiblyObstinate"
    assert leaf.registry_sha == "Z/2"
    assert leaf.computed_sha is None  # no presentation known for I2 + I2*
    assert leaf.presentation_source is None

    k1k2 = coll[("K1", "K2")]
    assert k1k2.tree.root.status == "blown-up"
    assert str(k1k2.tree.root.exceptional.fibre_type) == "IV"
    assert [leaf.path for leaf in k1k2.leaves] == ["L", "R"]
    for leaf in k1k2.leaves:
        assert {leaf.left_type, leaf.right_type} == {"II", "IV"}
        assert leaf.verdict == "NoIsolatedMultipleFibre"
        assert leaf.registry_sha == "0"

    n1d2 = coll[("N1", "D2")]
    (leaf,) = n1d2.leaves
    assert leaf.verdict == "NoIsolatedMultipleFibre"  # odd multiplicative index
    assert leaf.registry_sha == "0"

    assert rep.summary.delta_eta == 2
    assert rep.summary.corank is None
    assert rep.summary.all_irreducible is False


def test_global_summary_from_topology():
    rep = _analyze_file("nodal_net.fib")
    assert not rep.has_errors
    assert rep.summary.corank == 2
    assert rep.summary.delta_eta == 3
    assert rep.summary.all_irreducible is True  # two nodal fibres
    (crep,) = rep.collisions
    (leaf,) = crep.leaves
    assert leaf.verdict == "NoIsolatedMultipleFibre"


# ---------------------------------------------------------------------------
# error collection


def test_invalid_branch_is_reported_and_skipped():
    d = parse_description(
        "[branch X] va=1 vb=1 vdelta=3\n"
        "[branch A] va=0 vb=0 vdelta=1\n"
        "[collision] X A\n"
    )
    rep = analyze(d)
    assert rep.has_errors
    assert [b.name for b in rep.branches] == ["A"]
    kinds = {(e.subject, e.kind) for e in rep.errors}
    assert ("X", "InvalidProfile") in kinds
    assert ("collision X+A", "UnanalyzedBranch") in kinds
    assert rep.collisions[0].failed is True


def test_inconsistent_collision_is_reported():
    d = parse_description(
        "[branch C2] va=1 vb=1 vdelta=2\n"
        "[branch C3] va=1 vb=2 vdelta=3\n"
        "[collision] C2 C3\n"
    )
    rep = analyze(d)
    (crep,) = rep.collisions
    assert crep.failed is True
    (err,) = rep.errors
    assert err.kind == "ProfileInconsistent"
    assert err.subject == "collision C2+C3"


def test_mismatched_explicit_presentation():
    d = parse_description(
        "[branch L1] va=0 vb=0 vdelta=1\n"
        "[branch L2] va=0 vb=0 vdelta=1\n"
        "[collision] L1 L2 presentation=presentations/i2_i0star.json\n"
    )
    rep = analyze(d, base_dir=str(CORPUS))
    assert rep.has_errors
    (err,) = rep.errors
    assert err.kind == "PresentationInconsistent"
    # the tree itself still resolves; only the attached data is rejected
    (crep,) = rep.collisions
    assert crep.failed is False
    (leaf,) = crep.leaves
    assert leaf.computed_sha is None
    assert leaf.registry_sha == "0"


def test_missing_presentation_file():
    d = parse_description(
        "[branch L1] va=0 vb=0 vdelta=1\n"
        "[branch L2] va=0 vb=0 vdelta=1\n"
        "[collision] L1 L2 presentation=no/such/file.json\n"
    )
    rep = analyze(d, base_dir=str(CORPUS))
    assert rep.has_errors
    assert rep.collisions[0].failed is True


# ---------------------------------------------------------------------------
# renderers


def test_render_json_shape_and_key_order():
    rep = _analyze_file("i2_i0star.fib")
    out = render_json(rep)
    doc = json.loads(out)
    assert list(doc) == [
        "format_version", "mode", "sha_punctured_hypothesis", "branches",
        "collisions", "blowup_trees", "verdicts", "groups", "global", "errors",
    ]
    assert doc["format_version"] == 1
    assert doc["mode"] == "branches"
    assert doc["sha_punctured_hypothesis"] == PUNCTURED_HYPOTHESIS
    assert doc["collisions"][0]["status"] == "resolved"
    assert doc["blowup_trees"][0]["status"] == "allowed"
    assert doc["verdicts"][0][0]["verdict"] == "PossiblyObstinate"
    group = doc["groups"][0][0]
    assert group["registry"] == "Z/2"
    assert group["computed"] == "Z/2"
    assert group["agreement"] is True
    assert group["witnesses"] == [["0", "1/2", "0", "0", "0", "1/2", "1/2"]]
    assert doc["errors"] == []
    assert out.endswith("\n")


def test_render_json_is_deterministic():
    first = render_json(_analyze_file("mixed_reduction.fib"))
    second = render_json(_analyze_file("mixed_reduction.fib"))
    assert first == second


def test_render_json_infinite_valuations():
    d = parse_description("[branch Q] va=inf vb=2 vdelta=4\n")
    rep = analyze(d)
    assert not rep.has_errors
    doc = json.loads(render_json(rep))
    branch = doc["branches"][0]
    assert branch["type"] == "IV"
    assert branch["input_profile"]["va"] == "inf"
    assert branch["j_valuation"] == "inf"


def test_render_json_error_document():
    d = parse_description(
        "[branch C2] va=1 vb=1 vdelta=2\n"
        "[branch C3] va=1 vb=2 vdelta=3\n"
        "[collision] C2 C3\n"
    )
    doc = json.loads(render_json(analyze(d)))
    assert doc["collisions"][0]["status"] == "error"
    assert doc["blowup_trees"] == [None]
    (err,) = doc["errors"]
    assert err["kind"] == "ProfileInconsistent"


def test_render_text_lines():
    rep = _analyze_file("i2_i0star.fib")
    text = render_text(rep)
    assert "N2: I2" in text
    assert "discriminant group: Z/2 + Z/2" in text
    assert "verdict PossiblyObstinate with obstruction Z/2" in text
    assert "local sha (registry) = Z/2" in text
    assert "registry and computation agree" in text
    assert "generator witness (0, 1/2, 0, 0, 0, 1/2, 1/2)" in text
    assert text.endswith("\n")


def test_render_text_blowup_tree_and_errors():
    rep = _analyze_file("mixed_reduction.fib")
    text = render_text(rep)
    assert "[root] II + II  (K1 + K2): blown-up -> exceptional IV" in text
    assert "gcd of multisection fibre degrees: 2" in text
    d = parse_description(
        "[branch C2] va=1 vb=1 vdelta=2\n"
        "[branch C3] va=1 vb=2 vdelta=3\n"
        "[collision] C2 C3\n"
    )
    text = render_text(analyze(d))
    assert "failed (see errors)" in text
    assert "== errors ==" in text
    assert "ProfileInconsistent" in text

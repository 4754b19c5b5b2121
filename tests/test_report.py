"""Tests for the whole-fibration analysis pipeline, the report document it
returns, and the two renderers that read that document."""

import dataclasses
import io
import json
import pathlib
import sys

from ellfib import kodaira, poly, weierstrass
from ellfib.cli import EXIT_ENGINE, main
from ellfib.parser import parse_description
from ellfib.presentations import (
    BranchPresentation,
    CollisionPresentation,
    DivisorRecord,
    load_presentations,
)
from ellfib.report import (
    ALL_IRREDUCIBLE_NOTE,
    PUNCTURED_HYPOTHESIS,
    analyze,
    render_json,
    render_text,
)

from support import I2_I0STAR, discriminant

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def _analyze_file(name: str):
    text = (CORPUS / name).read_text(encoding="utf-8")
    return analyze(parse_description(text), base_dir=str(CORPUS))


def _nodes(tree: dict):
    """Every node of a blow-up tree document, parents first, left first."""
    yield tree
    for child in tree.get("children", ()):
        yield from _nodes(child)


def _leaves(tree: dict) -> list[dict]:
    return [n for n in _nodes(tree) if "children" not in n]


def _height(tree: dict) -> int:
    return max(0 if n["path"] == "root" else len(n["path"]) for n in _leaves(tree))


def _profile(va, vb, vdelta) -> dict:
    return {"va": va, "vb": vb, "vdelta": vdelta}


# ---------------------------------------------------------------------------
# branch-level reporting


def test_branch_reports_for_transverse_collision():
    doc = _analyze_file("i2_i0star.fib")
    assert doc["errors"] == []
    by_name = {b["name"]: b for b in doc["branches"]}
    n2, d0 = by_name["N2"], by_name["D0"]
    assert n2["type"] == "I2"
    assert n2["minimal_profile"] == _profile(0, 0, 2)
    assert n2["twists_removed"] == 0
    assert n2["j_valuation"] == -2
    assert n2["components"] == 2
    assert n2["discriminant_group"] == "Z/2"
    assert n2["sha_punctured"] == "(Q/Z)^1 + Z/2"
    assert d0["type"] == "I0*"
    assert d0["multiplicities"] == [1, 1, 1, 1, 2]
    assert d0["discriminant_group"] == "Z/2 + Z/2"
    assert d0["sha_punctured"] == "Z/2 + Z/2"
    assert d0["j_valuation"] == 0


def test_report_classifies_each_fibre_once(monkeypatch):
    # one classify per declared branch, whose entry reads the type off its
    # germ, and one per exceptional fibre of a blow-up tree
    real = weierstrass.classify
    calls = []

    def counting(profile):
        calls.append(profile)
        return real(profile)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("ellfib") and getattr(module, "classify", None) is real:
            monkeypatch.setattr(module, "classify", counting)
    doc = _analyze_file("single_i7.fib")
    assert doc["errors"] == [] and len(calls) == 1
    for name in sorted(p.name for p in CORPUS.glob("*.fib")):
        calls.clear()
        doc = _analyze_file(name)
        exceptional = sum(
            "exceptional" in node for tree in doc["blowup_trees"] if tree for node in _nodes(tree)
        )
        assert len(calls) == len(doc["branches"]) + exceptional, name


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
    for doc in (
        _analyze_file("i2_i0star.fib"),
        _analyze_file("mixed_reduction.fib"),
        analyze(parse_description(EVERY_KIND)),
    ):
        assert doc["errors"] == []
        render_text(doc)
        render_json(doc)
    by_name = {b["name"]: b for b in doc["branches"]}
    assert [b["type"] for b in doc["branches"]] == [
        "I0", "I5", "I1*", "II", "III", "IV", "IV*", "III*", "II*"
    ]
    assert by_name["D1"]["discriminant_group"] == "Z/4"
    assert by_name["D1"]["multiplicities"] == [1, 1, 1, 1, 2, 2]
    assert by_name["Cs"]["discriminant_group"] == "0"
    assert by_name["Cs"]["components"] == 9


def test_branch_of_large_index():
    doc = analyze(parse_description("[branch A] va=0 vb=0 vdelta=3000\n"))
    assert doc["errors"] == []
    (b,) = doc["branches"]
    assert b["type"] == "I3000"
    assert b["components"] == 3000
    assert b["multiplicities"] == [1] * 3000
    assert b["discriminant_group"] == "Z/3000"
    assert b["sha_punctured"] == "(Q/Z)^1 + Z/3000"


def test_leaf_report_uses_registry_presentation():
    doc = _analyze_file("i2_i0star.fib")
    (coll,) = doc["collisions"]
    assert coll["status"] == "resolved"
    (tree,) = doc["blowup_trees"]
    assert _height(tree) == 0
    (verdict,) = doc["verdicts"][0]
    (group,) = doc["groups"][0]
    assert verdict["path"] == group["path"] == "root"
    (leaf,) = (n for n in _leaves(tree) if n["path"] == "root")
    assert (leaf["left"]["name"], leaf["right"]["name"]) == ("N2", "D0")
    assert (leaf["left"]["type"], leaf["right"]["type"]) == ("I2", "I0*")
    assert verdict["pair"] == group["pair"] == "I2+I0*"
    assert verdict["verdict"] == "PossiblyObstinate"
    assert verdict["obstruction"] == "Z/2"
    assert group["registry"] == "Z/2"
    assert group["computed"] == "Z/2"
    assert group["agreement"] is True
    assert group["divisible_part_flag"] is False
    assert group["presentation_source"] == "registry"
    assert group["witnesses"]  # a generator of Z/2 is emitted
    (w,) = group["witnesses"]
    assert len(w) == 7 and w.count("1/2") == 3


def test_weierstrass_mode_axis_branches():
    doc = _analyze_file("cuspidal_axis.fib")
    assert doc["errors"] == []
    assert [b["name"] for b in doc["branches"]] == ["s-axis", "t-axis"]
    assert [b["type"] for b in doc["branches"]] == ["II", "I0"]
    assert doc["global"]["all_fibres_irreducible"] is True
    assert doc["global"]["note"] == ALL_IRREDUCIBLE_NOTE


def test_rational_model_with_cancelling_discriminant():
    doc = _analyze_file("rational_cancel.fib")
    assert doc["errors"] == []
    assert [(b["name"], b["type"], b["input_profile"]) for b in doc["branches"]] == [
        ("s-axis", "I1*", _profile(2, 3, 7)),
        ("t-axis", "I0", _profile(0, 0, 0)),
    ]


def test_polynomial_report_builds_no_discriminant(monkeypatch):
    # No polynomial the poly module returns while a polynomial-mode file
    # is parsed, analyzed and rendered is its discriminant; where the
    # leading terms decide everything, no product or quotient is taken.
    assert "delta" not in {f.name for f in dataclasses.fields(weierstrass.WeierstrassPolyModel)}
    returned = []
    for name in ("add", "scale", "mul", "divide"):
        def recording(*args, _real=getattr(poly, name), _name=name):
            result = _real(*args)
            returned.append((_name, result))
            return result
        monkeypatch.setattr(poly, name, recording)
    for path in sorted(CORPUS.glob("*.fib")):
        returned.clear()
        doc = _analyze_file(path.name)
        render_json(doc)
        render_text(doc)
        seen = list(returned)
        if doc["mode"] != "weierstrass":
            continue
        model = parse_description(path.read_text(encoding="utf-8")).model
        delta = discriminant(model.a, model.b)
        assert all(p != delta for _, p in seen), path.name
        if path.name == "axes_collision.fib":
            assert not [n for n, _ in seen if n in ("mul", "divide")]


def test_weierstrass_axes_collision_dissolves():
    doc = _analyze_file("axes_collision.fib")
    assert doc["errors"] == []
    assert [b["type"] for b in doc["branches"]] == ["I0*", "I0*"]
    (tree,) = doc["blowup_trees"]
    assert tree["status"] == "blown-up"
    assert tree["exceptional"]["type"] == "I0"
    assert all(n["status"] == "dissolved" for n in _leaves(tree))
    assert doc["verdicts"] == [[]] and doc["groups"] == [[]]  # nothing left to measure


def test_mixed_reduction_corpus():
    doc = _analyze_file("mixed_reduction.fib")
    assert doc["errors"] == []
    by_name = {b["name"]: b for b in doc["branches"]}
    assert by_name["W"]["twists_removed"] == 1
    assert by_name["W"]["type"] == "I0*"
    assert by_name["D2"]["type"] == "I2*"
    coll = {(c["left"], c["right"]): c["index"] for c in doc["collisions"]}

    n2d2 = coll[("N2", "D2")]
    (verdict,) = doc["verdicts"][n2d2]
    (group,) = doc["groups"][n2d2]
    assert verdict["verdict"] == "PossiblyObstinate"
    assert group["registry"] == "Z/2"
    assert group["computed"] is None  # no presentation known for I2 + I2*
    assert group["presentation_source"] is None

    k1k2 = coll[("K1", "K2")]
    tree = doc["blowup_trees"][k1k2]
    assert tree["status"] == "blown-up"
    assert tree["exceptional"]["type"] == "IV"
    assert [v["path"] for v in doc["verdicts"][k1k2]] == ["L", "R"]
    for verdict, group in zip(doc["verdicts"][k1k2], doc["groups"][k1k2]):
        assert set(verdict["pair"].split("+")) == {"II", "IV"}
        assert verdict["verdict"] == "NoIsolatedMultipleFibre"
        assert group["registry"] == "0"

    n1d2 = coll[("N1", "D2")]
    (verdict,) = doc["verdicts"][n1d2]
    (group,) = doc["groups"][n1d2]
    assert verdict["verdict"] == "NoIsolatedMultipleFibre"  # odd multiplicative index
    assert group["registry"] == "0"

    assert doc["global"]["delta_eta_gcd"] == 2
    assert doc["global"]["corank"] is None
    assert doc["global"]["all_fibres_irreducible"] is False


def test_global_summary_from_topology():
    doc = _analyze_file("nodal_net.fib")
    assert doc["errors"] == []
    assert doc["global"]["corank"] == 2
    assert doc["global"]["delta_eta_gcd"] == 3
    assert doc["global"]["all_fibres_irreducible"] is True  # two nodal fibres
    (verdicts,) = doc["verdicts"]
    (verdict,) = verdicts
    assert verdict["verdict"] == "NoIsolatedMultipleFibre"
    # a negative corank and an all-zero degree list are error entries
    doc = analyze(parse_description(
        "[branch A] va=0 vb=0 vdelta=1\n"
        "[topology] b2_X=5 rho_X=5 b2_S=3 rho_S=1\n"
        "[picard-degrees] 0 0\n"
    ))
    assert (doc["global"]["corank"], doc["global"]["delta_eta_gcd"]) == (None, None)
    assert [(e["subject"], e["kind"]) for e in doc["errors"]] == [
        ("topology", "NegativeCorank"), ("picard-degrees", "AllZero"),
    ]


# ---------------------------------------------------------------------------
# error collection


def test_invalid_branch_is_reported_and_skipped():
    d = parse_description(
        "[branch X] va=1 vb=1 vdelta=3\n"
        "[branch A] va=0 vb=0 vdelta=1\n"
        "[collision] X A\n"
    )
    doc = analyze(d)
    assert doc["errors"]
    assert [b["name"] for b in doc["branches"]] == ["A"]
    kinds = {(e["subject"], e["kind"]) for e in doc["errors"]}
    assert ("X", "InvalidProfile") in kinds
    assert ("collision X+A", "UnanalyzedBranch") in kinds
    assert doc["collisions"][0]["status"] == "error"


def test_inconsistent_collision_is_reported():
    d = parse_description(
        "[branch C2] va=1 vb=1 vdelta=2\n"
        "[branch C3] va=1 vb=2 vdelta=3\n"
        "[collision] C2 C3\n"
    )
    doc = analyze(d)
    (coll,) = doc["collisions"]
    assert coll["status"] == "error"
    (err,) = doc["errors"]
    assert err["kind"] == "ProfileInconsistent"
    assert err["subject"] == "collision C2+C3"


def test_mismatched_explicit_presentation(tmp_path):
    # an attached file of a pair no allowed leaf has is one error entry,
    # at the root leaf (I1 + I1) and below a blow-up (II + II gives two
    # II + IV leaves) alike
    attached = CORPUS / "presentations" / "i2_i0star.json"
    for left, right, profile, registry in (
        ("L1", "L2", "va=0 vb=0 vdelta=1", ["0"]), ("C", "E", "va=1 vb=1 vdelta=2", ["0", "0"]),
    ):
        text = (f"[branch {left}] {profile}\n[branch {right}] {profile}\n"
                f"[collision] {left} {right} presentation={attached}\n")
        doc = analyze(parse_description(text))
        assert doc["errors"] == [{
            "subject": f"collision {left}+{right}",
            "kind": "PresentationInconsistent",
            "message": "attached presentation describes I2 + I0*, the type pair of no "
                       "allowed leaf of the collision",
        }]
        # the tree itself still resolves; only the attached data is rejected
        (coll,) = doc["collisions"]
        assert coll["status"] == "resolved"
        (groups,) = doc["groups"]
        assert [g["registry"] for g in groups] == registry
        assert all(g["computed"] is None for g in groups)
        path = tmp_path / f"{left}.fib"
        path.write_text(text, encoding="utf-8")
        assert main(["report", str(path)], out=io.StringIO()) == EXIT_ENGINE


# II + IV on three central components of multiplicity 1: the II fibre's
# one component sweeps all three, each IV component one
II_IV = {
    "pair": ["II", "IV"],
    "central_multiplicities": [1, 1, 1],
    "branches": [
        {"fibre_type": "II", "divisors": [{"m": 1, "r": 1, "incidence": [1, 1, 1]}]},
        {"fibre_type": "IV", "divisors": [
            {"m": 1, "r": 1, "incidence": [1, 0, 0]},
            {"m": 1, "r": 1, "incidence": [0, 1, 0]},
            {"m": 1, "r": 1, "incidence": [0, 0, 1]},
        ]},
    ],
}


def test_attached_presentation_is_read_as_a_directory_file(tmp_path):
    # a valid attached file is the presentation of every allowed leaf of
    # its pair, named by its path; one of a single branch of the pair
    # gives the same group as the same file loaded from a presentation
    # directory
    (tmp_path / "ii_iv.json").write_text(json.dumps(II_IV), encoding="utf-8")
    doc = analyze(parse_description(
        "[branch C] va=1 vb=1 vdelta=2\n[branch E] va=1 vb=1 vdelta=2\n"
        "[collision] C E presentation=ii_iv.json\n"
    ), base_dir=str(tmp_path))
    assert doc["errors"] == []
    assert [(g["path"], g["pair"], g["computed"], g["presentation_source"])
            for g in doc["groups"][0]] == [("L", "II+IV", "0", "ii_iv.json"),
                                           ("R", "II+IV", "0", "ii_iv.json")]
    one = json.loads((CORPUS / "presentations" / "i2_i0star.json").read_text(encoding="utf-8"))
    one["branches"] = one["branches"][:1]
    (tmp_path / "one.json").write_text(json.dumps(one), encoding="utf-8")
    text = (CORPUS / "i2_i0star.fib").read_text(encoding="utf-8")
    for name, base, computed in (
        ("presentations/i2_i0star.json", CORPUS, "Z/2"), ("one.json", tmp_path, "0"),
    ):
        attached = text.replace("[collision] N2 D0", f"[collision] N2 D0 presentation={name}")
        doc = analyze(parse_description(attached), base_dir=str(base))
        assert doc["errors"] == []
        ((group,),) = doc["groups"]
        assert (group["computed"], group["presentation_source"]) == (computed, name)
    ((from_directory,),) = analyze(parse_description(text), store=load_presentations(tmp_path))["groups"]
    assert from_directory == {**group, "presentation_source": "registry"}


def test_missing_presentation_file():
    d = parse_description(
        "[branch L1] va=0 vb=0 vdelta=1\n"
        "[branch L2] va=0 vb=0 vdelta=1\n"
        "[collision] L1 L2 presentation=no/such/file.json\n"
    )
    doc = analyze(d, base_dir=str(CORPUS))
    assert doc["errors"]
    assert doc["collisions"][0]["status"] == "error"


# ---------------------------------------------------------------------------
# renderers


def test_render_json_shape_and_key_order():
    out = render_json(_analyze_file("i2_i0star.fib"))
    doc = json.loads(out)
    assert doc == _analyze_file("i2_i0star.fib")
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
    doc = analyze(parse_description("[branch Q] va=inf vb=2 vdelta=4\n"))
    assert doc["errors"] == []
    branch = json.loads(render_json(doc))["branches"][0]
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
    text = render_text(_analyze_file("i2_i0star.fib"))
    assert "N2: I2" in text
    assert "discriminant group: Z/2 + Z/2" in text
    assert "verdict PossiblyObstinate with obstruction Z/2" in text
    assert "local sha (registry) = Z/2" in text
    assert "registry and computation agree" in text
    assert "generator witness (0, 1/2, 0, 0, 0, 1/2, 1/2)" in text
    assert "divisible part" not in text
    assert text.endswith("\n")
    # a presentation whose kernel is Q/Z: one divisor meets the central
    # component twice, the other once
    divisible = CollisionPresentation(
        (3,), (BranchPresentation(weierstrass.KodairaType.parse("I2"),
                                  (DivisorRecord(1, 1, (2,)), DivisorRecord(1, 1, (1,)))),)
    )
    doc = analyze(parse_description((CORPUS / "i2_i0star.fib").read_text(encoding="utf-8")),
                  store={I2_I0STAR: divisible})
    text = render_text(doc)
    assert "[root] I2+I0*: local sha (computed from presentation [registry]) = (Q/Z)^1;" in text
    assert "[root] I2+I0*: unusual: computed group has a divisible part" in text


def test_render_text_blowup_tree_and_errors():
    text = render_text(_analyze_file("mixed_reduction.fib"))
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

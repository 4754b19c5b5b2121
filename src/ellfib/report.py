"""Whole-fibration analysis: classify every branch, resolve every
collision, and collect the group-theoretic invariants into one report
document, the plain dict that `report --format json` prints (see the
README for its layout).  `render_json` encodes it and `render_text`
prints the same data as text; `tree_json` and `tree_text` do the same
for one blow-up tree.

Individual failures (a bad profile, an unresolvable collision, a broken
presentation file) are recorded in the document's error list instead of
aborting the run, so a partial description still produces output.
"""

from __future__ import annotations

import json
import os

from . import kodaira
from .collisions import (
    BlowupNode,
    BranchGerm,
    CollisionPoint,
    corank as corank_of,
    delta_eta_gcd,
    miranda_entry,
    miranda_reduce,
)
from .errors import FibrationError, PresentationInconsistent
from .parser import AXIS_BRANCH_NAMES, CollisionDecl, FibrationDescription
from .presentations import (
    CollisionPresentation,
    load_presentation_file,
    load_presentations,
    local_sha_with_witnesses,
)
from .readers import render_valuation
from .weierstrass import KodairaType, ValuationProfile, axis_profile, j_valuation, minimalize

__all__ = ["analyze", "render_text", "render_json", "tree_json", "tree_text"]

FORMAT_VERSION = 1

PUNCTURED_HYPOTHESIS = (
    "valid over a strictly local base at a point of a smooth discriminant "
    "branch, for torsors trivial away from a transverse curve through the point"
)

ALL_IRREDUCIBLE_NOTE = (
    "every declared fibre is irreducible, so torsors trivial away from a "
    "transverse curve extend across it: no torsor acquires a multiple fibre "
    "over the generic point of such a curve, and the punctured group already "
    "measures the full one"
)


def _error(errors: list[dict], subject: str, exc: Exception) -> None:
    errors.append({"subject": subject, "kind": type(exc).__name__, "message": str(exc)})


def _profile_json(p: ValuationProfile) -> dict:
    return {
        "va": render_valuation(p.va),
        "vb": render_valuation(p.vb),
        "vdelta": render_valuation(p.vdelta),
    }


def _germ_json(g: BranchGerm) -> dict:
    return {"name": g.name, "type": str(g.fibre_type), "profile": _profile_json(g.profile)}


def tree_json(node: BlowupNode) -> dict:
    """The document of a blow-up tree: one dict per node, its children
    nested."""
    out = {
        "path": node.path or "root",
        "status": node.status,
        "left": _germ_json(node.left),
        "right": _germ_json(node.right),
    }
    if node.exceptional is not None:
        out["exceptional"] = _germ_json(node.exceptional)
        out["twists_absorbed"] = node.twist_count
    if node.children is not None:
        out["children"] = [tree_json(ch) for ch in node.children]
    return out


def _branch_json(name: str, profile: ValuationProfile) -> tuple[dict, BranchGerm]:
    minimal, twists = minimalize(profile)
    germ = BranchGerm(name, minimal)
    ft = germ.fibre_type
    entry = {
        "name": name,
        "input_profile": _profile_json(profile),
        "twists_removed": twists,
        "minimal_profile": _profile_json(minimal),
        "type": str(ft),
        "j_valuation": render_valuation(j_valuation(minimal)),
        "components": kodaira.component_count(ft),
        "multiplicities": list(kodaira.multiplicities(ft)),
        "discriminant_group": str(kodaira.discriminant_group(ft)),
        "sha_punctured": str(kodaira.sha_punctured_transverse(ft)),
    }
    return entry, germ


def _leaf_json(
    leaf: BlowupNode, pres: CollisionPresentation | None, source: str
) -> tuple[dict, dict]:
    """The verdict entry and the group entry of one allowed leaf, its
    group computed from pres when there is one."""
    lt, rt = leaf.type_pair()
    path, pair = leaf.path or "root", f"{lt}+{rt}"
    registry, kind, obstruction = miranda_entry(lt, rt)
    verdict_entry = {
        "path": path,
        "pair": pair,
        "verdict": kind,
        "obstruction": None if obstruction is None else str(obstruction),
    }
    group = {
        "path": path,
        "pair": pair,
        "registry": str(registry),
        "computed": None,
        "witnesses": None,
        "agreement": None,
        "divisible_part_flag": False,
        "presentation_source": None,
    }
    if pres is None:
        return verdict_entry, group
    computed, witnesses = local_sha_with_witnesses(pres)
    group.update(
        computed=str(computed),
        witnesses=[[str(x) for x in w] for w in witnesses] or None,
        agreement=computed == registry,
        divisible_part_flag=computed.divisible_rank > 0,
        presentation_source=source,
    )
    return verdict_entry, group


def _collision_json(
    c: CollisionDecl,
    germs: dict[str, BranchGerm],
    store: dict[frozenset[KodairaType], CollisionPresentation],
    base_dir: str | None,
    errors: list[dict],
) -> tuple[dict | None, list[tuple[dict, dict]]]:
    """The blow-up tree of one collision and the (verdict, group) entries
    of its allowed leaves; no tree once a failure is recorded.  A leaf
    takes the attached file's presentation when the file's pair is the
    leaf's, else the store's entry; an attached file that no allowed leaf
    takes is an error."""
    subject = f"collision {c.left}+{c.right}"
    attached = None
    if c.presentation is not None:
        try:
            pair, pres = load_presentation_file(os.path.join(base_dir or "", c.presentation))
        except (OSError, FibrationError) as exc:
            _error(errors, subject, exc)
            return None, []
        attached = frozenset(pair)
        store = {**store, attached: pres}

    missing = [n for n in (c.left, c.right) if n not in germs]
    if missing:
        errors.append({
            "subject": subject,
            "kind": "UnanalyzedBranch",
            "message": f"branch {missing[0]!r} was not analyzed; collision skipped",
        })
        return None, []

    try:
        point = CollisionPoint(germs[c.left], germs[c.right])
        tree = miranda_reduce([point])[0]
    except FibrationError as exc:
        _error(errors, subject, exc)
        return None, []

    allowed = tree.allowed_leaves()
    keys = [frozenset(leaf.type_pair()) for leaf in allowed]
    if attached is not None and attached not in keys:
        _error(errors, subject, PresentationInconsistent(
            f"attached presentation describes {' + '.join(map(str, pair))}, "
            "the type pair of no allowed leaf of the collision"))
    leaves = [_leaf_json(leaf, store.get(key), c.presentation if key == attached else "registry")
              for leaf, key in zip(allowed, keys)]
    return tree_json(tree.root), leaves


def analyze(
    d: FibrationDescription,
    store: dict[frozenset[KodairaType], CollisionPresentation] | None = None,
    base_dir: str | None = None,
) -> dict:
    """Run the full pipeline on a parsed description and return the
    report document: a dict of JSON values in the fixed key order of
    `report --format json`, with `errors` empty on a clean run.  store
    maps Miranda's key, an unordered pair of KodairaType, to presentations,
    as load_presentations() returns them, which is the default."""
    store = store if store is not None else load_presentations()
    errors: list[dict] = []
    branches: list[dict] = []
    germs: dict[str, BranchGerm] = {}

    declared = []
    if d.mode == "weierstrass":
        declared = [(name, axis_profile(d.model, axis))
                    for name, axis in zip(AXIS_BRANCH_NAMES, ("s", "t"))]
    else:
        for b in d.branches:
            try:
                declared.append((b.name, ValuationProfile(b.va, b.vb, b.vdelta)))
            except FibrationError as exc:
                _error(errors, b.name, exc)

    for name, profile in declared:
        entry, germ = _branch_json(name, profile)
        branches.append(entry)
        germs[name] = germ

    collisions, trees, verdicts, groups = [], [], [], []
    for i, c in enumerate(d.collisions):
        tree, leaves = _collision_json(c, germs, store, base_dir, errors)
        collisions.append({
            "index": i,
            "left": c.left,
            "right": c.right,
            "presentation": c.presentation,
            "status": "error" if tree is None else "resolved",
        })
        trees.append(tree)
        verdicts.append([v for v, _ in leaves])
        groups.append([g for _, g in leaves])

    summary = {"corank": None, "delta_eta_gcd": None,
               "all_fibres_irreducible": False, "note": None}
    try:
        if d.topology is not None:
            summary["corank"] = corank_of(*d.topology)
    except FibrationError as exc:
        _error(errors, "topology", exc)
    try:
        if d.picard_degrees is not None:
            summary["delta_eta_gcd"] = delta_eta_gcd(d.picard_degrees)
    except FibrationError as exc:
        _error(errors, "picard-degrees", exc)
    if branches and all(b["components"] == 1 for b in branches):
        summary["all_fibres_irreducible"] = True
        summary["note"] = ALL_IRREDUCIBLE_NOTE

    return {
        "format_version": FORMAT_VERSION,
        "mode": d.mode,
        "sha_punctured_hypothesis": PUNCTURED_HYPOTHESIS,
        "branches": branches,
        "collisions": collisions,
        "blowup_trees": trees,
        "verdicts": verdicts,
        "groups": groups,
        "global": summary,
        "errors": errors,
    }


# ---------------------------------------------------------------------------
# rendering


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _profile_text(p: dict) -> str:
    return f"(va={p['va']}, vb={p['vb']}, vdelta={p['vdelta']})"


def tree_text(node: dict, lines: list[str], indent: int) -> None:
    """Append one line per node of a blow-up tree document."""
    pad = "  " * indent
    left, right = node["left"], node["right"]
    extra = ""
    if node["status"] == "blown-up":
        extra = f" -> exceptional {node['exceptional']['type']}"
        if node["twists_absorbed"]:
            extra += f" ({node['twists_absorbed']} twist(s) absorbed)"
    lines.append(f"{pad}[{node['path']}] {left['type']} + {right['type']}  "
                 f"({left['name']} + {right['name']}): {node['status']}{extra}")
    for ch in node.get("children", ()):
        tree_text(ch, lines, indent + 1)


def render_text(doc: dict) -> str:
    lines: list[str] = []
    lines.append("== branches ==")
    for b in doc["branches"]:
        lines.append(f"{b['name']}: {b['type']}")
        lines.append(f"  input {_profile_text(b['input_profile'])}, "
                     f"twists removed: {b['twists_removed']}")
        lines.append(f"  minimal {_profile_text(b['minimal_profile'])}, "
                     f"j-valuation {b['j_valuation']}")
        lines.append(f"  components: {b['components']}, multiplicities {b['multiplicities']}")
        lines.append(f"  discriminant group: {b['discriminant_group']}")
        lines.append(f"  sha (punctured, transverse): {b['sha_punctured']}")
    if doc["branches"]:
        lines.append(f"  [note: {doc['sha_punctured_hypothesis']}]")

    if doc["collisions"]:
        lines.append("")
        lines.append("== collisions ==")
    for c, tree, verdicts, groups in zip(
        doc["collisions"], doc["blowup_trees"], doc["verdicts"], doc["groups"]
    ):
        lines.append(f"{c['left']} + {c['right']}:")
        if tree is None:
            lines.append("  failed (see errors)")
            continue
        tree_text(tree, lines, 1)
        for v, g in zip(verdicts, groups):
            head = f"  [{v['path']}] {v['pair']}"
            lines.append(f"{head}: verdict {v['verdict']}"
                         + (f" with obstruction {v['obstruction']}" if v["obstruction"] else ""))
            lines.append(f"{head}: local sha (registry) = {g['registry']}")
            if g["computed"] is not None:
                agree = "agree" if g["agreement"] else "DISAGREE"
                lines.append(
                    f"{head}: local sha (computed from presentation "
                    f"[{g['presentation_source']}]) = {g['computed']}; "
                    f"registry and computation {agree}"
                )
                if g["divisible_part_flag"]:
                    lines.append(f"{head}: unusual: computed group has a divisible part")
                for w in g["witnesses"] or []:
                    lines.append(f"{head}: generator witness ({', '.join(w)})")

    summary = doc["global"]
    lines.append("")
    lines.append("== global ==")
    if summary["corank"] is not None:
        lines.append(f"corank of the Tate-Shafarevich group: {summary['corank']}")
    if summary["delta_eta_gcd"] is not None:
        lines.append(f"gcd of multisection fibre degrees: {summary['delta_eta_gcd']}")
    if summary["note"]:
        lines.append(f"note: {summary['note']}")
    if (summary["corank"] is None and summary["delta_eta_gcd"] is None
            and not summary["note"]):
        lines.append("(nothing to report)")

    if doc["errors"]:
        lines.append("")
        lines.append("== errors ==")
        for e in doc["errors"]:
            lines.append(f"{e['subject']}: {e['kind']}: {e['message']}")
    return "\n".join(lines) + "\n"

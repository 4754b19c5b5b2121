"""Whole-fibration analysis: classify every branch, resolve every
collision, and collect the group-theoretic invariants into one report
renderable as text or JSON.

Individual failures (a bad profile, an unresolvable collision, a broken
presentation file) are recorded in the report's error list instead of
aborting the run, so a partial description still produces output.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from . import kodaira
from .collisions import (
    BlowupNode,
    BlowupTree,
    BranchGerm,
    CollisionPoint,
    DEFAULT_MAX_DEPTH,
    expected_local_sha,
    corank as corank_of,
    delta_eta_gcd,
    miranda_reduce,
    multiple_fibre_verdict,
)
from .errors import FibrationError, PresentationInconsistent
from .exact_linalg import DivisibleGroup
from .parser import AXIS_BRANCH_NAMES, FibrationDescription
from .presentations import (
    CollisionPresentation,
    PresentationStore,
    load_presentation_file,
    local_sha_with_witnesses,
)
from .weierstrass import (
    INFINITY,
    ValuationProfile,
    axis_profile,
    classify,
    j_valuation,
    minimalize,
)

__all__ = ["AnalysisReport", "analyze", "render_text", "render_json"]

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


@dataclass
class BranchReport:
    name: str
    input_profile: tuple
    twist_count: int
    minimal_profile: tuple
    fibre_type: str
    j_valuation: object
    component_count: int
    multiplicities: tuple[int, ...]
    discriminant_group: str
    sha_punctured: str


@dataclass
class LeafReport:
    path: str
    left_name: str
    right_name: str
    left_type: str
    right_type: str
    verdict: str
    obstruction: str | None
    registry_sha: str
    computed_sha: str | None = None
    witnesses: list[tuple[str, ...]] | None = None
    agreement: bool | None = None
    divisible_part_flag: bool = False
    presentation_source: str | None = None


@dataclass
class CollisionReport:
    left: str
    right: str
    presentation: str | None
    tree: BlowupTree | None
    leaves: list[LeafReport] = field(default_factory=list)
    failed: bool = False


@dataclass
class GlobalReport:
    corank: int | None = None
    delta_eta: int | None = None
    all_irreducible: bool = False
    note: str | None = None


@dataclass
class ErrorEntry:
    subject: str
    kind: str
    message: str


@dataclass
class AnalysisReport:
    description: FibrationDescription
    branches: list[BranchReport] = field(default_factory=list)
    collisions: list[CollisionReport] = field(default_factory=list)
    summary: GlobalReport = field(default_factory=GlobalReport)
    errors: list[ErrorEntry] = field(default_factory=list)

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)


def _branch_report(name: str, profile: ValuationProfile) -> tuple[BranchReport, BranchGerm]:
    minimal, twists = minimalize(profile)
    ft = classify(minimal)
    disc = kodaira.discriminant_group(ft)
    sha = kodaira.sha_punctured_transverse(ft)
    rep = BranchReport(
        name=name,
        input_profile=profile.as_tuple(),
        twist_count=twists,
        minimal_profile=minimal.as_tuple(),
        fibre_type=str(ft),
        j_valuation=j_valuation(minimal),
        component_count=kodaira.component_count(ft),
        multiplicities=kodaira.multiplicities(ft),
        discriminant_group=disc.render(),
        sha_punctured=sha.render(),
    )
    return rep, BranchGerm(name, minimal)


def _presentation_for_leaf(
    leaf: BlowupNode,
    explicit: CollisionPresentation | None,
    explicit_name: str | None,
    store: PresentationStore,
    is_root: bool,
) -> tuple[CollisionPresentation | None, str | None]:
    lt, rt = (str(t) for t in leaf.type_pair())
    if explicit is not None and is_root:
        declared = set(explicit.type_pair())
        if declared and declared != {lt, rt}:
            raise PresentationInconsistent(
                f"attached presentation describes {sorted(declared)} but the "
                f"collision is {lt} + {rt}"
            )
        return explicit, explicit_name
    found = store.lookup(lt, rt)
    if found is not None:
        return found, "registry"
    return None, None


def _leaf_report(
    leaf: BlowupNode,
    explicit: CollisionPresentation | None,
    explicit_name: str | None,
    store: PresentationStore,
    errors: list[ErrorEntry],
    subject: str,
) -> LeafReport:
    lt, rt = leaf.type_pair()
    verdict = multiple_fibre_verdict(lt, rt)
    registry = expected_local_sha(lt, rt)
    rep = LeafReport(
        path=leaf.path or "root",
        left_name=leaf.left.name,
        right_name=leaf.right.name,
        left_type=str(lt),
        right_type=str(rt),
        verdict=verdict.kind,
        obstruction=verdict.obstruction.render() if verdict.obstruction else None,
        registry_sha=registry.render(),
    )
    try:
        pres, source = _presentation_for_leaf(
            leaf, explicit, explicit_name, store, is_root=leaf.path == ""
        )
    except PresentationInconsistent as exc:
        errors.append(ErrorEntry(subject, type(exc).__name__, str(exc)))
        return rep
    if pres is None:
        return rep
    try:
        computed, witnesses = local_sha_with_witnesses(pres)
    except FibrationError as exc:
        errors.append(ErrorEntry(subject, type(exc).__name__, str(exc)))
        return rep
    rep.computed_sha = computed.render()
    rep.presentation_source = source
    rep.agreement = computed == registry
    rep.divisible_part_flag = computed.divisible_rank > 0
    if computed.invariant_factors:
        rep.witnesses = [tuple(str(x) for x in w) for w in witnesses]
    return rep


def analyze(
    d: FibrationDescription,
    store: PresentationStore | None = None,
    base_dir: str | None = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> AnalysisReport:
    """Run the full pipeline on a parsed description."""
    store = store if store is not None else PresentationStore()
    report = AnalysisReport(description=d)
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
                report.errors.append(ErrorEntry(b.name, type(exc).__name__, str(exc)))

    for name, profile in declared:
        try:
            rep, germ = _branch_report(name, profile)
        except FibrationError as exc:
            report.errors.append(ErrorEntry(name, type(exc).__name__, str(exc)))
            continue
        report.branches.append(rep)
        germs[name] = germ

    for c in d.collisions:
        subject = f"collision {c.left}+{c.right}"
        crep = CollisionReport(c.left, c.right, c.presentation, tree=None)
        report.collisions.append(crep)

        explicit = None
        if c.presentation is not None:
            path = c.presentation
            if base_dir is not None and not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            try:
                _, explicit = load_presentation_file(path)
            except (OSError, ValueError, FibrationError) as exc:
                report.errors.append(ErrorEntry(subject, type(exc).__name__, str(exc)))
                crep.failed = True
                continue

        missing = [n for n in (c.left, c.right) if n not in germs]
        if missing:
            report.errors.append(ErrorEntry(
                subject, "UnanalyzedBranch",
                f"branch {missing[0]!r} was not analyzed; collision skipped",
            ))
            crep.failed = True
            continue

        try:
            point = CollisionPoint(germs[c.left], germs[c.right])
            tree = miranda_reduce([point], max_depth=max_depth)[0]
        except FibrationError as exc:
            report.errors.append(ErrorEntry(subject, type(exc).__name__, str(exc)))
            crep.failed = True
            continue

        crep.tree = tree
        for leaf in tree.allowed_leaves():
            crep.leaves.append(
                _leaf_report(leaf, explicit, c.presentation, store,
                             report.errors, subject)
            )

    try:
        if d.topology is not None:
            report.summary.corank = corank_of(*d.topology)
    except FibrationError as exc:
        report.errors.append(ErrorEntry("topology", type(exc).__name__, str(exc)))
    try:
        if d.picard_degrees is not None:
            report.summary.delta_eta = delta_eta_gcd(d.picard_degrees)
    except FibrationError as exc:
        report.errors.append(ErrorEntry("picard-degrees", type(exc).__name__, str(exc)))

    if report.branches and all(b.component_count == 1 for b in report.branches):
        report.summary.all_irreducible = True
        report.summary.note = ALL_IRREDUCIBLE_NOTE

    return report


# ---------------------------------------------------------------------------
# rendering


def _val_json(v):
    return "inf" if v == INFINITY else v


def _profile_json(p: tuple) -> dict:
    return {"va": _val_json(p[0]), "vb": _val_json(p[1]), "vdelta": _val_json(p[2])}


def _germ_json(g: BranchGerm) -> dict:
    return {
        "name": g.name,
        "type": str(g.fibre_type),
        "profile": _profile_json(g.profile.as_tuple()),
    }


def _tree_json(node: BlowupNode) -> dict:
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
        out["children"] = [_tree_json(ch) for ch in node.children]
    return out


def render_json(report: AnalysisReport) -> str:
    branches = []
    for b in report.branches:
        branches.append({
            "name": b.name,
            "input_profile": _profile_json(b.input_profile),
            "twists_removed": b.twist_count,
            "minimal_profile": _profile_json(b.minimal_profile),
            "type": b.fibre_type,
            "j_valuation": _val_json(b.j_valuation),
            "components": b.component_count,
            "multiplicities": list(b.multiplicities),
            "discriminant_group": b.discriminant_group,
            "sha_punctured": b.sha_punctured,
        })
    collisions = []
    trees = []
    verdicts = []
    groups = []
    for i, c in enumerate(report.collisions):
        collisions.append({
            "index": i,
            "left": c.left,
            "right": c.right,
            "presentation": c.presentation,
            "status": "error" if c.failed else "resolved",
        })
        trees.append(_tree_json(c.tree.root) if c.tree is not None else None)
        verdicts.append([
            {
                "path": leaf.path,
                "pair": f"{leaf.left_type}+{leaf.right_type}",
                "verdict": leaf.verdict,
                "obstruction": leaf.obstruction,
            }
            for leaf in c.leaves
        ])
        groups.append([
            {
                "path": leaf.path,
                "pair": f"{leaf.left_type}+{leaf.right_type}",
                "registry": leaf.registry_sha,
                "computed": leaf.computed_sha,
                "witnesses": [list(w) for w in leaf.witnesses] if leaf.witnesses else None,
                "agreement": leaf.agreement,
                "divisible_part_flag": leaf.divisible_part_flag,
                "presentation_source": leaf.presentation_source,
            }
            for leaf in c.leaves
        ])
    summary = {
        "corank": report.summary.corank,
        "delta_eta_gcd": report.summary.delta_eta,
        "all_fibres_irreducible": report.summary.all_irreducible,
        "note": report.summary.note,
    }
    doc = {
        "format_version": FORMAT_VERSION,
        "mode": report.description.mode,
        "sha_punctured_hypothesis": PUNCTURED_HYPOTHESIS,
        "branches": branches,
        "collisions": collisions,
        "blowup_trees": trees,
        "verdicts": verdicts,
        "groups": groups,
        "global": summary,
        "errors": [
            {"subject": e.subject, "kind": e.kind, "message": e.message}
            for e in report.errors
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _profile_text(p: tuple) -> str:
    va, vb, vd = (_val_json(x) for x in p)
    return f"(va={va}, vb={vb}, vdelta={vd})"


def _tree_text(node: BlowupNode, lines: list[str], indent: int) -> None:
    pad = "  " * indent
    pair = f"{node.left.fibre_type} + {node.right.fibre_type}"
    names = f"{node.left.name} + {node.right.name}"
    if node.status == "blown-up":
        extra = f" -> exceptional {node.exceptional.fibre_type}"
        if node.twist_count:
            extra += f" ({node.twist_count} twist(s) absorbed)"
    else:
        extra = ""
    lines.append(f"{pad}[{node.path or 'root'}] {pair}  ({names}): {node.status}{extra}")
    if node.children is not None:
        for ch in node.children:
            _tree_text(ch, lines, indent + 1)


def render_text(report: AnalysisReport) -> str:
    lines: list[str] = []
    lines.append("== branches ==")
    for b in report.branches:
        lines.append(f"{b.name}: {b.fibre_type}")
        lines.append(f"  input {_profile_text(b.input_profile)}, twists removed: {b.twist_count}")
        lines.append(f"  minimal {_profile_text(b.minimal_profile)}, j-valuation {_val_json(b.j_valuation)}")
        lines.append(
            f"  components: {b.component_count}, multiplicities {list(b.multiplicities)}"
        )
        lines.append(f"  discriminant group: {b.discriminant_group}")
        lines.append(f"  sha (punctured, transverse): {b.sha_punctured}")
    if report.branches:
        lines.append(f"  [note: {PUNCTURED_HYPOTHESIS}]")

    if report.collisions:
        lines.append("")
        lines.append("== collisions ==")
    for c in report.collisions:
        lines.append(f"{c.left} + {c.right}:")
        if c.failed or c.tree is None:
            lines.append("  failed (see errors)")
            continue
        _tree_text(c.tree.root, lines, 1)
        for leaf in c.leaves:
            head = f"  [{leaf.path}] {leaf.left_type}+{leaf.right_type}"
            lines.append(f"{head}: verdict {leaf.verdict}"
                         + (f" with obstruction {leaf.obstruction}" if leaf.obstruction else ""))
            lines.append(f"{head}: local sha (registry) = {leaf.registry_sha}")
            if leaf.computed_sha is not None:
                agree = "agree" if leaf.agreement else "DISAGREE"
                lines.append(
                    f"{head}: local sha (computed from presentation "
                    f"[{leaf.presentation_source}]) = {leaf.computed_sha}; "
                    f"registry and computation {agree}"
                )
                if leaf.divisible_part_flag:
                    lines.append(f"{head}: unusual: computed group has a divisible part")
                for w in leaf.witnesses or []:
                    lines.append(f"{head}: generator witness ({', '.join(w)})")

    lines.append("")
    lines.append("== global ==")
    if report.summary.corank is not None:
        lines.append(f"corank of the Tate-Shafarevich group: {report.summary.corank}")
    if report.summary.delta_eta is not None:
        lines.append(f"gcd of multisection fibre degrees: {report.summary.delta_eta}")
    if report.summary.note:
        lines.append(f"note: {report.summary.note}")
    if (report.summary.corank is None and report.summary.delta_eta is None
            and not report.summary.note):
        lines.append("(nothing to report)")

    if report.errors:
        lines.append("")
        lines.append("== errors ==")
        for e in report.errors:
            lines.append(f"{e.subject}: {e.kind}: {e.message}")
    return "\n".join(lines) + "\n"

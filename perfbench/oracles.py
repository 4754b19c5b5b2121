"""Output checks.  Each returns a list of problems, empty when the output
is right.  Expected values come from reference.py and from the job's
spec, never from ellfib."""

from __future__ import annotations

from fractions import Fraction

import reference as ref

# collision pairs the report's builtin presentation store holds
BUILTIN_PRESENTATIONS = {frozenset(("I2", "I0*"))}


def _expect(problems: list, where: str, got, want) -> None:
    if got != want:
        problems.append(f"{where}: got {got!r}, expected {want!r}")


def _check_branch(problems: list, where: str, got: dict, name: str, declared) -> tuple:
    minimal, twists = ref.minimalize(declared)
    t = ref.classify(minimal)
    _expect(problems, where + " name", got.get("name"), name)
    _expect(problems, where + " input_profile", _profile(got.get("input_profile")), declared)
    _expect(problems, where + " twists_removed", got.get("twists_removed"), twists)
    _expect(problems, where + " minimal_profile", _profile(got.get("minimal_profile")), minimal)
    _expect(problems, where + " type", got.get("type"), ref.type_str(t))
    j = ref.j_valuation(minimal)
    _expect(problems, where + " j_valuation", got.get("j_valuation"), "inf" if j == ref.INF else j)
    _expect(problems, where + " components", got.get("components"), ref.components(t))
    _expect(problems, where + " multiplicities", sorted(got.get("multiplicities") or []),
            ref.multiplicities(t))
    _expect(problems, where + " discriminant_group", got.get("discriminant_group"),
            ref.render_group(0, ref.discriminant_factors(t)))
    _expect(problems, where + " sha_punctured", got.get("sha_punctured"), ref.sha_punctured(t))
    # Euler number of the fibre = vdelta of the minimal model (Ogg)
    vd = (got.get("minimal_profile") or {}).get("vdelta")
    _expect(problems, where + " euler number", vd, ref.euler_number(t))
    return minimal


def _profile(p) -> tuple | None:
    if not isinstance(p, dict):
        return None
    return ref.profile_from_json([p.get("va"), p.get("vb"), p.get("vdelta")])


def _flatten_tree(node: dict, out: list) -> list:
    entry = {
        "path": node.get("path"),
        "status": node.get("status"),
        "left": _profile(node.get("left", {}).get("profile")),
        "right": _profile(node.get("right", {}).get("profile")),
        "types": (node.get("left", {}).get("type"), node.get("right", {}).get("type")),
    }
    if "exceptional" in node:
        entry["exceptional"] = _profile(node["exceptional"].get("profile"))
        entry["twists"] = node.get("twists_absorbed")
    out.append(entry)
    for child in node.get("children") or ():
        _flatten_tree(child, out)
    return out


def _reference_tree(left, right) -> list:
    out = []
    for n in ref.reduce_collision(left, right):
        entry = {
            "path": n["path"],
            "status": n["status"],
            "left": n["left"],
            "right": n["right"],
            "types": (ref.type_str(ref.classify(n["left"])), ref.type_str(ref.classify(n["right"]))),
        }
        if "exceptional" in n:
            entry["exceptional"] = n["exceptional"]
            entry["twists"] = n["twists"]
        out.append(entry)
    return out


def _check_leaves(problems: list, where: str, expected_tree: list, verdicts, groups) -> None:
    leaves = [n for n in expected_tree if n["status"] == "allowed"]
    if not isinstance(verdicts, list) or len(verdicts) != len(leaves):
        problems.append(f"{where}: {len(leaves)} allowed leaves expected, verdicts {verdicts!r}")
        return
    if not isinstance(groups, list) or len(groups) != len(leaves):
        problems.append(f"{where}: {len(leaves)} allowed leaves expected, groups {groups!r}")
        return
    for leaf, v, g in zip(leaves, verdicts, groups):
        tl, tr = ref.classify(leaf["left"]), ref.classify(leaf["right"])
        pair = f"{ref.type_str(tl)}+{ref.type_str(tr)}"
        at = f"{where} leaf {leaf['path']}"
        kind, obstruction = ref.verdict(tl, tr)
        registry = ref.registry_sha(tl, tr)
        _expect(problems, at + " verdict", (v.get("path"), v.get("pair"), v.get("verdict"),
                                            v.get("obstruction")),
                (leaf["path"], pair, kind, obstruction))
        _expect(problems, at + " registry", (g.get("path"), g.get("pair"), g.get("registry")),
                (leaf["path"], pair, registry))
        if frozenset((ref.type_str(tl), ref.type_str(tr))) in BUILTIN_PRESENTATIONS:
            _expect(problems, at + " computed", (g.get("computed"), g.get("agreement"),
                                                 g.get("divisible_part_flag"),
                                                 g.get("presentation_source")),
                    (registry, True, False, "registry"))
            _check_witnesses(problems, at, g.get("witnesses"), registry)
        else:
            _expect(problems, at + " computed", (g.get("computed"), g.get("witnesses"),
                                                 g.get("agreement")), (None, None, None))


def _check_witnesses(problems: list, where: str, witnesses, group: str) -> None:
    """One generator per cyclic factor Z/d: entries in [0, 1) with
    denominators dividing d, not all zero."""
    orders = [int(part[2:]) for part in group.split(" + ") if part.startswith("Z/")]
    if not isinstance(witnesses, list) or len(witnesses) != len(orders):
        problems.append(f"{where}: witnesses {witnesses!r} for group {group}")
        return
    for w, d in zip(witnesses, orders):
        try:
            values = [Fraction(x) for x in w]
        except (TypeError, ValueError, ZeroDivisionError):
            problems.append(f"{where}: witness {w!r} is not a list of fractions")
            continue
        if (not any(values) or any(not 0 <= x < 1 for x in values)
                or any(d % x.denominator for x in values)):
            problems.append(f"{where}: witness {w!r} does not generate Z/{d}")


def check_report(spec: dict, doc: dict) -> list[str]:
    """Compare a `report --format json` document with the job's spec."""
    problems: list[str] = []
    _expect(problems, "errors", doc.get("errors"), [])
    _expect(problems, "mode", doc.get("mode"), spec["mode"])
    branches = doc.get("branches") or []
    if len(branches) != len(spec["branches"]):
        problems.append(f"{len(branches)} branches, expected {len(spec['branches'])}")
        return problems
    minimal = {}
    for got, (name, declared) in zip(branches, spec["branches"]):
        minimal[name] = _check_branch(problems, f"branch {name}", got, name,
                                      ref.profile_from_json(declared))

    collisions = doc.get("collisions") or []
    if len(collisions) != len(spec["collisions"]):
        problems.append(f"{len(collisions)} collisions, expected {len(spec['collisions'])}")
        return problems
    trees, verdicts, groups = doc.get("blowup_trees"), doc.get("verdicts"), doc.get("groups")
    for i, (left, right) in enumerate(spec["collisions"]):
        where = f"collision {left}+{right}"
        _expect(problems, where, (collisions[i].get("left"), collisions[i].get("right"),
                                  collisions[i].get("status")), (left, right, "resolved"))
        expected = _reference_tree(minimal[left], minimal[right])
        tree = trees[i] if isinstance(trees, list) and i < len(trees) else None
        got = _flatten_tree(tree, []) if isinstance(tree, dict) else None
        _expect(problems, where + " blow-up tree", got, expected)
        _check_leaves(problems, where,  expected,
                      verdicts[i] if isinstance(verdicts, list) and i < len(verdicts) else None,
                      groups[i] if isinstance(groups, list) and i < len(groups) else None)

    summary = doc.get("global") or {}
    if spec["topology"] is not None:
        _expect(problems, "corank", summary.get("corank"), ref.corank(*spec["topology"]))
    if spec["degrees"] is not None:
        _expect(problems, "delta_eta_gcd", summary.get("delta_eta_gcd"),
                ref.degree_gcd(spec["degrees"]))
    irreducible = all(ref.components(ref.classify(p)) == 1 for p in minimal.values())
    _expect(problems, "all_fibres_irreducible", summary.get("all_fibres_irreducible"),
            irreducible)
    return problems


def check_smith(a: list[list[int]], qz, dec) -> list[str]:
    """Certificates for qz_kernel(A) and smith_normal_form(A) = (U, D, V)."""
    problems: list[str] = []
    m, n = len(a), len(a[0])
    u, d, v = (_rows(x) for x in (dec.U, dec.D, dec.V))
    shapes = [(len(x), len(x[0]) if x else 0) for x in (u, d, v)]
    if shapes != [(m, m), (m, n), (n, n)]:
        return [f"shapes of U, D, V are {shapes} for a {m}x{n} matrix"]
    diag = [d[i][i] for i in range(min(m, n))]
    if any(d[i][j] for i in range(m) for j in range(n) if i != j):
        problems.append("D is not diagonal")
    rank = ref.bareiss_rank(a)
    if diag[:rank] != [x for x in diag if x != 0] or any(x <= 0 for x in diag[:rank]):
        problems.append(f"diagonal {diag} is not {rank} positive entries then zeros")
    if any(diag[i + 1] % diag[i] for i in range(rank - 1) if diag[i] > 0):
        problems.append(f"diagonal {diag} breaks the divisibility chain")
    _expect(problems, "rank", dec.rank, rank)
    # U * D scales the columns of U by the diagonal
    ud = [[row[j] * diag[j] if j < len(diag) else 0 for j in range(n)] for row in u]
    if ref.matmul(ud, v) != a:
        problems.append("U * D * V != A")
    for name, x in (("U", u), ("V", v)):
        det = ref.bareiss_det(x)
        if abs(det) != 1:
            problems.append(f"det {name} = {det} is not a unit")
    factors = tuple(x for x in diag if x > 1)
    _expect(problems, "qz_kernel", (qz.divisible_rank, tuple(qz.invariant_factors)),
            (n - rank, factors))
    if m == n == rank:
        order = 1
        for x in qz.invariant_factors:
            order *= x
        _expect(problems, "qz_kernel order vs |det A|", order, abs(ref.bareiss_det(a)))
    return problems


def _rows(matrix) -> list[list[int]]:
    e, c = matrix.entries, matrix.cols
    return [list(e[i * c:(i + 1) * c]) for i in range(matrix.rows)]

"""Seeded input generators, one per workload.

Each generator draws a pool of POOL_SIZE jobs from random.Random seeded
with the workload name and the seed, so the same seed gives
byte-identical inputs.  Sizes follow a fixed schedule over the pool and
the seed draws the contents, which keeps the size mix, and with it the
latency percentiles, the same from seed to seed.

Inputs are consistent by construction: every branch pair declared to
collide is one the reference reduction (reference.reduce_collision)
resolves, and every polynomial model puts both coordinate axes in the
discriminant with known profiles.  Each job carries a spec, the
structured description the oracle checks the program's output against.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import reference as ref

POOL_SIZE = 100
WORKLOADS = ("branch_net", "poly_model", "smith_dense")
MANIFEST = "manifest.json"

INF = ref.INF


def _val(v) -> str:
    return "inf" if v == INF else str(v)


def _reduction_kind(lp, rp) -> str | None:
    """'direct', 'blowup', or None when the pair cannot collide."""
    try:
        nodes = ref.reduce_collision(ref.minimalize(lp)[0], ref.minimalize(rp)[0])
    except (ref.Inconsistent, ref.Unresolved):
        return None
    return "direct" if nodes[0]["status"] == "allowed" else "blowup"


# ---------------------------------------------------------------------------
# branch_net: branch-mode files with heavy type repetition

# A file's palette takes one type from each stratum, in this order of
# frequency; strata group types of similar lattice size, so the cost of a
# file depends on the schedule more than on the seed.  Together they hold
# every type of index <= 12 and the six additive types.
_STRATA = (
    [("I", n) for n in range(1, 7)],
    [("I*", n) for n in range(6)],
    [(k, 0) for k in ("II", "III", "IV")],
    [("I", n) for n in range(7, 13)],
    [("I*", n) for n in range(6, 13)],
    [(k, 0) for k in ("IV*", "III*", "II*")],
)


_ADDITIVE_PROFILES = {
    "II": [(1, 1, 2), (2, 1, 2), (INF, 1, 2)],
    "III": [(1, 2, 3), (1, 3, 3), (1, INF, 3)],
    "IV": [(2, 2, 4), (3, 2, 4), (INF, 2, 4)],
    "IV*": [(3, 4, 8), (4, 4, 8), (INF, 4, 8)],
    "III*": [(3, 5, 9), (3, 6, 9), (3, INF, 9)],
    "II*": [(4, 5, 10), (5, 5, 10), (INF, 5, 10)],
}


def _minimal_profiles(t) -> list[tuple]:
    """Minimal profiles that classify to the type t."""
    kind, n = t
    if kind == "I":
        return [(0, 0, n)]
    if kind == "I*":
        return [(2, 3, 6 + n)] if n else [(2, 3, 6), (3, 3, 6), (2, 4, 6), (INF, 3, 6), (2, INF, 6)]
    return _ADDITIVE_PROFILES[kind]


def _declared_profile(rng: random.Random, t) -> tuple:
    p = rng.choice(_minimal_profiles(t))
    if rng.random() < 0.2:
        # declared non-minimally: minimalize has k unit twists to remove
        k = rng.choice((1, 2))
        p = tuple(v if v == INF else v + w * k for v, w in zip(p, (4, 6, 12)))
    return p


def _branch_file(rng: random.Random, f: int) -> tuple[str, dict]:
    nbranches = 10 + (20 * f) // (POOL_SIZE - 1)
    forced = [("I", 2), ("I*", 0), ("I", 4 + 2 * (f % 5)), ("I*", 1 + f % 12)]
    palette = [stratum[(f + 3 * k) % len(stratum)] for k, stratum in enumerate(_STRATA)] + forced
    # Zipf shares of the palette, rounded to whole branches; the seed
    # decides the order
    weights = [1.0 / (r + 1) for r in range(len(palette))]
    free = nbranches - len(forced)
    counts = [int(free * w / sum(weights)) for w in weights]
    for r in range(free - sum(counts)):
        counts[r] += 1
    drawn = [t for t, c in zip(palette, counts) for _ in range(c)]
    if f % 7 == 3:
        # the thin tail of large indices that keeps the I_n cost visible
        tail = 24 + f // 7
        drawn[0] = ("I", tail) if f % 2 else ("I*", tail - 6)
    rng.shuffle(drawn)
    types = forced + drawn
    profiles = [_declared_profile(rng, t) for t in types]
    names = [f"b{i}" for i in range(nbranches)]

    collisions = [(0, 1), (2, 3)]  # I2 + I0* and I_even + I_n*, both direct
    used = set(collisions)
    for slot in range(nbranches // 3 - len(collisions)):
        want = "direct" if slot % 2 else "blowup"
        for _ in range(400):
            i, j = rng.sample(range(nbranches), 2)
            if (i, j) in used or (j, i) in used:
                continue
            if _reduction_kind(profiles[i], profiles[j]) == want:
                collisions.append((i, j))
                used.add((i, j))
                break

    b2_s = rng.randint(1, 10)
    rho_s = rng.randint(1, b2_s)
    rho_x = rng.randint(2, 40)
    b2_x = rho_x + (b2_s - rho_s) + rng.randint(0, 20)
    degrees = [rng.randint(-12, 12) for _ in range(rng.randint(1, 4))]
    if not any(degrees):
        degrees[0] = rng.randint(1, 12)

    lines = [f"# branch_net job {f}"]
    for name, (va, vb, vd) in zip(names, profiles):
        lines.append(f"[branch {name}] va={_val(va)} vb={_val(vb)} vdelta={vd}")
    lines += [f"[collision] {names[i]} {names[j]}" for i, j in collisions]
    lines.append(f"[topology] b2_X={b2_x} rho_X={rho_x} b2_S={b2_s} rho_S={rho_s}")
    lines.append("[picard-degrees] " + " ".join(str(d) for d in degrees))
    spec = {
        "mode": "branches",
        "branches": [[n, ref.profile_to_json(p)] for n, p in zip(names, profiles)],
        "collisions": [[names[i], names[j]] for i, j in collisions],
        "topology": [b2_x, rho_x, b2_s, rho_s],
        "degrees": degrees,
    }
    return "\n".join(lines) + "\n", spec


# ---------------------------------------------------------------------------
# poly_model: one Weierstrass model per file, both axes in the discriminant


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a1, a2), c in p.items():
        for (b1, b2), d in q.items():
            e = (a1 + b1, a2 + b2)
            out[e] = out.get(e, 0) + c * d
    return {e: c for e, c in out.items() if c}


def poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _mono(c, es: int = 0, et: int = 0) -> dict:
    return {(es, et): Fraction(c)}


_UNIT_BOX = 30


def _unit(rng: random.Random, terms: int) -> dict:
    """A polynomial with nonzero constant term, so it is a unit at the
    origin and divisible by neither s nor t.  Exponents are spread over a
    wide box, so products rarely merge terms and their term counts, hence
    the job's cost, follow from the schedule rather than the seed.  Every
    fifth coefficient is a ratio."""
    cells = [(i, j) for i in range(_UNIT_BOX + 1) for j in range(_UNIT_BOX + 1)]
    exponents = [(0, 0)] + rng.sample(cells[1:], terms - 1)
    u = {}
    for k, e in enumerate(exponents):
        num = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
        u[e] = Fraction(num, rng.choice((2, 3))) if k % 5 == 4 else Fraction(num)
    return u


def _render_poly(p: dict) -> str:
    out = ""
    for (es, et) in sorted(p, key=lambda e: (-(e[0] + e[1]), -e[0])):
        c = p[(es, et)]
        factors = [f"s^{es}"] * (es > 0) + [f"t^{et}"] * (et > 0)
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def _generic_exponents() -> list[tuple[int, int, int, int]]:
    """Axis exponents (alpha, beta, alpha', beta') of a = s^alpha t^alpha' u_a,
    b = s^beta t^beta' u_b with 3 alpha != 2 beta on each axis, both axes
    still in the discriminant after minimalization and their crossing
    resolvable."""
    pairs = [(x, y) for x in range(1, 8) for y in range(1, 8) if 3 * x != 2 * y]
    out = []
    for sa, sb in pairs:
        for ta, tb in pairs:
            ps, pt = (sa, sb, min(3 * sa, 2 * sb)), (ta, tb, min(3 * ta, 2 * tb))
            if ref.minimalize(ps)[0][2] == 0 or ref.minimalize(pt)[0][2] == 0:
                continue
            if _reduction_kind(ps, pt) is not None:
                out.append((sa, sb, ta, tb))
    return out


def _poly_file(rng: random.Random, f: int, generic: list) -> tuple[str, dict]:
    h = f // 2
    if f % 2 == 0:
        # leading terms cancel in Delta: a = -3u^2 S, b = (2u^3 + X) T with
        # X = s^n t^m w, so Delta = 27 S' X (4u^3 + X) and vdelta exceeds
        # min(3va, 2vb) by n along s and by m along t
        ks, kt = rng.randint(0, 3), rng.randint(0, 3)
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        u = _unit(rng, 2 + (4 * h) // (POOL_SIZE // 2))
        w = _unit(rng, 1 + h % 4)
        u2 = poly_mul(u, u)
        a = poly_mul(poly_mul(_mono(-3), u2), _mono(1, 2 * ks, 2 * kt))
        x = poly_mul(_mono(1, n, m), w)
        b = poly_mul(poly_add(poly_mul(_mono(2), poly_mul(u2, u)), x), _mono(1, 3 * ks, 3 * kt))
        ps, pt = (2 * ks, 3 * ks, 6 * ks + n), (2 * kt, 3 * kt, 6 * kt + m)
    else:
        sa, sb, ta, tb = rng.choice(generic)
        terms_a = 3 + (17 * h) // (POOL_SIZE // 2 - 1)
        terms_b = 3 + (17 * ((7 * h) % (POOL_SIZE // 2))) // (POOL_SIZE // 2 - 1)
        a = poly_mul(_unit(rng, terms_a), _mono(1, sa, ta))
        b = poly_mul(_unit(rng, terms_b), _mono(1, sb, tb))
        ps, pt = (sa, sb, min(3 * sa, 2 * sb)), (ta, tb, min(3 * ta, 2 * tb))
    text = (
        f"# poly_model job {f}\n"
        f"[weierstrass] a = {_render_poly(a)} b = {_render_poly(b)}\n"
        "[collision] s-axis t-axis\n"
    )
    spec = {
        "mode": "weierstrass",
        "branches": [["s-axis", ref.profile_to_json(ps)], ["t-axis", ref.profile_to_json(pt)]],
        "collisions": [["s-axis", "t-axis"]],
        "topology": None,
        "degrees": None,
    }
    return text, spec


# ---------------------------------------------------------------------------
# smith_dense: dense integer matrices with entries in [-9, 9]


def _smith_matrix(rng: random.Random, i: int) -> tuple[list[list[int]], str]:
    n = 4 + (28 * i) // (POOL_SIZE - 1)
    kind = {3: "wide", 7: "tall", 5: "deficient"}.get(i % 10, "square")
    rows, cols = n, n
    if kind == "wide":
        cols += 1 + i % 4
    elif kind == "tall":
        rows += 1 + i % 4
    a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    if kind == "deficient":
        # repeat one or two rows up to sign: rank drops by construction
        for target in rng.sample(range(rows), 1 + (i // 10) % 2):
            source = rng.choice([r for r in range(rows) if r != target])
            sign = rng.choice((1, -1))
            a[target] = [sign * x for x in a[source]]
    return a, kind


# ---------------------------------------------------------------------------


def generate(workload: str, seed: int, outdir: str) -> list[dict]:
    """Write the workload's input files and manifest into outdir (which
    must exist and be empty) and return the manifest's job list."""
    rng = random.Random(f"{workload}:{seed}")
    jobs: list[dict] = []
    if workload == "smith_dense":
        for i in range(POOL_SIZE):
            a, kind = _smith_matrix(rng, i)
            jobs.append({"kind": kind, "rows": a})
    else:
        generic = _generic_exponents() if workload == "poly_model" else None
        for f in range(POOL_SIZE):
            if workload == "branch_net":
                text, spec = _branch_file(rng, f)
            else:
                text, spec = _poly_file(rng, f, generic)
            name = f"job{f:03d}.fib"
            with open(os.path.join(outdir, name), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            jobs.append({"file": name, "spec": spec})
    with open(os.path.join(outdir, MANIFEST), "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"workload": workload, "seed": seed, "jobs": jobs}, fh, sort_keys=True)
    return jobs

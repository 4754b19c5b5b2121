"""Independent reference mathematics for the benchmark's oracles.

Nothing here imports ellfib.  The fibre classification, the blow-up
reduction and the closed forms below are written from the Kodaira/Tate
table, the list of directly resolvable collision pairs and the
local-Sha registry, so an oracle built on them never calls a layer the
benchmark times.

Types are (kind, index) tuples with kind in I, I*, II, III, IV, IV*,
III*, II*; profiles are (va, vb, vdelta) with INF for a coefficient that
vanishes identically.
"""

from __future__ import annotations

from math import gcd

INF = float("inf")

# directly resolvable unordered pairs besides the I + I and I + I* series
_FIXED_ALLOWED = {
    frozenset(("II", "IV")),
    frozenset(("II", "I0*")),
    frozenset(("II", "IV*")),
    frozenset(("IV", "I0*")),
    frozenset(("III", "I0*")),
}


class Inconsistent(Exception):
    """A summed profile that no monomial local model realises."""


class Unresolved(Exception):
    """A collision that needs more blow-ups than the depth limit."""


def type_str(t) -> str:
    kind, n = t
    if kind == "I":
        return f"I{n}"
    if kind == "I*":
        return f"I{n}*"
    return kind


def profile_from_json(p) -> tuple:
    return tuple(INF if v == "inf" else v for v in p)


def profile_to_json(p) -> list:
    return ["inf" if v == INF else v for v in p]


def valid_profile(p) -> bool:
    """(va, vb, vdelta) of a, b and 4a^3 + 27b^2 for monomial a, b: vdelta
    is at least min(3va, 2vb) and equals it unless the two orders tie."""
    va, vb, vd = p
    if va == INF and vb == INF:
        return False
    low = min(3 * va, 2 * vb)
    return vd >= low and (3 * va == 2 * vb or vd == low)


def minimalize(p) -> tuple[tuple, int]:
    """Remove the largest number k of (4, 6, 12) unit twists."""
    va, vb, vd = p
    k = vd // 12
    if va != INF:
        k = min(k, va // 4)
    if vb != INF:
        k = min(k, vb // 6)
    return (va if va == INF else va - 4 * k, vb if vb == INF else vb - 6 * k, vd - 12 * k), k


# Kodaira/Tate table for a minimal profile.  Once vdelta > 0 and the
# model is not multiplicative, both orders are >= 1 and the rows are
# tried from the smallest order upwards: ord(b) = 1 is II, ord(a) = 1 is
# III, ord(b) = 2 is IV, vdelta = 6 is I0*, (2, 3) is the I_n* series,
# then ord(b) = 4 is IV*, ord(a) = 3 is III* and ord(b) = 5 is II*.
def classify(p) -> tuple:
    va, vb, vd = p
    if va >= 4 and vb >= 6:
        raise ValueError(f"profile {p} is not minimal")
    if vd == 0:
        return ("I", 0)
    if va == 0 and vb == 0:
        return ("I", vd)
    if vb == 1:
        return ("II", 0)
    if va == 1:
        return ("III", 0)
    if vb == 2:
        return ("IV", 0)
    if vd == 6:
        return ("I*", 0)
    if va == 2 and vb == 3:
        return ("I*", vd - 6)
    if vb == 4:
        return ("IV*", 0)
    if va == 3:
        return ("III*", 0)
    if vb == 5:
        return ("II*", 0)
    raise ValueError(f"profile {p} is outside the table")


def j_valuation(p):
    va, _, vd = p
    return INF if va == INF else 3 * va - vd


def components(t) -> int:
    kind, n = t
    if kind == "I":
        return max(n, 1)
    if kind == "I*":
        return n + 5
    return {"II": 1, "III": 2, "IV": 3, "IV*": 7, "III*": 8, "II*": 9}[kind]


def multiplicities(t) -> list[int]:
    """Sorted component multiplicities of the fibre."""
    kind, n = t
    if kind == "I":
        return [1] * max(n, 1)
    if kind == "I*":
        return [1] * 4 + [2] * (n + 1)
    return {
        "II": [1],
        "III": [1, 1],
        "IV": [1, 1, 1],
        "IV*": [1, 1, 1, 2, 2, 2, 3],
        "III*": [1, 1, 2, 2, 2, 3, 3, 4],
        "II*": [1, 2, 2, 3, 3, 4, 4, 5, 6],
    }[kind]


def euler_number(t) -> int:
    kind, n = t
    if kind == "I":
        return n
    if kind == "I*":
        return n + 6
    return {"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}[kind]


def discriminant_factors(t) -> tuple[int, ...]:
    """Invariant factors of the discriminant group of the root lattice:
    A_{n-1} for I_n, D_{n+4} for I_n*, E6/E7/E8 and A2/A1 for the rest."""
    kind, n = t
    if kind == "I":
        return (n,) if n > 1 else ()
    if kind == "I*":
        return (4,) if n % 2 else (2, 2)
    return {"II": (), "III": (2,), "IV": (3,), "IV*": (3,), "III*": (2,), "II*": ()}[kind]


def render_group(divisible_rank: int, factors) -> str:
    parts = [f"(Q/Z)^{divisible_rank}"] if divisible_rank else []
    parts += [f"Z/{d}" for d in factors]
    return " + ".join(parts) if parts else "0"


def sha_punctured(t) -> str:
    kind, n = t
    if kind == "I" and n == 0:
        return render_group(2, ())
    if kind == "I":
        return render_group(1, discriminant_factors(t))
    return render_group(0, discriminant_factors(t))


def is_allowed(t1, t2) -> bool:
    for a, b in ((t1, t2), (t2, t1)):
        if a[0] == "I" and a[1] >= 1 and (b[0] == "I*" or (b[0] == "I" and b[1] >= 1)):
            return True
    return frozenset((type_str(t1), type_str(t2))) in _FIXED_ALLOWED


def _pair_of(t1, t2, kind_a, kind_b):
    if t1[0] == kind_a and t2[0] == kind_b:
        return t1, t2
    if t2[0] == kind_a and t1[0] == kind_b:
        return t2, t1
    return None


def registry_sha(t1, t2) -> str:
    """Local Sha of a resolvable collision: Z/2 exactly for I_even + I_n*
    and III + I0*, trivial otherwise."""
    fit = _pair_of(t1, t2, "I", "I*")
    if fit is not None and fit[0][1] % 2 == 0:
        return "Z/2"
    if _pair_of(t1, t2, "III", "I*") is not None:
        return "Z/2"
    return "0"


def verdict(t1, t2) -> tuple[str, str | None]:
    """(verdict, obstruction) of the paper's multiple-fibre table."""
    if _pair_of(t1, t2, "IV", "I*") is not None:
        return "PossiblyLocallyTrivial", None
    if registry_sha(t1, t2) != "0":
        return "PossiblyObstinate", "Z/2"
    return "NoIsolatedMultipleFibre", None


def reduce_collision(left, right, max_depth: int = 64) -> list[dict]:
    """Blow-up tree of two minimal branch profiles, as preorder nodes.

    Each blow-up adds the two profiles, minimalizes the sum and puts the
    exceptional curve against each side in turn (left child first).  A
    crossing stops when a side left the discriminant (dissolved) or the
    pair is directly resolvable (allowed).
    """
    nodes: list[dict] = []

    def expand(l, r, depth, path):
        node = {"path": path or "root", "left": l, "right": r}
        nodes.append(node)
        tl, tr = classify(l), classify(r)
        if l[2] == 0 or r[2] == 0:
            node["status"] = "dissolved"
            return
        if is_allowed(tl, tr):
            node["status"] = "allowed"
            return
        if depth >= max_depth:
            raise Unresolved(f"{type_str(tl)} + {type_str(tr)} deeper than {max_depth}")
        raw = tuple(x + y for x, y in zip(l, r))
        if not valid_profile(raw):
            raise Inconsistent(f"summed profile {raw} of {l} + {r}")
        exc, twists = minimalize(raw)
        node.update(status="blown-up", exceptional=exc, twists=twists)
        expand(l, exc, depth + 1, path + "L")
        expand(r, exc, depth + 1, path + "R")

    expand(left, right, 0, "")
    return nodes


def corank(b2_x: int, rho_x: int, b2_s: int, rho_s: int) -> int:
    return (b2_x - rho_x) - (b2_s - rho_s)


def degree_gcd(degrees) -> int:
    g = 0
    for d in degrees:
        g = gcd(g, abs(d))
    return g


# ---------------------------------------------------------------------------
# exact integer matrices as lists of rows


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def bareiss_det(rows: list[list[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination with row pivoting."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            mi, mik = m[i], m[i][k]
            mk = m[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pivot - mik * mk[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def bareiss_rank(rows: list[list[int]]) -> int:
    """Rank by fraction-free elimination with full pivot search per column."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    rank, prev = 0, 1
    for col in range(nc):
        pivot_row = next((i for i in range(rank, nr) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for i in range(rank + 1, nr):
            mi, mic = m[i], m[i][col]
            mr = m[rank]
            for j in range(col + 1, nc):
                mi[j] = (mi[j] * pivot - mic * mr[j]) // prev
            mi[col] = 0
        prev = pivot
        rank += 1
        if rank == nr:
            break
    return rank

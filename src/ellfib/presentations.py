"""Component presentations of resolved collisions and the local
Tate-Shafarevich computation they feed.

After resolving a collision the central fibre is a configuration of
curves f_1, ..., f_c with multiplicities.  Each of the two branches
contributes divisors sweeping out fibre components along it; a divisor
carries the multiplicity m of the component it sweeps, the degree r of
its normalization over the branch, and the incidence vector saying how
its closure meets the central configuration.  These data assemble a
commuting square of integer matrices

    (Q/Z)^branches  --R-->  (Q/Z)^divisors_total
         |Sigma                  |N
       (Q/Z)^1      --M0-->  (Q/Z)^central

(R block-diagonal with entries m*r, N the incidence columns, M0 the
central multiplicities, Sigma a row of ones), and the local group is the
kernel of the map induced by N between the two cokernels.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from fractions import Fraction

from .errors import PresentationInconsistent, naming_input
from .exact_linalg import DivisibleGroup, IntMatrix, induced_kernel_with_witnesses
from .readers import read_integer
from .weierstrass import KodairaType

# Most central components, and most divisors over all branches, that a
# presentation file may hold, and the largest m, r or incidence entry it
# may hold.  Central multiplicities need no bound of their own: the
# bookkeeping identity ties them to the bounded entries.  The cost of the
# kernel grows faster than cubically on dense data: `sha-local` on a
# dense 64 x 64 one-branch presentation, every m, r and incidence entry
# drawn by random.Random(1) or (2), takes 0.7-1.3 s with entries 1-9 and
# 4.1-5.8 s with entries 1-99 (one core of a shared 2-core machine,
# Python 3.11).  In every presentation miranda_presentation builds, each
# m, r and incidence entry is at most 2.
MAX_PRESENTATION_SIZE = 64
MAX_PRESENTATION_ENTRY = 99

__all__ = [
    "MAX_PRESENTATION_SIZE",
    "MAX_PRESENTATION_ENTRY",
    "DivisorRecord",
    "BranchPresentation",
    "CollisionPresentation",
    "assemble",
    "local_sha_with_witnesses",
    "miranda_presentation",
    "presentation_from_dict",
    "load_presentation_file",
    "load_presentations",
]


@dataclass(frozen=True)
class DivisorRecord:
    """One divisor over a branch: component multiplicity m, normalization
    degree r over the branch, and its incidence with the central fibre."""

    m: int
    r: int
    incidence: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1 or self.r < 1:
            raise PresentationInconsistent(
                f"m and r must be >= 1, got m={self.m}, r={self.r}"
            )
        if not self.incidence or all(x == 0 for x in self.incidence):
            raise PresentationInconsistent("incidence vector must be nonzero")
        if any(x < 0 for x in self.incidence):
            raise PresentationInconsistent("incidence entries must be >= 0")


@dataclass(frozen=True)
class BranchPresentation:
    fibre_type: KodairaType
    divisors: tuple[DivisorRecord, ...]

    def __post_init__(self):
        if not isinstance(self.fibre_type, KodairaType):
            raise PresentationInconsistent(f"fibre type {self.fibre_type!r} is not a KodairaType")
        if not self.divisors:
            raise PresentationInconsistent("branch needs at least one divisor")


@dataclass(frozen=True)
class CollisionPresentation:
    """Resolved-collision data; validates the bookkeeping identity that
    each branch's divisors sweep out the whole central fibre:
    sum_i m_i * r_i * incidence_i = central multiplicities."""

    central_multiplicities: tuple[int, ...]
    branches: tuple[BranchPresentation, ...]

    def __post_init__(self):
        c = len(self.central_multiplicities)
        if c == 0 or any(m < 1 for m in self.central_multiplicities):
            raise PresentationInconsistent(
                "central multiplicities must be a nonempty positive vector"
            )
        if not self.branches:
            raise PresentationInconsistent("presentation needs at least one branch")
        for br in self.branches:
            for dv in br.divisors:
                if len(dv.incidence) != c:
                    raise PresentationInconsistent(
                        f"incidence vector {dv.incidence} has length "
                        f"{len(dv.incidence)}, expected {c}"
                    )
            total = [0] * c
            for dv in br.divisors:
                for i, x in enumerate(dv.incidence):
                    total[i] += dv.m * dv.r * x
            if tuple(total) != self.central_multiplicities:
                raise PresentationInconsistent(
                    f"branch {br.fibre_type}: divisors sweep out {tuple(total)} "
                    f"but the central fibre is {self.central_multiplicities}"
                )


def assemble(p: CollisionPresentation) -> tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    """The four matrices (R, N, M0, Sigma) of the commuting square."""
    c, k = len(p.central_multiplicities), len(p.branches)
    rows = [(bi, dv) for bi, br in enumerate(p.branches) for dv in br.divisors]
    r = IntMatrix.from_rows(
        [[dv.m * dv.r if j == bi else 0 for j in range(k)] for bi, dv in rows], cols=k
    )
    n = IntMatrix(c, len(rows), tuple(dv.incidence[i] for i in range(c) for _, dv in rows))
    return r, n, IntMatrix.column(p.central_multiplicities), IntMatrix(1, k, (1,) * k)


def local_sha_with_witnesses(
    p: CollisionPresentation,
) -> tuple[DivisibleGroup, list[tuple[Fraction, ...]]]:
    """Local Tate-Shafarevich group of the resolved collision, plus one
    generator representative per finite invariant factor, expressed in the
    divisor coordinates of (Q/Z)^divisors."""
    return induced_kernel_with_witnesses(*assemble(p))


def miranda_presentation(left: KodairaType, right: KodairaType) -> CollisionPresentation | None:
    """Miranda's resolution of an I_M1 + I_M2 or I_2k + I*_M collision as
    a presentation, the same in either argument order; None for any other
    pair, or past MAX_PRESENTATION_SIZE.

    I_M1 + I_M2 (built with M1 <= M2): at the node the model is toric,
    uv = s^M1 t^M2, and Miranda's smooth model makes each exceptional
    surface over a branch a P^1-bundle over it, so it meets the central
    cycle c_0 ... c_(M1+M2-1) in one curve: c_1 ... c_(M1-1) for I_M1,
    c_(M1+1) ... for I_M2, the two chains meeting at c_M1.  A branch's
    identity surface cuts out the rest: c_0 (the nodal fibre's strict
    transform) and the other branch's arc up to c_M1.  Every m, r is 1.

    I_2k + I*_M, N = k + M: on the double cover branched along the I*_M
    branch it is I_2k + I_2M, cycle C_0 ... C_(2N-1) as above with
    M1 = 2k, and its model is that one's quotient by -1 on the fibres
    over the deck involution: inversion on the I_2k fibres, so
    C_i -> C_(2k-i), which keeps each branch's divisors.  The chain
    g_j = {C_(k-j), C_(k+j)}, j = 0 ... N, has multiplicity 2; f1, f2
    (f5, f6) come from the fixed points on C_k (C_(k+N)).  In the order f1, f2, g_0 ... g_N, f5, f6,
    the I_2k branch has C_k's surface, f1 + f2 + 2 g_0; each swapped pair
    {C_(k-i), C_(k+i)}, 0 < i < k, on g_i with r = 2; its identity
    surface, 2(g_k + ... + g_N) + f5 + f6.  The I*_M branch is fixed
    pointwise (r = 1; m = 2 on the chain): f1, f2; the I_2M identity
    surface, which swept C_0 ... C_2k, on g_0 ... g_k; each later g_j;
    f5, f6.  Odd M1 against I* is not built: inversion on an odd cycle
    fixes a node, not a component.
    """
    a, b = sorted((left, right), key=lambda t: (t.kind != "I", t.index))
    if not a.is_multiplicative or b.kind not in ("I", "I*") or (b.kind == "I*" and a.index % 2):
        return None
    # the larger of the counts of central components and of divisors,
    # checked before anything of that size is built
    k = a.index // 2
    if (a.index + b.index if b.kind == "I" else k + b.index + 6) > MAX_PRESENTATION_SIZE:
        return None
    # each branch: its type and its divisors as (m, r, {component: incidence})
    if b.kind == "I":
        m1, c = a.index, a.index + b.index
        central = (1,) * c
        branches = (
            (a, [(1, 1, {i: 1}) for i in range(1, m1)]
             + [(1, 1, {i: 1 for i in range(c) if not 0 < i < m1})]),
            (b, [(1, 1, {i: 1}) for i in range(m1 + 1, c)]
             + [(1, 1, {i: 1 for i in range(m1 + 1)})]),
        )
    else:
        n = k + b.index
        c, g, f5, f6 = n + 5, range(2, n + 3), n + 3, n + 4  # g: the chain g_0 ... g_n
        central = (1, 1) + (2,) * (n + 1) + (1, 1)
        branches = (
            (a, [(1, 1, {0: 1, 1: 1, g[0]: 2})] + [(1, 2, {g[i]: 1}) for i in range(1, k)]
             + [(1, 1, {**{j: 2 for j in g[k:]}, f5: 1, f6: 1})]),
            (b, [(1, 1, {0: 1}), (1, 1, {1: 1}), (2, 1, {j: 1 for j in g[: k + 1]})]
             + [(2, 1, {j: 1}) for j in g[k + 1 :]] + [(1, 1, {f5: 1}), (1, 1, {f6: 1})]),
        )
    return CollisionPresentation(central, tuple(
        BranchPresentation(t, tuple(
            DivisorRecord(m, r, tuple(w.get(i, 0) for i in range(c))) for m, r, w in divisors
        ))
        for t, divisors in branches
    ))


@functools.cache
def _shipped() -> tuple[tuple[frozenset[KodairaType], CollisionPresentation], ...]:
    """The shipped (type pair, presentation) entries, built once: I2 + I0*,
    written out by hand in corpus/presentations/i2_i0star.json."""
    pair = (KodairaType("I", 2), KodairaType("I*", 0))
    return ((frozenset(pair), miranda_presentation(*pair)),)


def _json_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise PresentationInconsistent(
            f"{field} must be an integer, not {type(value).__name__}"
        )
    return value


def _json_entry(value, field: str) -> int:
    value = _json_int(value, field)
    if value > MAX_PRESENTATION_ENTRY:
        raise PresentationInconsistent(
            f"{field} must be at most {MAX_PRESENTATION_ENTRY} (MAX_PRESENTATION_ENTRY)"
        )
    return value


def _fibre_type(value, field: str) -> KodairaType:
    """The Kodaira type a JSON string names."""
    if not isinstance(value, str):
        raise PresentationInconsistent(f"{field} must be a string, not {type(value).__name__}")
    try:
        return KodairaType.parse(value)
    except ValueError as exc:
        raise PresentationInconsistent(str(exc)) from exc


def presentation_from_dict(
    data: dict,
) -> tuple[tuple[KodairaType, KodairaType], CollisionPresentation]:
    """Build a presentation from parsed JSON; see the README for the file
    layout.  Returns (type pair, presentation); each branch is of a type
    of the pair, no two of the same pair entry."""
    try:
        pair = tuple(_fibre_type(x, "pair entry") for x in data["pair"])
        central_data, branch_data = data["central_multiplicities"], data["branches"]
        divisor_count = sum(len(br["divisors"]) for br in branch_data)
        if max(len(central_data), divisor_count) > MAX_PRESENTATION_SIZE:
            raise PresentationInconsistent(
                f"presentation has {len(central_data)} central components and "
                f"{divisor_count} divisors; at most {MAX_PRESENTATION_SIZE} of each "
                "are loaded (MAX_PRESENTATION_SIZE)"
            )
        central = tuple(_json_int(x, "central multiplicity") for x in central_data)
        branches = []
        for br in branch_data:
            divisors = tuple(
                DivisorRecord(
                    _json_entry(dv["m"], "m"),
                    _json_entry(dv["r"], "r"),
                    tuple(_json_entry(x, "incidence entry") for x in dv["incidence"]),
                )
                for dv in br["divisors"]
            )
            fibre_type = _fibre_type(br["fibre_type"], "fibre_type")
            branches.append(BranchPresentation(fibre_type, divisors))
    except (KeyError, TypeError, ValueError) as exc:
        raise PresentationInconsistent(f"malformed presentation data: {exc}") from exc
    if len(pair) != 2:
        raise PresentationInconsistent("pair must list exactly two fibre types")
    p = CollisionPresentation(central, tuple(branches))
    types = tuple(br.fibre_type for br in p.branches)
    if any(types.count(t) > pair.count(t) for t in types):
        raise PresentationInconsistent(f"pair {tuple(map(str, pair))} does not match "
                                       f"branch types {tuple(map(str, types))}")
    return pair, p


def load_presentation_file(path) -> tuple[tuple[KodairaType, KodairaType], CollisionPresentation]:
    """Read one presentation file; every fault of its content names the
    file, as naming_input makes it."""
    with naming_input(path):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_int=read_integer)
        if not isinstance(data, dict):
            raise PresentationInconsistent("expected a JSON object")
        return presentation_from_dict(data)


def load_presentations(dirpath=None) -> dict[frozenset[KodairaType], CollisionPresentation]:
    """Presentations keyed by unordered type pair, the key of Miranda's
    list in collisions: the shipped entries, then each *.json file of
    dirpath in name order, a file replacing any entry of its pair.  A new
    dict on each call; the shipped frozen objects are built once per
    process."""
    found = dict(_shipped())
    if dirpath:
        for name in sorted(os.listdir(dirpath)):
            if name.endswith(".json"):
                pair, pres = load_presentation_file(os.path.join(dirpath, name))
                found[frozenset(pair)] = pres
    return found

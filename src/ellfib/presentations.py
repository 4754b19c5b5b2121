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
# dense 64 x 64 one-branch presentation takes about 0.4 s with entries
# 1-9 and 2.3 s with entries 1-99, and an 80 x 80 one with entries 1-9
# takes 2.3 s (one core of a shared 2-core machine, Python 3.11).  The
# shipped I2 + I0* has 6 central components, 7 divisors and entries of
# at most 2.
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


def _fibre_type(text: str) -> str:
    """text's Kodaira type, spelled as str(KodairaType) writes it."""
    try:
        return str(KodairaType.parse(text))
    except ValueError as exc:
        raise PresentationInconsistent(str(exc)) from exc


@dataclass(frozen=True)
class BranchPresentation:
    fibre_type: str
    divisors: tuple[DivisorRecord, ...]

    def __post_init__(self):
        _fibre_type(self.fibre_type)
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

    @property
    def divisor_count(self) -> int:
        return sum(len(br.divisors) for br in self.branches)


def assemble(p: CollisionPresentation) -> tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    """The four matrices (R, N, M0, Sigma) of the commuting square."""
    c = len(p.central_multiplicities)
    total = p.divisor_count
    k = len(p.branches)
    r_rows = [[0] * k for _ in range(total)]
    n_cols: list[tuple[int, ...]] = []
    row = 0
    for bi, br in enumerate(p.branches):
        for dv in br.divisors:
            r_rows[row][bi] = dv.m * dv.r
            n_cols.append(dv.incidence)
            row += 1
    r = IntMatrix.from_rows(r_rows, cols=k)
    n = IntMatrix(c, total, tuple(n_cols[j][i] for i in range(c) for j in range(total)))
    m0 = IntMatrix.column(p.central_multiplicities)
    sigma = IntMatrix(1, k, (1,) * k)
    return r, n, m0, sigma


def local_sha_with_witnesses(
    p: CollisionPresentation,
) -> tuple[DivisibleGroup, list[tuple[Fraction, ...]]]:
    """Local Tate-Shafarevich group of the resolved collision, plus one
    generator representative per finite invariant factor, expressed in the
    divisor coordinates of (Q/Z)^divisors."""
    return induced_kernel_with_witnesses(*assemble(p))


def _e(c: int, *idx: int) -> tuple[int, ...]:
    out = [0] * c
    for i in idx:
        out[i] += 1
    return tuple(out)


@functools.cache
def _shipped() -> tuple[tuple[frozenset[str], CollisionPresentation], ...]:
    """The shipped (type pair, presentation) entries, validated once.

    I2 + I0*: the resolved central fibre has six components with
    multiplicities (1, 1, 2, 2, 1, 1).  The I2 branch sweeps two
    divisors whose closures cut out f1 + f2 + 2 f3 and 2 f4 + f5 + f6;
    the I0* branch sweeps its four outer components into f1, f2, f5, f6
    and the doubled central component into f3 + f4.
    """
    i2_i0star = CollisionPresentation(
        central_multiplicities=(1, 1, 2, 2, 1, 1),
        branches=(
            BranchPresentation(
                "I2",
                (
                    DivisorRecord(1, 1, (1, 1, 2, 0, 0, 0)),
                    DivisorRecord(1, 1, (0, 0, 0, 2, 1, 1)),
                ),
            ),
            BranchPresentation(
                "I0*",
                (
                    DivisorRecord(1, 1, _e(6, 0)),
                    DivisorRecord(1, 1, _e(6, 1)),
                    DivisorRecord(2, 1, _e(6, 2, 3)),
                    DivisorRecord(1, 1, _e(6, 4)),
                    DivisorRecord(1, 1, _e(6, 5)),
                ),
            ),
        ),
    )
    return ((frozenset(("I2", "I0*")), i2_i0star),)


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


def _json_str(value, field: str) -> str:
    if not isinstance(value, str):
        raise PresentationInconsistent(f"{field} must be a string, not {type(value).__name__}")
    return value


def presentation_from_dict(data: dict) -> tuple[tuple[str, str], CollisionPresentation]:
    """Build a presentation from parsed JSON; see the README for the file
    layout.  Returns (type pair, presentation), every type in canonical
    spelling; each branch is of a type of the pair, no two of the same
    pair entry."""
    try:
        pair = tuple(_fibre_type(_json_str(x, "pair entry")) for x in data["pair"])
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
            fibre_type = _fibre_type(_json_str(br["fibre_type"], "fibre_type"))
            branches.append(BranchPresentation(fibre_type, divisors))
    except (KeyError, TypeError, ValueError) as exc:
        raise PresentationInconsistent(f"malformed presentation data: {exc}") from exc
    if len(pair) != 2:
        raise PresentationInconsistent("pair must list exactly two fibre types")
    p = CollisionPresentation(central, tuple(branches))
    types = tuple(br.fibre_type for br in p.branches)
    if any(types.count(t) > pair.count(t) for t in types):
        raise PresentationInconsistent(f"pair {pair} does not match branch types {types}")
    return pair, p


def load_presentation_file(path) -> tuple[tuple[str, str], CollisionPresentation]:
    """Read one presentation file; every fault of its content names the
    file, as naming_input makes it."""
    with naming_input(path):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_int=read_integer)
        if not isinstance(data, dict):
            raise PresentationInconsistent("expected a JSON object")
        return presentation_from_dict(data)


def load_presentations(dirpath=None) -> dict[frozenset[str], CollisionPresentation]:
    """Presentations keyed by unordered type pair: the shipped entries,
    then each *.json file of dirpath in name order, a file replacing any
    entry of its pair.  A new dict on each call; the shipped frozen
    objects are built once per process."""
    found = dict(_shipped())
    if dirpath:
        for name in sorted(os.listdir(dirpath)):
            if name.endswith(".json"):
                pair, pres = load_presentation_file(os.path.join(dirpath, name))
                found[frozenset(pair)] = pres
    return found

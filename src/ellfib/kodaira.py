"""Component lattices of Kodaira fibres and their discriminant groups.

For a reducible fibre the components span a negative semidefinite
lattice whose radical is generated by the full fibre (the multiplicity
vector); the induced pairing on the quotient is the negative of a root
lattice of type A, D or E, and its discriminant group is the finite
invariant attached to the fibre type.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import LengthMismatch
from .exact_linalg import DivisibleGroup, IntMatrix, smith_normal_form
from .weierstrass import KodairaType

__all__ = [
    "FibreLattice",
    "lattice_data",
    "component_count",
    "euler_number",
    "discriminant_group",
    "reduced_pairing",
    "sha_punctured_transverse",
    "fibre_degree_gcd",
]


@dataclass(frozen=True)
class FibreLattice:
    """Intersection data of one fibre: components, multiplicities and the
    Gram matrix of pairwise intersection numbers."""

    fibre_type: KodairaType
    component_count: int
    multiplicities: tuple[int, ...]
    gram: IntMatrix

    def __post_init__(self):
        c = self.component_count
        if c < 1 or len(self.multiplicities) != c:
            raise LengthMismatch("multiplicity vector does not match component count")
        if self.gram.rows != c or self.gram.cols != c:
            raise LengthMismatch("Gram matrix does not match component count")
        for i in range(c):
            for j in range(c):
                if self.gram.at(i, j) != self.gram.at(j, i):
                    raise ValueError("Gram matrix must be symmetric")
        # the full fibre has self-intersection zero against every component
        m = IntMatrix.column(self.multiplicities)
        if (self.gram @ m) != IntMatrix.zero(c, 1):
            raise ValueError(
                f"multiplicity vector is not in the radical for {self.fibre_type}"
            )


def _graph_lattice(multiplicities, weighted_edges) -> tuple[tuple[int, ...], IntMatrix]:
    c = len(multiplicities)
    rows = [[(-2 if i == j else 0) for j in range(c)] for i in range(c)]
    for i, j, w in weighted_edges:
        rows[i][j] += w
        rows[j][i] += w
    return tuple(multiplicities), IntMatrix.from_rows(rows)


def component_count(ft: KodairaType) -> int:
    if ft.kind == "I":
        return max(ft.index, 1)
    if ft.kind == "I*":
        return ft.index + 5
    return {"II": 1, "III": 2, "IV": 3, "IV*": 7, "III*": 8, "II*": 9}[ft.kind]


def euler_number(ft: KodairaType) -> int:
    """Topological Euler number of the fibre; equals vdelta of any
    profile classifying to the type."""
    if ft.kind == "I":
        return ft.index
    if ft.kind == "I*":
        return ft.index + 6
    return {"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}[ft.kind]


def lattice_data(ft: KodairaType) -> FibreLattice:
    """Multiplicities and Gram matrix in a fixed component order.

    Conventions: irreducible fibres (I0, I1, II) get the single class of
    the whole fibre with self-intersection 0.  I_n for n >= 2 is the
    cycle 0-1-...-(n-1)-0, with the two components of I2 (and of III)
    meeting with intersection number 2.  I_n* lists the four outer
    multiplicity-1 components first (two at each end), then the chain of
    multiplicity-2 components.  The IV*, III*, II* trees list the longest
    chain first and append the remaining short arm.
    """
    kind, n = ft.kind, ft.index
    if kind == "I" and n <= 1 or kind == "II":
        mult, gram = (1,), IntMatrix.from_rows([[0]])
    elif kind == "I" and n == 2 or kind == "III":
        mult, gram = _graph_lattice((1, 1), [(0, 1, 2)])
    elif kind == "I":
        mult, gram = _graph_lattice((1,) * n, [(i, (i + 1) % n, 1) for i in range(n)])
    elif kind == "IV":
        mult, gram = _graph_lattice((1, 1, 1), [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    elif kind == "I*":
        chain = list(range(4, 5 + n))
        edges = [(0, chain[0], 1), (1, chain[0], 1), (2, chain[-1], 1), (3, chain[-1], 1)]
        edges += [(chain[i], chain[i + 1], 1) for i in range(n)]
        mult, gram = _graph_lattice((1, 1, 1, 1) + (2,) * (n + 1), edges)
    elif kind == "IV*":
        mult, gram = _graph_lattice(
            (1, 2, 3, 2, 1, 2, 1),
            [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (2, 5, 1), (5, 6, 1)],
        )
    elif kind == "III*":
        edges = [(i, i + 1, 1) for i in range(6)] + [(3, 7, 1)]
        mult, gram = _graph_lattice((1, 2, 3, 4, 3, 2, 1, 2), edges)
    else:  # II*
        edges = [(i, i + 1, 1) for i in range(7)] + [(5, 8, 1)]
        mult, gram = _graph_lattice((1, 2, 3, 4, 5, 6, 4, 2, 3), edges)
    return FibreLattice(ft, len(mult), mult, gram)


def reduced_pairing(ft: KodairaType) -> IntMatrix:
    """Gram matrix of the pairing induced on components modulo the
    radical; nondegenerate (possibly 0 x 0)."""
    gram = lattice_data(ft).gram
    dec = smith_normal_form(gram)
    c, rank = gram.rows, dec.rank
    # columns of V^-1 past the rank span the radical; the first rank
    # columns descend to a basis of the quotient
    comp = [[dec.V_inv.at(i, j) for j in range(rank)] for i in range(c)]
    comp_m = IntMatrix.from_rows(comp, cols=rank)
    return comp_m.transpose() @ gram @ comp_m


def discriminant_group(ft: KodairaType) -> DivisibleGroup:
    """Discriminant group of the component lattice modulo its radical."""
    pairing = reduced_pairing(ft)
    dec = smith_normal_form(pairing)
    return DivisibleGroup(0, dec.invariant_factors())


def sha_punctured_transverse(ft: KodairaType) -> DivisibleGroup:
    """Torsors of the generic fibre trivial away from a transverse smooth
    curve through the point, for a strictly local base.

    Smooth fibre: (Q/Z)^2.  I_m, m >= 1: one divisible copy of Q/Z plus
    the discriminant group.  Additive types: the discriminant group
    alone.
    """
    if ft.is_smooth:
        return DivisibleGroup(2)
    d = discriminant_group(ft)
    if ft.is_multiplicative:
        return DivisibleGroup(1, d.invariant_factors)
    return d


def fibre_degree_gcd(multiplicities, degrees) -> int:
    """gcd of m_i * deg_i over the components of one fibre: the integer
    that kills the local Tate-Shafarevich kernel when a horizontal
    divisor meets the components with the given degrees."""
    mult = list(multiplicities)
    deg = list(degrees)
    if not mult or len(mult) != len(deg):
        raise LengthMismatch(
            f"got {len(mult)} multiplicities and {len(deg)} degrees"
        )
    if any(m < 1 for m in mult):
        raise ValueError("multiplicities must be >= 1")
    if any(d < 0 for d in deg):
        raise ValueError("degrees must be >= 0")
    g = 0
    for m, d in zip(mult, deg):
        g = gcd(g, m * d)
    return g

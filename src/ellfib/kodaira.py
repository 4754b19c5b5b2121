"""Component lattices of Kodaira fibres and their discriminant groups.

For a reducible fibre the components span a negative semidefinite
lattice whose radical is generated by the full fibre (the multiplicity
vector); the induced pairing on the quotient is the negative of a root
lattice of type A, D or E, and its discriminant group is the finite
invariant attached to the fibre type.

The per-type data a report needs (component count, multiplicities,
discriminant group) are closed forms read off the type: I_n is A_{n-1}
with group Z/n, I_n* is D_{n+4} with group Z/4 (n odd) or (Z/2)^2
(n even), IV and IV* give Z/3, III and III* give Z/2, II and II* give 0.
None of them builds a Gram matrix.  `lattice_data` builds the full
intersection matrix (up to MAX_LATTICE_COMPONENTS components), and
`reduced_pairing` plus a Smith form of it is the independent oracle the
tests check the closed forms against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LatticeTooLarge
from .exact_linalg import DivisibleGroup, IntMatrix, smith_normal_form
from .weierstrass import KodairaType

__all__ = [
    "MAX_LATTICE_COMPONENTS",
    "FibreLattice",
    "lattice_data",
    "component_count",
    "multiplicities",
    "euler_number",
    "discriminant_group",
    "reduced_pairing",
    "sha_punctured_transverse",
]


@dataclass(frozen=True)
class FibreLattice:
    """Intersection data of one fibre: components, multiplicities and the
    Gram matrix of pairwise intersection numbers."""

    fibre_type: KodairaType
    component_count: int
    multiplicities: tuple[int, ...]
    gram: IntMatrix


# Fixed additive types: multiplicities in lattice_data's component order,
# invariant factors of the discriminant group, and the dual graph as
# edges (i, j, w), w the intersection number of components i and j.
_FIXED_TYPES = {
    "II": ((1,), (), ()),
    "III": ((1, 1), (2,), ((0, 1, 2),)),
    "IV": ((1, 1, 1), (3,), ((0, 1, 1), (0, 2, 1), (1, 2, 1))),
    "IV*": (
        (1, 2, 3, 2, 1, 2, 1), (3,),
        ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (2, 5, 1), (5, 6, 1)),
    ),
    "III*": (
        (1, 2, 3, 4, 3, 2, 1, 2), (2,),
        ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1), (3, 7, 1)),
    ),
    "II*": (
        (1, 2, 3, 4, 5, 6, 4, 2, 3), (),
        ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1), (6, 7, 1),
         (5, 8, 1)),
    ),
}

# Most components lattice_data builds a Gram matrix for: the matrix is
# quadratic in the component count, so an I_n of huge index would never
# return.
MAX_LATTICE_COMPONENTS = 1000


def component_count(ft: KodairaType) -> int:
    if ft.kind == "I":
        return max(ft.index, 1)
    if ft.kind == "I*":
        return ft.index + 5
    return len(_FIXED_TYPES[ft.kind][0])


def multiplicities(ft: KodairaType) -> tuple[int, ...]:
    """Multiplicity of each component, in lattice_data's order."""
    if ft.kind == "I":
        return (1,) * max(ft.index, 1)
    if ft.kind == "I*":
        return (1, 1, 1, 1) + (2,) * (ft.index + 1)
    return _FIXED_TYPES[ft.kind][0]


def euler_number(ft: KodairaType) -> int:
    """Topological Euler number of the fibre; equals vdelta of any
    profile classifying to the type."""
    if ft.kind == "I":
        return ft.index
    return component_count(ft) + 1


def lattice_data(ft: KodairaType) -> FibreLattice:
    """Multiplicities and Gram matrix in a fixed component order.

    Conventions: irreducible fibres (I0, I1, II) get the single class of
    the whole fibre with self-intersection 0.  A reducible fibre's Gram
    matrix is -2 I plus the edges of its dual graph.  I_n for n >= 2 is the
    cycle 0-1-...-(n-1)-0, with the two components of I2 (and of III)
    meeting with intersection number 2.  I_n* lists the four outer
    multiplicity-1 components first (two at each end), then the chain of
    multiplicity-2 components.  The IV*, III*, II* trees list the longest
    chain first and append the remaining short arm.

    Raises LatticeTooLarge above MAX_LATTICE_COMPONENTS components.
    """
    c = component_count(ft)
    if c > MAX_LATTICE_COMPONENTS:
        raise LatticeTooLarge(
            f"{ft} has {c} components; lattice data is built for at most "
            f"{MAX_LATTICE_COMPONENTS} (MAX_LATTICE_COMPONENTS)"
        )
    if c == 1:  # the whole fibre alone, of self-intersection 0
        return FibreLattice(ft, 1, (1,), IntMatrix(1, 1, (0,)))
    n = ft.index
    if ft.kind == "I":  # the cycle; for I2 its two edges both join 0 and 1
        edges = [(i, (i + 1) % n, 1) for i in range(n)]
    elif ft.kind == "I*":
        edges = [(0, 4, 1), (1, 4, 1), (2, n + 4, 1), (3, n + 4, 1)]
        edges += [(i, i + 1, 1) for i in range(4, n + 4)]
    else:
        edges = _FIXED_TYPES[ft.kind][2]
    gram = [0] * (c * c)
    gram[:: c + 1] = [-2] * c
    for i, j, w in edges:
        gram[i * c + j] += w
        gram[j * c + i] += w
    return FibreLattice(ft, c, multiplicities(ft), IntMatrix(c, c, tuple(gram)))


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
    """Discriminant group of the component lattice modulo its radical,
    read off the root-lattice type (see the module docstring)."""
    if ft.kind == "I":
        return DivisibleGroup.cyclic(ft.index)
    if ft.kind == "I*":
        return DivisibleGroup(0, (4,) if ft.index % 2 else (2, 2))
    return DivisibleGroup(0, _FIXED_TYPES[ft.kind][1])


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


"""Collisions of discriminant branches and their resolution by blowing
up the base.

A collision is a point where two smooth discriminant branches cross
normally.  The engine works in a monomial local model: a and b are
monomials in local coordinates times units, so the valuation of each of
a, b, Delta along the exceptional curve of a blow-up is the sum of its
valuations along the two branches.  Sums that cannot satisfy the
discriminant relation do not come from such a model and are rejected as
ProfileInconsistent.

Blowing up repeatedly drives every collision to one of the seven
resolvable patterns or dissolves it entirely, within 5 blow-ups
(miranda_reduce proves the bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .errors import (
    AllZero,
    InvalidCollision,
    InvalidProfile,
    NegativeCorank,
    ProfileInconsistent,
)
from .exact_linalg import DivisibleGroup
from .readers import INFINITY
from .weierstrass import (
    KodairaType,
    ValuationProfile,
    classify,
    minimalize,
)

__all__ = [
    "BranchGerm",
    "CollisionPoint",
    "BlowupNode",
    "BlowupTree",
    "miranda_entry",
    "blow_up",
    "miranda_reduce",
    "corank",
    "delta_eta_gcd",
]

ALLOWED = "allowed"
DISSOLVED = "dissolved"
BLOWN_UP = "blown-up"

NO_MULTIPLE_FIBRE = "NoIsolatedMultipleFibre"
POSSIBLY_OBSTINATE = "PossiblyObstinate"
POSSIBLY_LOCALLY_TRIVIAL = "PossiblyLocallyTrivial"

_NO_SHA = DivisibleGroup(0)
_Z2 = DivisibleGroup.cyclic(2)

# The resolvable pairs of fixed types (Miranda's list) with the two facts
# attached to each: the local Tate-Shafarevich group and the kind of
# multiple-fibre verdict.  miranda_entry adds the I+I and I+I* families.
_FIXED_PAIRS = {
    frozenset(map(KodairaType.parse, pair)): facts
    for pair, facts in (
        (("II", "IV"), (_NO_SHA, NO_MULTIPLE_FIBRE)),
        (("II", "I0*"), (_NO_SHA, NO_MULTIPLE_FIBRE)),
        (("II", "IV*"), (_NO_SHA, NO_MULTIPLE_FIBRE)),
        (("IV", "I0*"), (_NO_SHA, POSSIBLY_LOCALLY_TRIVIAL)),
        (("III", "I0*"), (_Z2, POSSIBLY_OBSTINATE)),
    )
}


@dataclass(frozen=True)
class BranchGerm:
    """One smooth discriminant branch through a point, carrying a minimal
    valuation profile and the fibre type it classifies to."""

    name: str
    profile: ValuationProfile
    fibre_type: KodairaType = field(init=False)

    def __post_init__(self):
        # classify rejects non-minimal profiles, which is exactly the
        # minimality contract for a germ
        object.__setattr__(self, "fibre_type", classify(self.profile))


@dataclass(frozen=True)
class CollisionPoint:
    """A normal crossing of two discriminant branches; both sides must
    actually lie in the discriminant (vdelta >= 1)."""

    left: BranchGerm
    right: BranchGerm

    def __post_init__(self):
        for side, germ in (("left", self.left), ("right", self.right)):
            if germ.profile.vdelta < 1:
                raise InvalidCollision(
                    f"{side} branch {germ.name!r} has vdelta = 0 and is not "
                    "part of the discriminant"
                )


def miranda_entry(
    left: KodairaType, right: KodairaType
) -> tuple[DivisibleGroup, str, DivisibleGroup | None] | None:
    """(local Sha, verdict kind, obstruction) of the unordered pair when it
    is on Miranda's list (I+I, I+I*, II+IV, II+I0*, II+IV*, IV+I0*,
    III+I0*), else None.  The local Sha is that of a small neighbourhood
    of the resolved collision; the verdict says whether a torsor can
    acquire an isolated multiple fibre over it, and an obstinate torsor
    (nontrivial even locally) carries the local Sha as its obstruction."""
    for a, b in ((left, right), (right, left)):
        if a.is_multiplicative and b.is_multiplicative:
            sha, kind = _NO_SHA, NO_MULTIPLE_FIBRE
            break
        if a.is_multiplicative and b.kind == "I*":
            # I_M1 + I*_M2 carries an obstinate Z/2 exactly when M1 is even
            even = a.index % 2 == 0
            sha, kind = (_Z2, POSSIBLY_OBSTINATE) if even else (_NO_SHA, NO_MULTIPLE_FIBRE)
            break
    else:
        facts = _FIXED_PAIRS.get(frozenset((left, right)))
        if facts is None:
            return None
        sha, kind = facts
    return sha, kind, sha if kind == POSSIBLY_OBSTINATE else None


def blow_up(c: CollisionPoint) -> tuple[ValuationProfile, int]:
    """Blow up the collision point once: the minimal profile of the
    exceptional curve and the number of twists removed, as minimalize
    returns them.

    The exceptional curve meets the strict transforms of both branches;
    its raw profile is the componentwise sum of the branch profiles.
    Each original branch now crosses the exceptional curve at a separate
    point, unless the exceptional fibre is smooth (vdelta = 0) and no
    collision remains.
    """
    l, r = c.left.profile, c.right.profile
    # an infinite side absorbs the other: adding an int past float range
    # to the float INFINITY would raise OverflowError
    va = INFINITY if INFINITY in (l.va, r.va) else l.va + r.va
    vb = INFINITY if INFINITY in (l.vb, r.vb) else l.vb + r.vb
    vd = l.vdelta + r.vdelta
    try:
        raw = ValuationProfile(va, vb, vd)
    except InvalidProfile as exc:
        raise ProfileInconsistent(
            f"summed profile ({va}, {vb}, {vd}) of {c.left.name!r} + "
            f"{c.right.name!r} admits no monomial model: {exc}"
        ) from exc
    return minimalize(raw)


@dataclass(frozen=True)
class BlowupNode:
    """One crossing in the resolution tree.  status is "allowed"
    (resolvable leaf), "dissolved" (one side left the discriminant), or
    "blown-up" (internal node with two children); len(path) is its depth."""

    left: BranchGerm
    right: BranchGerm
    path: str
    status: str
    exceptional: BranchGerm | None = None
    twist_count: int = 0
    children: tuple["BlowupNode", "BlowupNode"] | None = None

    def type_pair(self) -> tuple[KodairaType, KodairaType]:
        return (self.left.fibre_type, self.right.fibre_type)


@dataclass(frozen=True)
class BlowupTree:
    root: BlowupNode

    def leaves(self) -> list[BlowupNode]:
        """Leaves in left-to-right order."""
        out: list[BlowupNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.children is None:
                out.append(node)
            else:
                stack.extend(reversed(node.children))
        return out

    def allowed_leaves(self) -> list[BlowupNode]:
        return [n for n in self.leaves() if n.status == ALLOWED]

    def height(self) -> int:
        return max(len(n.path) for n in self.leaves())


def _expand(left: BranchGerm, right: BranchGerm, path: str) -> BlowupNode:
    if left.profile.vdelta == 0 or right.profile.vdelta == 0:
        return BlowupNode(left, right, path, DISSOLVED)
    if miranda_entry(left.fibre_type, right.fibre_type) is not None:
        return BlowupNode(left, right, path, ALLOWED)
    minimal, twists = blow_up(CollisionPoint(left, right))
    # short positional name: the tree already records what was blown up
    exc = BranchGerm("E" if not path else f"E:{path}", minimal)
    kids = (
        _expand(left, exc, path + "L"),
        _expand(right, exc, path + "R"),
    )
    return BlowupNode(left, right, path, BLOWN_UP, exc, twists, kids)


def miranda_reduce(collisions) -> list[BlowupTree]:
    """Resolve each collision by repeated blow-ups until every remaining
    crossing is allowed or dissolved.  Children are explored left first.

    Every tree has height at most 5 and at most 23 nodes, for this
    reason.  A minimal profile (va, vb, vdelta) with vdelta >= 1 has
    exactly one of four shapes:

      M  (0, 0, n), type I_n;
      S  (2, 3, 6 + n), type I_n*;
      A  3 va < 2 vb, so vdelta = 3 va and va is 1, 2 or 3 (III, I0*,
         III*; va >= 4 would force vb >= 7, a twist).  Its residue is va;
      B  2 vb < 3 va, so vdelta = 2 vb and vb is 1 to 5 (II, IV, I0*,
         IV*, II*; vb >= 6 would force va >= 5).  Its residue is vb.

    The exceptional curve of a blow-up carries the sum of the two
    profiles, and blow_up minimalizes it:

      A + A  The sum keeps 3 va < 2 vb, so it has vdelta = 3 va, and
             minimalize removes va // 4 twists (vdelta // 12 = va // 4
             <= vb // 6).  The exceptional's residue is (x + y) mod 4
             for parents of residues x and y; residue 0 is I0, where
             both children dissolve.
      B + B  The same, mod 6.
      A + B  For (va, vb, 3 va) and (va', vb', 2 vb'), the summed
             vdelta = 3 va + 2 vb' lies below both 3 (va + va') and
             2 (vb + vb'): ProfileInconsistent, unless the pair is III + I0*, II + I0* or IV + I0* (the
             I0* of the other shape), which is on Miranda's list.
      M or S with n >= 1, against A or B: the sum's vdelta is n more
             than its shape allows: ProfileInconsistent, unless the
             pair is I_n + I0*, which is on Miranda's list.
      M + M, M + S  On Miranda's list.
      S + S  One twist leaves I_(n+m).  Both children are I + I*, on
             the list, or dissolve when n = m = 0.

    The germ (2, 3, 6), type I0*, sums like an A germ of residue 2 and
    like a B germ of residue 3.  So every other tree, of A + A, B + B
    or (2, 3, 6) against A or B, is a recursion on a pair of residues
    (x, y) mod m = 4 (shape A) or 6 (shape B).  A node (x, y) is
    dissolved when x or y is 0, and allowed when {x, y} is on Miranda's
    list: {1, 2} mod 4 (III + I0*), or {1, 2}, {1, 3}, {1, 4}, {2, 3}
    mod 6 (II + IV, II + I0*, II + IV*, IV + I0*).  Otherwise it is
    blown up, with e = (x + y) mod m and children (x, e) and (y, e).
    The recursion ends on each of the 9 + 25 ordered residue pairs.
    Its highest and largest trees are III* + III* (height 3, 11 nodes)
    and II* + II* (height 5, 23 nodes).  tests/test_collisions.py checks
    every pair of shape classes against it."""
    return [BlowupTree(_expand(c.left, c.right, "")) for c in collisions]


def corank(b2_X: int, rho_X: int, b2_S: int, rho_S: int) -> int:
    """Corank of the Tate-Shafarevich group of the fibration:
    (b2 - rho of the total space) minus (b2 - rho of the base)."""
    for name, v in (("b2_X", b2_X), ("rho_X", rho_X), ("b2_S", b2_S), ("rho_S", rho_S)):
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")
    value = (b2_X - rho_X) - (b2_S - rho_S)
    if value < 0:
        raise NegativeCorank(
            f"(b2_X - rho_X) - (b2_S - rho_S) = {value} is negative; "
            "the inputs are not Betti/Picard numbers of an elliptic fibration"
        )
    return value


def delta_eta_gcd(fibre_degrees) -> int:
    """gcd of the absolute degrees of a multisection against the fibre;
    the generic Tate-Shafarevich obstruction is killed by this integer."""
    degs = tuple(fibre_degrees)
    if not any(degs):
        raise AllZero("need at least one nonzero fibre degree")
    return gcd(*degs)

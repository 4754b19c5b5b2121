"""Tests for collision points, single blow-ups, the full reduction to
resolvable or dissolved crossings, and the closed-form verdict table."""

import hashlib
import itertools

import pytest

from ellfib import collisions, weierstrass
from ellfib.collisions import (
    ALLOWED,
    BLOWN_UP,
    DISSOLVED,
    BranchGerm,
    CollisionPoint,
    NO_MULTIPLE_FIBRE,
    POSSIBLY_LOCALLY_TRIVIAL,
    POSSIBLY_OBSTINATE,
    blow_up,
    corank,
    delta_eta_gcd,
    miranda_entry,
    miranda_reduce,
)
from ellfib.errors import (
    AllZero,
    DepthExceeded,
    FibrationError,
    InvalidCollision,
    NegativeCorank,
    ProfileInconsistent,
)
from ellfib.exact_linalg import DivisibleGroup
from ellfib.readers import INFINITY
from ellfib.weierstrass import KodairaType, ValuationProfile

from support import canonical_profile, summed_profile_is_consistent, types_with_index_up_to


def _germ(type_text: str, name: str = "") -> BranchGerm:
    ft = KodairaType.parse(type_text)
    return BranchGerm(name or type_text, canonical_profile(ft))


def _point(left: str, right: str) -> CollisionPoint:
    return CollisionPoint(_germ(left, "L"), _germ(right, "R"))


# ---------------------------------------------------------------------------
# germs and collision points


def test_branch_germ_classifies_its_profile():
    germ = BranchGerm("C", ValuationProfile(0, 0, 7))
    assert str(germ.fibre_type) == "I7"


def test_collision_point_needs_degenerate_branches():
    with pytest.raises(InvalidCollision):
        _point("I0", "I1")
    with pytest.raises(InvalidCollision):
        _point("I3", "I0")


# ---------------------------------------------------------------------------
# the allowed list


def test_miranda_allowed_patterns():
    T = KodairaType.parse
    allowed = [
        ("I1", "I1"), ("I3", "I5"), ("I2", "I0*"), ("I1", "I4*"),
        ("II", "IV"), ("II", "I0*"), ("II", "IV*"),
        ("IV", "I0*"), ("III", "I0*"),
    ]
    not_allowed = [
        ("I0", "I1"), ("I0", "I0*"),
        ("II", "II"), ("II", "III"), ("II", "I1*"), ("II", "II*"), ("II", "III*"),
        ("III", "III"), ("III", "IV"), ("III", "I1*"), ("III", "IV*"),
        ("IV", "IV"), ("IV", "I2*"), ("IV", "IV*"),
        ("I0*", "I0*"), ("I0*", "IV*"), ("IV*", "IV*"), ("II*", "I2"),
        ("III*", "I1"), ("I1", "II"), ("I2", "IV"),
    ]
    for a, b in allowed:
        assert miranda_entry(T(a), T(b)) is not None, f"{a}+{b} should be allowed"
        assert miranda_entry(T(b), T(a)) is not None, f"{b}+{a} should be allowed"
    for a, b in not_allowed:
        assert miranda_entry(T(a), T(b)) is None, f"{a}+{b} should not be allowed"
        assert miranda_entry(T(b), T(a)) is None, f"{b}+{a} should not be allowed"


# ---------------------------------------------------------------------------
# single blow-ups


def _exceptional_type(point: CollisionPoint) -> str:
    minimal, _ = blow_up(point)
    return str(weierstrass.classify(minimal))


def test_blow_up_multiplicative_pairs_add_indices():
    point = _point("I1", "I1")
    minimal, twists = blow_up(point)
    assert minimal == ValuationProfile(0, 0, 2)
    assert twists == 0
    # each branch now crosses the exceptional curve: I1 + I2, allowed
    child = CollisionPoint(point.left, BranchGerm("E", minimal))
    assert [str(g.fibre_type) for g in (child.left, child.right)] == ["I1", "I2"]
    assert miranda_entry(child.left.fibre_type, child.right.fibre_type) is not None
    assert _exceptional_type(_point("I2", "I3")) == "I5"


def test_blow_up_additive_examples():
    # II + II: summed profile (2, 2, 4) is type IV, both children allowed
    point = _point("II", "II")
    minimal, twists = blow_up(point)
    exceptional = weierstrass.classify(minimal)
    assert str(exceptional) == "IV"
    assert twists == 0
    for germ in (point.left, point.right):
        assert miranda_entry(germ.fibre_type, exceptional) is not None
    # I1 + I0*: summed profile (2, 3, 7) is type I1*
    assert _exceptional_type(_point("I1", "I0*")) == "I1*"


def test_blow_up_absorbs_twists_and_dissolves():
    # I0* + I0*: (4, 6, 12) is a full twist of (0, 0, 0); the exceptional
    # fibre is smooth and the collision dissolves
    minimal, twists = blow_up(_point("I0*", "I0*"))
    assert minimal == ValuationProfile(0, 0, 0)
    assert twists == 1
    assert weierstrass.classify(minimal).is_smooth


def test_blow_up_infinite_side_absorbs_a_long_valuation():
    # a valuation past float range added to INFINITY stays INFINITY
    # instead of raising OverflowError: (10^400, 2, 4) is IV and
    # (inf, 1, 2) is II, summing to (inf, 3, 6), type I0*
    huge = 10**400
    point = CollisionPoint(
        BranchGerm("L", ValuationProfile(huge, 2, 4)),
        BranchGerm("R", ValuationProfile(INFINITY, 1, 2)),
    )
    assert blow_up(point) == (ValuationProfile(INFINITY, 3, 6), 0)


def test_blow_up_rejects_inconsistent_sums():
    # II + III sums to (2, 3, 5) with vdelta below min(3 va, 2 vb) = 6
    with pytest.raises(ProfileInconsistent):
        blow_up(_point("II", "III"))
    # I1 + II sums to (1, 1, 3) where 3 va != 2 vb forces vdelta = 2
    with pytest.raises(ProfileInconsistent):
        blow_up(_point("I1", "II"))


def test_blow_up_is_symmetric():
    for a, b in (("II", "II*"), ("I2", "I0*"), ("II", "IV"), ("I1", "I2")):
        assert blow_up(_point(a, b)) == blow_up(_point(b, a))


# ---------------------------------------------------------------------------
# full reduction


def test_reduce_allowed_pair_is_a_single_leaf():
    tree = miranda_reduce([_point("I1", "I1")])[0]
    assert tree.root.status == ALLOWED
    assert tree.root.children is None
    assert tree.height() == 0
    assert tree.allowed_leaves() == [tree.root]


def test_reduce_one_blow_up():
    tree = miranda_reduce([_point("II", "II")])[0]
    root = tree.root
    assert root.status == BLOWN_UP
    assert str(root.exceptional.fibre_type) == "IV"
    assert len(root.children) == 2
    assert [n.status for n in tree.leaves()] == [ALLOWED, ALLOWED]
    assert all(len(n.path) == 1 for n in tree.leaves())
    assert tree.height() == 1
    # left-to-right order: the left child keeps the left branch
    assert tree.leaves()[0].left.name == "L"
    assert tree.leaves()[1].left.name == "R"


def test_reduce_deep_chain():
    # II* + II* resolves through IV*, I0*, IV, II and finally dissolves
    tree = miranda_reduce([_point("II*", "II*")])[0]
    assert tree.height() == 5
    statuses = {n.status for n in tree.leaves()}
    assert statuses == {ALLOWED, DISSOLVED}
    # every leaf is either resolvable or has left the discriminant
    for leaf in tree.leaves():
        if leaf.status == ALLOWED:
            assert miranda_entry(*leaf.type_pair()) is not None
        else:
            assert leaf.left.profile.vdelta == 0 or leaf.right.profile.vdelta == 0


def test_reduce_depth_bound(monkeypatch):
    monkeypatch.setattr(collisions, "MAX_BLOWUP_DEPTH", 3)
    with pytest.raises(DepthExceeded, match="within depth 3$"):
        miranda_reduce([_point("II*", "II*")])
    # the bound is about depth, not node count
    monkeypatch.setattr(collisions, "MAX_BLOWUP_DEPTH", 5)
    miranda_reduce([_point("II*", "II*")])


def test_reduce_exceptional_names_follow_paths():
    tree = miranda_reduce([_point("II*", "II*")])[0]
    assert tree.root.exceptional.name == "E"
    left, right = tree.root.children
    assert left.status == BLOWN_UP and left.exceptional.name == "E:L"
    assert right.status == BLOWN_UP and right.exceptional.name == "E:R"
    assert left.path == "L" and right.path == "R"


def test_reduce_classifies_each_fibre_once(monkeypatch):
    # 4 5 10 + 4 5 10 blows up 11 times: the two branches and each
    # exceptional fibre are classified once, under its path name
    calls = {"classify": 0, "blow_up": 0}
    for name in calls:
        def counting(*args, name=name, real=getattr(collisions, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(collisions, name, counting)
    profile = ValuationProfile(4, 5, 10)
    tree = miranda_reduce([CollisionPoint(BranchGerm("L", profile), BranchGerm("R", profile))])[0]
    assert calls == {"classify": 13, "blow_up": 11}
    # each exceptional germ carries the type of its own profile
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.children is not None:
            assert node.exceptional.fibre_type == weierstrass.classify(node.exceptional.profile)
            stack.extend(node.children)


def test_reduce_sweep_small_indices():
    # every consistent pair of canonical profiles with indices <= 3
    # terminates quickly with only allowed or dissolved leaves; the
    # inconsistent sums raise immediately
    types = types_with_index_up_to(3)
    consistent = inconsistent = 0
    for i, a in enumerate(types):
        for b in types[i:]:
            pa, pb = canonical_profile(a), canonical_profile(b)
            point = CollisionPoint(BranchGerm("A", pa), BranchGerm("B", pb))
            if miranda_entry(a, b) is not None or summed_profile_is_consistent(pa, pb):
                tree = miranda_reduce([point])[0]
                assert tree.height() <= 5
                assert all(n.status in (ALLOWED, DISSOLVED) for n in tree.leaves())
                consistent += 1
            else:
                with pytest.raises(ProfileInconsistent):
                    miranda_reduce([point])
                inconsistent += 1
    assert consistent > 20 and inconsistent > 10


# ---------------------------------------------------------------------------
# verdicts and the closed-form local table


def test_expected_local_sha_table():
    T = KodairaType.parse
    z2 = DivisibleGroup.cyclic(2)
    assert miranda_entry(T("I2"), T("I0*"))[0] == z2
    assert miranda_entry(T("I3*"), T("I4"))[0] == z2
    assert miranda_entry(T("III"), T("I0*"))[0] == z2
    assert miranda_entry(T("I1"), T("I0*"))[0] == DivisibleGroup(0)
    assert miranda_entry(T("I1"), T("I2"))[0] == DivisibleGroup(0)
    assert miranda_entry(T("IV"), T("I0*"))[0] == DivisibleGroup(0)
    assert miranda_entry(T("II"), T("IV*"))[0] == DivisibleGroup(0)
    assert miranda_entry(T("II"), T("II")) is None


def test_multiple_fibre_verdicts():
    T = KodairaType.parse
    z2 = DivisibleGroup.cyclic(2)
    # an obstinate verdict carries the local Sha as its obstruction
    assert miranda_entry(T("I2"), T("I0*")) == (z2, POSSIBLY_OBSTINATE, z2)
    assert miranda_entry(T("I0*"), T("I6"))[1] == POSSIBLY_OBSTINATE
    assert miranda_entry(T("III"), T("I0*"))[1] == POSSIBLY_OBSTINATE
    assert miranda_entry(T("IV"), T("I0*")) == (DivisibleGroup(0), POSSIBLY_LOCALLY_TRIVIAL, None)
    for pair in (("I1", "I0*"), ("I3", "I2*"), ("I1", "I1"), ("I2", "I2"),
                 ("II", "IV"), ("II", "I0*"), ("II", "IV*")):
        _, kind, obstruction = miranda_entry(T(pair[0]), T(pair[1]))
        assert kind == NO_MULTIPLE_FIBRE
        assert obstruction is None
    assert miranda_entry(T("IV"), T("IV")) is None


# ---------------------------------------------------------------------------
# global formulas


def test_corank():
    assert corank(23, 20, 2, 1) == 2
    assert corank(10, 10, 3, 3) == 0
    with pytest.raises(NegativeCorank):
        corank(5, 5, 3, 1)
    with pytest.raises(ValueError):
        corank(-1, 0, 0, 0)
    with pytest.raises(ValueError):
        corank(5, 5, 3, "1")


def test_delta_eta_gcd():
    assert delta_eta_gcd((3, 0)) == 3
    assert delta_eta_gcd((4, 6)) == 2
    assert delta_eta_gcd((-4, 6)) == 2
    assert delta_eta_gcd((5,)) == 5
    assert delta_eta_gcd((1, 2, 3)) == 1
    with pytest.raises(AllZero):
        delta_eta_gcd((0, 0))
    with pytest.raises(AllZero):
        delta_eta_gcd(())


# ---------------------------------------------------------------------------
# pinned behaviour of the collision policy and of the reduction depth


_POLICY_TYPES = (
    [KodairaType("I", n) for n in range(9)]
    + [KodairaType("I*", n) for n in range(9)]
    + [KodairaType(k) for k in ("II", "III", "IV", "IV*", "III*", "II*")]
)


def test_collision_policy_fingerprint():
    # one line per ordered pair: whether it is on Miranda's list, its
    # local Sha and its verdict, spelled as three separate readers printed
    # them when each had its own case list and an off-list pair raised an
    # error of the class named below; the digest was taken from them
    digest = hashlib.sha256()
    allowed = 0
    for a in _POLICY_TYPES:
        for b in _POLICY_TYPES:
            entry = miranda_entry(a, b)
            if entry is None:
                parts = [str(a), str(b), "False"] + ["NotMirandaAllowed"] * 2
            else:
                sha, kind, obstruction = entry
                verdict = kind if obstruction is None else f"{kind}({obstruction})"
                parts = [str(a), str(b), "True", str(sha), verdict]
                allowed += 1
            digest.update((" ".join(parts) + "\n").encode())
    assert len(_POLICY_TYPES) ** 2 == 576 and allowed == 218
    assert digest.hexdigest() == (
        "4b8c173d21a0d3e6fa6ce04cebaec95c23a026d2b1268e4879e79310226172f1"
    )


def test_reduction_depth_census():
    # every minimal degenerate germ with va, vb in {0..7, inf} and
    # vdelta < 40, collided with every other in both orders: each pair is
    # either inconsistent or resolves within depth 5, far below the bound
    values = list(range(8)) + [INFINITY]
    germs = []
    for va, vb, vd in itertools.product(values, values, range(1, 40)):
        try:
            germs.append(BranchGerm("g", ValuationProfile(va, vb, vd)))
        except FibrationError:
            continue
    assert len(germs) == 121
    inconsistent = resolved = height = 0
    for g, h in itertools.product(germs, germs):
        try:
            tree = miranda_reduce([CollisionPoint(g, h)])[0]
        except ProfileInconsistent:
            inconsistent += 1
            continue
        resolved += 1
        height = max(height, tree.height())
    assert (inconsistent, resolved) == (6844, 7797)
    assert height == 5

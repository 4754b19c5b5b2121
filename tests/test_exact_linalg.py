"""Tests for exact integer linear algebra.

Two independent oracles back the Smith machinery:
  * the determinantal-divisors formula d_k = g_k / g_(k-1), where g_k is
    the gcd of all k x k minors, with determinants computed by the
    Laplace expansion of the test support module;
  * brute-force enumeration of n-torsion points of the Q/Z kernel.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import gcd

import pytest

from ellfib import exact_linalg, kodaira
from ellfib.collisions import delta_eta_gcd
from ellfib.errors import CommutationFailure, DimensionMismatch
from ellfib.exact_linalg import (
    DivisibleGroup,
    IntMatrix,
    induced_kernel_with_witnesses,
    qz_kernel,
    smith_normal_form,
)
from ellfib.kodaira import reduced_pairing
from ellfib.presentations import assemble, load_presentations
from ellfib.weierstrass import KodairaType

from support import (
    I2_I0STAR,
    apply_to_rational,
    bruteforce_n_torsion,
    cokernel_chart,
    det_laplace,
    diagonal,
    group_n_torsion,
    zeros,
)


# ---------------------------------------------------------------------------
# oracles


def _minors_gcd(m: IntMatrix, k: int) -> int:
    g = 0
    for rsel in itertools.combinations(range(m.rows), k):
        for csel in itertools.combinations(range(m.cols), k):
            sub = [[m.at(i, j) for j in csel] for i in rsel]
            g = gcd(g, det_laplace(sub))
    return g


def _determinantal_diagonal(m: IntMatrix) -> tuple:
    """Expected Smith diagonal from the gcds of k x k minors."""
    size = min(m.rows, m.cols)
    out = []
    prev = 1
    for k in range(1, size + 1):
        g = _minors_gcd(m, k)
        if g == 0:
            out.extend([0] * (size - len(out)))
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def _random_matrix(rng, rows, cols, lo=-6, hi=6) -> IntMatrix:
    return IntMatrix(
        rows, cols, tuple(rng.randint(lo, hi) for _ in range(rows * cols))
    )


# ---------------------------------------------------------------------------
# IntMatrix basics


def test_matrix_shape_validation():
    with pytest.raises(DimensionMismatch):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(DimensionMismatch):
        IntMatrix(-1, 2, ())
    with pytest.raises(TypeError):
        IntMatrix(1, 1, (Fraction(1, 2),))
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_rows([[1, 2], [3]])


def test_constructors_refuse_entries_that_are_not_int():
    # no constructor truncates: a float, a Fraction or a bool is refused,
    # not stored or read as the int it rounds to
    for build in (
        lambda: IntMatrix.from_rows([[2.9]]),
        lambda: IntMatrix.from_rows([[True]]),
        lambda: IntMatrix.column([2.7]),
        lambda: IntMatrix(1, 1, (False,)),
    ):
        with pytest.raises(TypeError):
            build()
    with pytest.raises(ValueError):
        DivisibleGroup.cyclic(2.9)
    with pytest.raises(TypeError):
        delta_eta_gcd([4.5, 6])


def test_matrix_operations():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).to_rows() == [[2, 1], [4, 3]]
    assert a.transpose().to_rows() == [[1, 3], [2, 4]]
    assert IntMatrix.column([1, 2]).cols == 1
    assert a.submatrix(1, 1).to_rows() == [[4]]
    with pytest.raises(DimensionMismatch):
        a @ diagonal([1] * 3)


def test_matrix_empty_shapes():
    empty = zeros(0, 3)
    assert (empty @ zeros(3, 2)).to_rows() == []
    assert zeros(2, 0) @ zeros(0, 3) == zeros(2, 3)


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_worked_examples():
    dec = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert dec.diagonal() == (2, 4)
    assert dec.rank == 2
    assert dec.invariant_factors() == (2, 4)

    dec = smith_normal_form(diagonal([4, 6]))
    assert dec.diagonal() == (2, 12)

    dec = smith_normal_form(diagonal([1] * 3))
    assert dec.diagonal() == (1, 1, 1)
    assert dec.invariant_factors() == ()

    dec = smith_normal_form(zeros(2, 3))
    assert dec.rank == 0
    assert dec.diagonal() == (0, 0)

    for shape in ((0, 3), (3, 0), (0, 0)):
        dec = smith_normal_form(zeros(*shape))
        assert dec.rank == 0
        assert dec.diagonal() == ()


def test_snf_matches_determinantal_divisors():
    rng = random.Random(91)
    for _ in range(250):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = _random_matrix(rng, rows, cols)
        assert smith_normal_form(m).diagonal() == _determinantal_diagonal(m)


def test_snf_structure():
    rng = random.Random(92)
    samples = [_random_matrix(rng, rng.randint(0, 4), rng.randint(0, 4)) for _ in range(200)]
    samples += [zeros(3, 3), diagonal([1] * 4), diagonal([6, 4, 10])]
    for m in samples:
        dec = smith_normal_form(m)
        assert dec.U @ dec.D @ dec.V == m
        assert abs(det_laplace(dec.U.to_rows())) == 1
        assert abs(det_laplace(dec.V.to_rows())) == 1
        assert dec.U @ dec.U_inv == diagonal([1] * m.rows)
        assert dec.V @ dec.V_inv == diagonal([1] * m.cols)
        diag = dec.diagonal()
        # nonnegative diagonal, zeros only at the tail, divisibility chain
        assert all(d >= 0 for d in diag)
        assert dec.rank == sum(1 for d in diag if d != 0)
        assert all(d == 0 for d in diag[dec.rank :])
        for i in range(dec.rank - 1):
            assert diag[i + 1] % diag[i] == 0
        # D is diagonal
        for i in range(dec.D.rows):
            for j in range(dec.D.cols):
                if i != j:
                    assert dec.D.at(i, j) == 0


# SHA-256 of (U, D, V, U_inv, V_inv, rank) over _golden_snf_samples(),
# captured before the elimination loop was shared with qz_kernel.  The
# witnesses in the golden report JSON depend on U and V_inv, so the
# tracked form must not change by a single entry.
_GOLDEN_SNF_SHA256 = "a40c00e79296fd7f020f219f29ac5611a4375d6e6d7dbcf49e54b8a052b20642"


def _golden_snf_samples():
    rng = random.Random(20261018)
    samples = [
        _random_matrix(rng, rng.randint(0, 12), rng.randint(0, 12), lo=-9, hi=9)
        for _ in range(40)
    ]
    for _ in range(8):  # rank-deficient products
        rows, cols = rng.randint(2, 9), rng.randint(2, 9)
        k = rng.randint(1, min(rows, cols) - 1)
        left = _random_matrix(rng, rows, k, lo=-3, hi=3)
        samples.append(left @ _random_matrix(rng, k, cols, lo=-3, hi=3))
    return samples


def _golden_snf_digest(read_order) -> str:
    digest = hashlib.sha256()
    for m in _golden_snf_samples():
        dec = smith_normal_form(m)
        read = {name: getattr(dec, name) for name in read_order}
        mats = [read[name] for name in ("U", "D", "V", "U_inv", "V_inv")]
        doc = [[x.rows, x.cols, list(x.entries)] for x in mats] + [dec.rank]
        digest.update(json.dumps(doc, separators=(",", ":")).encode())
    return digest.hexdigest()


def test_snf_golden_fingerprint():
    assert _golden_snf_digest(("U", "D", "V", "U_inv", "V_inv")) == _GOLDEN_SNF_SHA256


def test_snf_golden_fingerprint_read_in_reverse():
    # each transform is built on its first read; the order of the reads
    # must not change a single entry
    assert _golden_snf_digest(("V_inv", "U_inv", "V", "D", "U")) == _GOLDEN_SNF_SHA256


def test_snf_large_entries():
    m = IntMatrix.from_rows([[2**40, 3**25], [5**17, 7**13]])
    dec = smith_normal_form(m)
    assert dec.U @ dec.D @ dec.V == m
    assert dec.diagonal() == _determinantal_diagonal(m)


# ---------------------------------------------------------------------------
# divisible groups


def test_divisible_group_canonical_form():
    assert DivisibleGroup.cyclic(-3) == DivisibleGroup.cyclic(3)


def test_divisible_group_rendering_and_invariants():
    assert str(DivisibleGroup(0)) == "0"
    assert str(DivisibleGroup.cyclic(2)) == "Z/2"
    assert str(DivisibleGroup(1, (3,))) == "(Q/Z)^1 + Z/3"
    assert str(DivisibleGroup(2)) == "(Q/Z)^2"
    assert str(DivisibleGroup(0, (2, 4))) == "Z/2 + Z/4"


def test_divisible_group_validation():
    with pytest.raises(ValueError):
        DivisibleGroup(-1)
    # a bool or float rank would print as (Q/Z)^True or (Q/Z)^1.5
    for rank in (True, 1.5):
        with pytest.raises(ValueError, match="divisible rank must be a nonnegative int"):
            DivisibleGroup(rank)
    with pytest.raises(ValueError):
        DivisibleGroup(0, (4, 6))  # not a divisibility chain
    with pytest.raises(ValueError):
        DivisibleGroup(0, (1,))
    with pytest.raises(ValueError):
        DivisibleGroup(0, (0,))


# ---------------------------------------------------------------------------
# Q/Z kernels


def _shaped_samples(rng, count, max_size):
    """Seeded matrices of every kind qz_kernel meets: square, wide, tall,
    rank-deficient products, zero and empty (0 x n, n x 0, 0 x 0)."""
    out = [zeros(0, n) for n in range(max_size + 1)]
    out += [zeros(n, 0) for n in range(1, max_size + 1)]
    out += [zeros(n, n + 1) for n in range(1, max_size)]
    for _ in range(count):
        kind = rng.choice(("square", "wide", "tall", "deficient"))
        rows = rng.randint(1, max_size)
        if kind == "square":
            cols = rows
        elif kind == "wide":
            cols = rng.randint(rows, max_size)
        elif kind == "tall":
            rows, cols = max(rows, 2), rng.randint(1, max(rows - 1, 1))
        else:
            rows, cols = max(rows, 2), rng.randint(2, max_size)
            k = rng.randint(1, min(rows, cols) - 1)
            left = _random_matrix(rng, rows, k, lo=-3, hi=3)
            out.append(left @ _random_matrix(rng, k, cols, lo=-3, hi=3))
            continue
        out.append(_random_matrix(rng, rows, cols, lo=-9, hi=9))
    return out


def test_qz_kernel_worked_examples():
    assert qz_kernel(diagonal([2, 3])) == DivisibleGroup.cyclic(6)
    assert qz_kernel(IntMatrix.from_rows([[2, 4], [6, 8]])) == DivisibleGroup(0, (2, 4))
    assert qz_kernel(zeros(2, 3)) == DivisibleGroup(3)
    assert qz_kernel(IntMatrix.from_rows([[2, 3]])) == DivisibleGroup(1)
    assert qz_kernel(IntMatrix.from_rows([[6]])) == DivisibleGroup.cyclic(6)
    assert qz_kernel(diagonal([1] * 4)) == DivisibleGroup(0)
    assert qz_kernel(zeros(0, 2)) == DivisibleGroup(2)
    assert qz_kernel(zeros(2, 0)) == DivisibleGroup(0)


def test_qz_kernel_matches_bruteforce_torsion():
    rng = random.Random(93)
    samples = [
        _random_matrix(rng, rng.randint(0, 3), rng.randint(0, 3), lo=-5, hi=5)
        for _ in range(150)
    ]
    for m in samples + _shaped_samples(random.Random(99), 60, 3):
        group = qz_kernel(m)
        for n in (2, 3, 4, 6, 12):
            assert group_n_torsion(group, n) == bruteforce_n_torsion(m, n), (
                f"n-torsion mismatch for {m.to_rows()} at n={n}"
            )


def test_qz_kernel_matches_tracked_form():
    rng = random.Random(97)
    for m in _shaped_samples(rng, 160, 8):
        dec = smith_normal_form(m)
        expected = DivisibleGroup(m.cols - dec.rank, dec.invariant_factors())
        assert qz_kernel(m) == expected, m.to_rows()


def test_qz_kernel_matches_determinantal_divisors():
    rng = random.Random(98)
    for m in _shaped_samples(rng, 120, 4):
        diag = _determinantal_diagonal(m)
        rank = sum(1 for d in diag if d)
        assert qz_kernel(m) == DivisibleGroup(
            m.cols - rank, tuple(d for d in diag if d > 1)
        ), m.to_rows()


def test_qz_kernel_builds_no_transforms(monkeypatch):
    rng = random.Random(100)
    samples = _shaped_samples(rng, 40, 6)
    expected = [qz_kernel(m) for m in samples]

    def refuse(a):
        raise AssertionError("qz_kernel called the tracked Smith form")

    monkeypatch.setattr(exact_linalg, "smith_normal_form", refuse)
    assert [qz_kernel(m) for m in samples] == expected


def test_each_caller_builds_only_the_transforms_it_reads(monkeypatch):
    # a transform is cached in the instance __dict__ when first read, so
    # the names found there are exactly the transforms that were built
    real = exact_linalg.smith_normal_form
    decompositions = []

    def recording(a):
        dec = real(a)
        decompositions.append((a, dec))
        return dec

    def built():
        out = [
            (a, {name for name in ("U", "V", "U_inv", "V_inv") if name in vars(dec)})
            for a, dec in decompositions
        ]
        decompositions.clear()
        return out

    monkeypatch.setattr(exact_linalg, "smith_normal_form", recording)
    monkeypatch.setattr(kodaira, "smith_normal_form", recording)
    r, n, m0, sigma = assemble(load_presentations()[I2_I0STAR])
    qz_kernel(n)
    assert built() == []
    _, witnesses = induced_kernel_with_witnesses(r, n, m0, sigma)
    assert len(witnesses) == 1
    (top, top_built), (bottom, bottom_built), (_, block_built) = built()
    assert (top, bottom) == (r, m0)
    assert [top_built, bottom_built, block_built] == [{"U"}, {"U_inv"}, {"V_inv"}]
    reduced_pairing(KodairaType.parse("I0*"))
    assert [names for _, names in built()] == [{"V_inv"}]


def test_smith_decomposition_compares_by_diagonal_form():
    # the recorded elimination stays out of equality, hashing and repr
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    a, b = smith_normal_form(m), smith_normal_form(m)
    a.U
    assert a == b and hash(a) == hash(b)
    assert repr(a) == f"SmithDecomposition(D={a.D!r}, rank=2)"


# ---------------------------------------------------------------------------
# cokernel charts


def test_cokernel_chart_classes():
    # R: Q/Z -> (Q/Z)^2, x |-> (2x, 4x); image = {(y, 2y)}, so the class
    # of (a, b) is determined by b - 2a mod 1.
    chart = cokernel_chart(IntMatrix.from_rows([[2], [4]]))
    assert chart.rank == 1
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    assert chart.same_class((half, Fraction(0)), (Fraction(0), Fraction(0)))
    assert not chart.same_class((Fraction(0), half), (Fraction(0), Fraction(0)))
    assert chart.same_class((Fraction(0), half), (quarter, Fraction(1)))
    with pytest.raises(DimensionMismatch):
        chart.quotient_coordinates((half,))


def test_cokernel_chart_kills_image_vectors():
    rng = random.Random(94)
    for _ in range(100):
        r = _random_matrix(rng, rng.randint(1, 4), rng.randint(0, 3), lo=-4, hi=4)
        chart = cokernel_chart(r)
        q = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(r.cols)]
        image_vec = apply_to_rational(r, q)
        coords = chart.quotient_coordinates(image_vec)
        assert all(c == 0 for c in coords)
        # shifting any vector by an image vector does not change its class
        x = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(r.rows)]
        shifted = [xi + vi for xi, vi in zip(x, image_vec)]
        assert chart.same_class(x, shifted)


# ---------------------------------------------------------------------------
# induced kernels between cokernels


def test_induced_kernel_shape_and_commutation_checks():
    r = IntMatrix.from_rows([[1], [1], [2]])
    n = IntMatrix.from_rows([[1, 1, 0], [0, 0, 1]])
    m0 = IntMatrix.column([2, 2])
    sigma = IntMatrix.from_rows([[1]])
    with pytest.raises(CommutationFailure):
        induced_kernel_with_witnesses(r, n, m0, IntMatrix.from_rows([[2]]))
    with pytest.raises(DimensionMismatch):
        induced_kernel_with_witnesses(r, IntMatrix.from_rows([[1, 1], [0, 0]]), m0, sigma)
    with pytest.raises(DimensionMismatch):
        induced_kernel_with_witnesses(r, n, IntMatrix.column([2, 2, 2]), sigma)
    with pytest.raises(DimensionMismatch):
        induced_kernel_with_witnesses(r, n, m0, IntMatrix.from_rows([[1], [1]]))


def test_induced_kernel_worked_example():
    # coker(R) = (Q/Z)^2 via (v - u, w - 2u); coker(M0) = Q/Z via y - x;
    # N(u, v, w) = (u + v, w) descends to (a, b) |-> b - a, whose kernel
    # is the diagonal copy of Q/Z.
    r = IntMatrix.from_rows([[1], [1], [2]])
    n = IntMatrix.from_rows([[1, 1, 0], [0, 0, 1]])
    m0 = IntMatrix.column([2, 2])
    sigma = IntMatrix.from_rows([[1]])
    assert induced_kernel_with_witnesses(r, n, m0, sigma)[0] == DivisibleGroup(1)


def test_induced_kernel_trivial_and_full_cases():
    # full-rank R: the source cokernel is 0, so the kernel is trivial
    ident = diagonal([1] * 2)
    assert induced_kernel_with_witnesses(ident, ident, ident, ident)[0] == DivisibleGroup(0)
    # no branches at all: the map is N itself on (Q/Z)^cols
    n = IntMatrix.from_rows([[2, 0], [0, 3]])
    group = induced_kernel_with_witnesses(
        zeros(2, 0), n, zeros(2, 0), zeros(0, 0)
    )[0]
    assert group == qz_kernel(n) == DivisibleGroup.cyclic(6)


def test_induced_kernel_witnesses_minimal_example():
    # R and M0 empty, N = [[2]]: the induced map is multiplication by 2
    # on Q/Z, with kernel Z/2 generated by the class of 1/2.
    group, witnesses = induced_kernel_with_witnesses(
        zeros(1, 0),
        IntMatrix.from_rows([[2]]),
        zeros(1, 0),
        zeros(0, 0),
    )
    assert group == DivisibleGroup.cyclic(2)
    assert witnesses == [(Fraction(1, 2),)]


def test_induced_kernel_witness_properties():
    rng = random.Random(95)
    for _ in range(60):
        c = rng.randint(1, 3)
        n = _random_matrix(rng, rng.randint(1, 3), c, lo=-4, hi=4)
        group, witnesses = induced_kernel_with_witnesses(
            zeros(c, 0), n, zeros(n.rows, 0), zeros(0, 0)
        )
        assert group == qz_kernel(n)
        assert len(witnesses) == len(group.invariant_factors)
        for w, d in zip(witnesses, group.invariant_factors):
            # the witness maps into Z^rows (trivial class downstairs) ...
            image = apply_to_rational(n, w)
            assert all(x.denominator == 1 for x in image)
            # ... is killed by its invariant factor, and not before: with
            # R empty the ambient class is the vector itself
            assert all((d * x).denominator == 1 for x in w)
            order = 1
            for x in w:
                order = order * x.denominator // gcd(order, x.denominator)
            assert order == d


def _elementary(size: int, i: int, j: int, q: int) -> IntMatrix:
    rows = [[1 if a == b else 0 for b in range(size)] for a in range(size)]
    rows[i][j] = q
    return IntMatrix.from_rows(rows)


def _random_unimodular(rng, size: int) -> tuple[IntMatrix, IntMatrix]:
    p = diagonal([1] * size)
    p_inv = diagonal([1] * size)
    for _ in range(6):
        i, j = rng.sample(range(size), 2)
        q = rng.randint(-3, 3)
        p = p @ _elementary(size, i, j, q)
        p_inv = _elementary(size, i, j, -q) @ p_inv
    return p, p_inv


def test_induced_kernel_invariant_under_unimodular_change():
    # changing basis in the middle module (R -> P R, N -> N P^-1) must
    # not change the kernel
    rng = random.Random(96)
    r = IntMatrix.from_rows([[1], [1], [2]])
    n = IntMatrix.from_rows([[1, 1, 0], [0, 0, 1]])
    m0 = IntMatrix.column([2, 2])
    sigma = IntMatrix.from_rows([[1]])
    base = induced_kernel_with_witnesses(r, n, m0, sigma)[0]
    for _ in range(25):
        p, p_inv = _random_unimodular(rng, 3)
        assert p @ p_inv == diagonal([1] * 3)
        assert induced_kernel_with_witnesses(p @ r, n @ p_inv, m0, sigma)[0] == base

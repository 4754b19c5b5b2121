"""Exact integer linear algebra over Z and Q/Z.

Everything rests on one elimination loop that brings a matrix to Smith
normal form.  A decomposition A = U * D * V with U, V unimodular and D
diagonal with d1 | d2 | ... controls both the kernel and the cokernel of
the map (Q/Z)^cols -> (Q/Z)^rows induced by A: every nonzero integer
acts surjectively on Q/Z, so in Smith coordinates the image of the map is
exactly "first rank(A) coordinates arbitrary" and the kernel is a sum of
cyclic groups Z/d_i plus a divisible part.

qz_kernel needs D alone; it runs the loop on a copy of the matrix and
drops the record of elementary operations that the loop appends to.
smith_normal_form keeps it; each of U, V and their inverses is built on
first read by replaying that record onto an identity matrix.  Every caller
reads one or two of the four: kodaira.reduced_pairing reads V^-1, and
induced_kernel_with_witnesses reads U of R and U^-1 of M0 for the
cokernel coordinates and V^-1 of the induced block for the witnesses.

All arithmetic is on arbitrary-precision integers; a witness is a
vector of fractions.Fraction built from the integer residues of one
matrix product.  No floating point is used anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import chain
from typing import Sequence

from .errors import CommutationFailure, DimensionMismatch

__all__ = [
    "IntMatrix",
    "SmithDecomposition",
    "DivisibleGroup",
    "smith_normal_form",
    "qz_kernel",
    "induced_kernel_with_witnesses",
]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored row-major.  Zero rows or columns
    are legal; a 0 x n matrix is the unique map from Z^n to the zero
    module and its Smith form is empty."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch(f"negative shape {self.rows} x {self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows} x {self.cols} matrix needs "
                f"{self.rows * self.cols} entries, got {len(self.entries)}"
            )
        for e in self.entries:
            if type(e) is not int:  # no bool, float or Fraction
                raise TypeError(f"matrix entries must be int, got {e!r}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimensionMismatch("ragged rows")
        else:
            width = 0 if cols is None else cols
        return cls(len(rows), width, tuple(e for r in rows for e in r))

    @classmethod
    def column(cls, values: Sequence[int]) -> "IntMatrix":
        return cls(len(values), 1, tuple(values))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def submatrix(self, row_start: int, col_start: int) -> "IntMatrix":
        """Lower-right block starting at (row_start, col_start)."""
        if not (0 <= row_start <= self.rows and 0 <= col_start <= self.cols):
            raise DimensionMismatch("submatrix start out of range")
        ent = tuple(
            self.at(i, j)
            for i in range(row_start, self.rows)
            for j in range(col_start, self.cols)
        )
        return IntMatrix(self.rows - row_start, self.cols - col_start, ent)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = [0] * (self.rows * other.cols)
        for i in range(self.rows):
            base = i * self.cols
            for k in range(self.cols):
                a = self.entries[base + k]
                if a:
                    obase = k * other.cols
                    rbase = i * other.cols
                    for j in range(other.cols):
                        out[rbase + j] += a * other.entries[obase + j]
        return IntMatrix(self.rows, other.cols, tuple(out))

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"<empty {self.rows}x{self.cols}>"
        return "\n".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))


@dataclass(frozen=True)
class SmithDecomposition:
    """A = U * D * V with U, V unimodular and D = diag(d1, ..., dr, 0, ...)
    satisfying d1 | d2 | ... | dr, all positive.  U_inv and V_inv are the
    exact inverses of U and V.

    Only D and rank are stored.  Each transform is built on first read by
    replaying the recorded elimination, so a caller pays for the ones it
    reads.  The record is private and takes no part in equality, hashing
    or repr: two decompositions compare by D and rank."""

    D: IntMatrix
    rank: int
    _ops: list[tuple[int, int, int, int]] = field(repr=False, compare=False)

    @cached_property
    def U(self) -> IntMatrix:
        return _replay(self._ops, self.D.rows, rows=True, inverse=False)

    @cached_property
    def U_inv(self) -> IntMatrix:
        return _replay(self._ops, self.D.rows, rows=True, inverse=True)

    @cached_property
    def V(self) -> IntMatrix:
        return _replay(self._ops, self.D.cols, rows=False, inverse=False)

    @cached_property
    def V_inv(self) -> IntMatrix:
        return _replay(self._ops, self.D.cols, rows=False, inverse=True)

    def diagonal(self) -> tuple[int, ...]:
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D.at(i, i) for i in range(n))

    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal() if d > 1)


# Elementary operations _diagonalize records as (kind, i, j, q):
_ROW_ADD = 0  # row i += q * row j
_ROW_SWAP = 1  # swap rows i and j
_ROW_NEG = 2  # row i *= -1
_COL_ADD = 3  # column i += q * column j
_COL_SWAP = 4  # swap columns i and j


def _replay(ops, n: int, rows: bool, inverse: bool) -> IntMatrix:
    """One n x n transform of a Smith decomposition, replayed in order
    onto the identity from the recorded row operations (rows=True: U,
    U^-1) or column operations (rows=False: V, V^-1).

    Each operation on A is compensated in the transforms, so that
    A = U * D * V holds throughout.  U^-1 and V^-1 take each addition as
    recorded (inverse=True), U and V its inverse.  U^-1 and V take row
    operations; U and V^-1 take column operations, so their transposes
    are built with row operations and transposed once at the end."""
    add, swap = (_ROW_ADD, _ROW_SWAP) if rows else (_COL_ADD, _COL_SWAP)
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for kind, i, j, q in ops:
        if kind == add:
            if not inverse:
                i, j, q = j, i, -q
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        elif kind == swap:
            m[i], m[j] = m[j], m[i]
        elif kind == _ROW_NEG and rows:
            m[i] = [-x for x in m[i]]
    if rows != inverse:
        return IntMatrix(n, n, tuple(chain.from_iterable(zip(*m))))
    return IntMatrix(n, n, tuple(chain.from_iterable(m)))


def _diagonalize(d: list[list[int]], ops: list) -> int:
    """Bring the list-of-rows matrix d into Smith normal form in place and
    return its rank.

    Pivots on an entry of minimal absolute value of the active lower-right
    block until it divides the whole block.  Rows and columns before the
    active block are zero outside the diagonal, so every operation touches
    only the block.  Each elementary operation is appended to ops, in
    order, so a caller can mirror it onto transforms.
    """
    nr, nc = len(d), len(d[0]) if d else 0
    record = ops.append

    def row_add(i: int, j: int, q: int) -> None:
        di, dj = d[i], d[j]
        for m in range(t, nc):
            di[m] += q * dj[m]
        record((_ROW_ADD, i, j, q))

    t = 0
    limit = min(nr, nc)
    while t < limit:
        # minimal nonzero entry of the active submatrix becomes the pivot
        pi = pj = -1
        best = 0
        for i in range(t, nr):
            di = d[i]
            for j in range(t, nc):
                e = di[j]
                if e != 0 and (best == 0 or abs(e) < best):
                    best = abs(e)
                    pi, pj = i, j
        if best == 0:
            break
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
            record((_ROW_SWAP, t, pi, 0))
        if pj != t:
            for m in range(t, nr):
                dm = d[m]
                dm[t], dm[pj] = dm[pj], dm[t]
            record((_COL_SWAP, t, pj, 0))
        dt = d[t]
        pivot = dt[t]
        for i in range(t + 1, nr):
            if d[i][t]:
                row_add(i, t, -(d[i][t] // pivot))
        for j in range(t + 1, nc):
            if dt[j]:
                q = -(dt[j] // pivot)
                for m in range(t, nr):
                    dm = d[m]
                    dm[j] += q * dm[t]
                record((_COL_ADD, j, t, q))
        if any(d[i][t] for i in range(t + 1, nr)) or any(dt[t + 1 :]):
            # leftovers are strictly smaller than the pivot; go again
            continue
        pivot = dt[t]
        offender = -1
        for i in range(t + 1, nr):
            if any(e % pivot for e in d[i][t + 1 :]):
                offender = i
                break
        if offender >= 0:
            # pull the non-divisible row up; the next pass shrinks the pivot
            row_add(t, offender, 1)
            continue
        if pivot < 0:
            dt[t] = -pivot
            record((_ROW_NEG, t, t, 0))
        t += 1
    return t


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form A = U * D * V over Z.

    Diagonalizes a copy of A with _diagonalize, which records every
    elementary operation; the transforms are replayed from that record
    when first read (see SmithDecomposition).

    Works for any shape including empty matrices.  Intended for the small
    systems in this library (tens of rows); entries may be arbitrarily
    large since all arithmetic is exact.
    """
    d = a.to_rows()
    ops: list[tuple[int, int, int, int]] = []
    rank = _diagonalize(d, ops)
    return SmithDecomposition(IntMatrix.from_rows(d, cols=a.cols), rank, ops)


@dataclass(frozen=True)
class DivisibleGroup:
    """An abelian group of the shape (Q/Z)^r + Z/d1 + ... + Z/dk in
    canonical form: every d_i >= 2 and d1 | d2 | ... | dk."""

    divisible_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.divisible_rank < 0:
            raise ValueError("negative divisible rank")
        prev = 1
        for d in self.invariant_factors:
            if not isinstance(d, int) or d < 2:
                raise ValueError(f"invariant factor {d!r} must be an int >= 2")
            if d % prev != 0:
                raise ValueError(
                    f"invariant factors {self.invariant_factors} do not form "
                    "a divisibility chain"
                )
            prev = d

    @classmethod
    def cyclic(cls, n: int) -> "DivisibleGroup":
        n = abs(n)
        return cls(0, (n,) if n > 1 else ())

    def __str__(self) -> str:
        parts = []
        if self.divisible_rank:
            parts.append(f"(Q/Z)^{self.divisible_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


def qz_kernel(b: IntMatrix) -> DivisibleGroup:
    """Kernel of the map (Q/Z)^cols -> (Q/Z)^rows defined by B.

    In Smith coordinates B acts diagonally; multiplication by d on Q/Z has
    kernel Z/d and by 0 has kernel all of Q/Z, so the answer is
    (Q/Z)^(cols - rank) + sum of Z/d_i over invariant factors d_i > 1.
    """
    d = b.to_rows()
    rank = _diagonalize(d, [])
    factors = tuple(d[i][i] for i in range(rank) if d[i][i] > 1)
    return DivisibleGroup(b.cols - rank, factors)


def induced_kernel_with_witnesses(
    r: IntMatrix, n: IntMatrix, m0: IntMatrix, sigma: IntMatrix
) -> tuple[DivisibleGroup, list[tuple[Fraction, ...]]]:
    """Kernel of the map coker(R (x) Q/Z) -> coker(M0 (x) Q/Z) induced by N,
    plus one representative in (Q/Z)^C for each finite invariant factor.

    The square
        (Q/Z)^k  --R-->  (Q/Z)^C
          |Sigma            |N
        (Q/Z)^l  --M0--> (Q/Z)^c
    must commute (N R = M0 Sigma); this guarantees N descends to the
    cokernels.  In Smith coordinates of R and M0 the descended map is the
    lower-right block of U_M0^-1 * N * U_R, and the kernel of that block
    is read off its Smith form.

    The i-th witness generates the Z/d_i summand; entries are reduced mod
    1, so denominators divide d_i (hence the exponent of the group).
    """
    if n.cols != r.rows:
        raise DimensionMismatch(
            f"N has {n.cols} columns but R has {r.rows} rows"
        )
    if m0.rows != n.rows:
        raise DimensionMismatch(
            f"M0 has {m0.rows} rows but N has {n.rows} rows"
        )
    if sigma.rows != m0.cols or sigma.cols != r.cols:
        raise DimensionMismatch(
            f"Sigma must be {m0.cols} x {r.cols}, got {sigma.rows} x {sigma.cols}"
        )
    if (n @ r) != (m0 @ sigma):
        raise CommutationFailure("N * R != M0 * Sigma: the square does not commute")
    top = smith_normal_form(r)
    bottom = smith_normal_form(m0)
    block = (bottom.U_inv @ n @ top.U).submatrix(bottom.rank, top.rank)
    dec = smith_normal_form(block)
    group = DivisibleGroup(block.cols - dec.rank, dec.invariant_factors())
    witnesses: list[tuple[Fraction, ...]] = []
    for i, d_i in enumerate(dec.diagonal()):
        if d_i <= 1:
            continue
        # quotient-coordinate generator: column i of V^-1 divided by d_i,
        # embedded into Smith coordinates of R (zeros on the image part),
        # then returned to the standard basis of the ambient (Q/Z)^C; the
        # integer product is d_i times the witness, so reduce it mod d_i
        column = [0] * top.rank + [dec.V_inv.at(m, i) for m in range(block.cols)]
        ambient = top.U @ IntMatrix.column(column)
        witnesses.append(tuple(Fraction(x % d_i, d_i) for x in ambient.entries))
    return group, witnesses

"""Shared helpers for the test suite: canonical valuation profiles per
fibre type, seeded consistent profiles, small enumerations used by
several test modules, the residue recursion that blow-up trees are
checked against (`class_tree`, `residue_pair`), the polynomial oracles (powers, the fully
expanded discriminant and axis valuations) that the library's
leading-term reads are checked against, the canonical text forms that
the parser's round trips are checked against, the token parser that the
one-pass polynomial scanner is checked against, polynomial text for a coefficient of a given size
(`power_of_two`), integer-matrix builders and oracles (`zeros`,
`diagonal`, `det_laplace`, n-torsion counts), the cokernel chart that
witnesses of a local group are checked with (`cokernel_chart`), and the
store key of the shipped I2 + I0* presentation (`I2_I0STAR`)."""

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ellfib import poly
from ellfib.collisions import ALLOWED, DISSOLVED
from ellfib.errors import Diagnostic, DimensionMismatch, ParseError, ProfileInconsistent
from ellfib.exact_linalg import DivisibleGroup, IntMatrix, smith_normal_form
from ellfib.parser import MAX_EXPONENT, MAX_TERMS
from ellfib.readers import INFINITY, render_valuation
from ellfib.weierstrass import KodairaType, ValuationProfile

# The key of the shipped I2 + I0* presentation in load_presentations()
I2_I0STAR = frozenset(map(KodairaType.parse, ("I2", "I0*")))

# One minimal profile classifying to each type; for the I and I* series
# the profile depends on the index.
_FIXED_PROFILES = {
    "II": (1, 1, 2),
    "III": (1, 2, 3),
    "IV": (2, 2, 4),
    "IV*": (3, 4, 8),
    "III*": (3, 5, 9),
    "II*": (4, 5, 10),
}


def canonical_profile(ft: KodairaType) -> ValuationProfile:
    if ft.kind == "I":
        return ValuationProfile(0, 0, ft.index)
    if ft.kind == "I*":
        return ValuationProfile(2, 3, 6 + ft.index)
    return ValuationProfile(*_FIXED_PROFILES[ft.kind])


def types_with_index_up_to(bound: int, include_smooth: bool = False):
    """All fibre types with index at most bound: I_1..I_bound,
    I*_0..I*_bound and the six fixed additive types."""
    out = []
    if include_smooth:
        out.append(KodairaType("I", 0))
    out.extend(KodairaType("I", n) for n in range(1, bound + 1))
    out.extend(KodairaType("I*", n) for n in range(0, bound + 1))
    out.extend(KodairaType(kind) for kind in ("II", "III", "IV", "IV*", "III*", "II*"))
    return out


def random_consistent_profile(rng) -> ValuationProfile:
    """A consistent valuation profile with finite entries below 9 (or
    infinite va or vb), drawn from rng."""
    choices = list(range(9)) + [INFINITY]
    while True:
        va = rng.choice(choices)
        vb = rng.choice(choices)
        if va == INFINITY and vb == INFINITY:
            continue
        floor = min(3 * va, 2 * vb)
        if 3 * va != 2 * vb:
            return ValuationProfile(va, vb, floor)
        return ValuationProfile(va, vb, floor + rng.randrange(9))


def summed_profile_is_consistent(p: ValuationProfile, q: ValuationProfile) -> bool:
    """Whether the componentwise sum of two finite profiles satisfies the
    discriminant relation (the check recomputed from scratch, so tests do
    not rely on the library's own validation)."""
    va = p.va + q.va
    vb = p.vb + q.vb
    vd = p.vdelta + q.vdelta
    floor = min(3 * va, 2 * vb)
    if vd < floor:
        return False
    if 3 * va != 2 * vb and vd != floor:
        return False
    return True


def germ_class(p: ValuationProfile) -> str:
    """The shape class of a minimal profile with vdelta >= 1: M (I_n),
    S (I_n*, n >= 1), I0* for (2, 3, 6), A1-A3 (3 va < 2 vb, by va) or
    B1-B5 (2 vb < 3 va, by vb), as miranda_reduce's docstring defines
    them."""
    if p.va == p.vb == 0:
        return "M"
    if 3 * p.va == 2 * p.vb:
        return "I0*" if p.vdelta == 6 else "S"
    return f"A{p.va}" if 3 * p.va < 2 * p.vb else f"B{p.vb}"


GERM_CLASSES = ("M", "S", "I0*", "A1", "A2", "A3", "B1", "B2", "B3", "B4", "B5")

# Miranda's fixed pairs as residues: va mod 4 of III, I0*, III* and
# vb mod 6 of II, IV, I0*, IV*, II*
_RESIDUE_ALLOWED = {4: {(1, 2)}, 6: {(1, 2), (1, 3), (1, 4), (2, 3)}}


def residue_tree(x: int, y: int, m: int):
    """The reduction tree of two germs of residues x and y mod m: a leaf
    is its status, a blown-up node the pair of its children's trees."""
    if x == 0 or y == 0:
        return DISSOLVED
    if tuple(sorted((x, y))) in _RESIDUE_ALLOWED[m]:
        return ALLOWED
    e = (x + y) % m
    return (residue_tree(x, e, m), residue_tree(y, e, m))


def residue_pair(c: str, d: str):
    """(x, y, m): the residues mod m of two germ classes of one shape, A
    (m = 4) or B (m = 6), the germ (2, 3, 6) counting as m // 2; None
    for any other pair."""
    shapes = {k[0] for k in (c, d) if k != "I0*"}
    if shapes not in ({"A"}, {"B"}):
        return None
    m = 4 if shapes == {"A"} else 6
    x, y = (m // 2 if k == "I0*" else int(k[1]) for k in (c, d))
    return x, y, m


def class_tree(c: str, d: str):
    """The reduction tree (as residue_tree spells it) of germs of the
    classes c and d, or ProfileInconsistent for a pair whose first
    blow-up has no monomial model."""
    pair = {c, d}
    if "M" in pair:
        # I + I and I + I* are on Miranda's list; the rest is inconsistent
        return ALLOWED if pair <= {"M", "S", "I0*", "A2", "B3"} else ProfileInconsistent
    if pair <= {"S", "I0*"}:
        # one twist leaves I_(n+m), smooth only for I0* + I0*
        leaf = DISSOLVED if pair == {"I0*"} else ALLOWED
        return (leaf, leaf)
    residues = residue_pair(c, d)
    if residues is not None:
        return residue_tree(*residues)
    # A + B is on Miranda's list only as III + I0*, II + I0* or IV + I0*,
    # the I0* of the other shape; S against A or B never is
    return ALLOWED if pair in ({"A1", "B3"}, {"A2", "B1"}, {"A2", "B2"}) else ProfileInconsistent


def power(p: poly.Poly, n: int) -> poly.Poly:
    """p^n by repeated multiplication."""
    if n < 0:
        raise ValueError("negative power")
    out = poly.monomial(1) if n == 0 else p
    for _ in range(n - 1):
        out = poly.mul(out, p)
    return out


def power_of_two(k: int) -> str:
    """2^k as polynomial text: a product of literals of at most 2^10000,
    each within Python's int-string limit."""
    return "*".join([str(2**10000)] * (k // 10000) + [str(2 ** (k % 10000))])


def discriminant(a: poly.Poly, b: poly.Poly) -> poly.Poly:
    """Delta = 4 a^3 + 27 b^2, expanded term by term (zero when it
    vanishes identically)."""
    return poly.add(poly.scale(power(a, 3), 4), poly.scale(power(b, 2), 27))


def axis_valuation(p: poly.Poly, axis: str) -> int:
    """Largest k such that s^k (axis "s") or t^k (axis "t") divides the
    nonzero polynomial p."""
    return min(e[("s", "t").index(axis)] for e in p)


def render_poly(p: poly.Poly) -> str:
    """Canonical text form, parseable by the description-file reader:
    terms by total degree, then s-degree, both descending."""
    if not p:
        return "0"
    terms = []
    for (es, et) in sorted(p, key=lambda e: (-(e[0] + e[1]), -e[0])):
        c = p[(es, et)]
        factors = []
        if es:
            factors.append("s" if es == 1 else f"s^{es}")
        if et:
            factors.append("t" if et == 1 else f"t^{et}")
        mag = abs(c)
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        terms.append((c < 0, "*".join(factors)))
    first_neg, first_body = terms[0]
    out = ("-" if first_neg else "") + first_body
    for is_neg, body in terms[1:]:
        out += (" - " if is_neg else " + ") + body
    return out


def render_description(d) -> str:
    """Canonical text form of a parsed description; parsing it back
    yields an equal description (up to line numbers)."""
    lines = []
    if d.mode == "weierstrass":
        lines.append(f"[weierstrass] a = {render_poly(d.model.a)} b = {render_poly(d.model.b)}")
    else:
        for b in d.branches:
            lines.append(
                f"[branch {b.name}] va={render_valuation(b.va)} "
                f"vb={render_valuation(b.vb)} vdelta={render_valuation(b.vdelta)}"
            )
    for c in d.collisions:
        extra = f" presentation={c.presentation}" if c.presentation else ""
        lines.append(f"[collision] {c.left} {c.right}{extra}")
    if d.topology:
        b2x, rx, b2s, rs = d.topology
        lines.append(f"[topology] b2_X={b2x} rho_X={rx} b2_S={b2s} rho_S={rs}")
    if d.picard_degrees:
        lines.append("[picard-degrees] " + " ".join(str(x) for x in d.picard_degrees))
    return "\n".join(lines) + "\n"


_TOKEN = re.compile(r"\s*(\d+|[st^*+/()-])")


def parse_polynomial_tokens(text: str, line: int = 0, col_offset: int = 0) -> poly.Poly:
    """The token parser that `parser.parse_polynomial` replaced, kept as its
    oracle: the whole text is tokenized first, then the tokens are walked
    one at a time.  Parse infix polynomial text into int (for ratios,
    Fraction) terms.

    Grammar:  poly  := [-] term ((+|-) term)*
              term  := factor (* factor)*
              factor:= INT [/ INT] | s | t | var ^ INT
    """
    tokens: list[tuple[str, int]] = []  # (token, column)
    text = text.rstrip()  # trailing whitespace ends the scan
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            col = col_offset + len(text) - len(stripped) + 1
            raise ParseError([Diagnostic(line, col, f"unexpected character {stripped[0]!r} in polynomial")])
        tokens.append((m.group(1), col_offset + m.start(1) + 1))
        pos = m.end()

    idx = 0

    def peek() -> str | None:
        return tokens[idx][0] if idx < len(tokens) else None

    def fail(message: str):
        col = tokens[idx][1] if idx < len(tokens) else (
            tokens[-1][1] + len(tokens[-1][0]) if tokens else col_offset + 1
        )
        raise ParseError([Diagnostic(line, col, message)])

    def take() -> str:
        nonlocal idx
        tok = tokens[idx][0]
        idx += 1
        return tok

    def parse_factor() -> tuple[int | Fraction, int, int]:
        tok = peek()
        if tok is None:
            fail("expected a coefficient or variable")
        if tok.isdigit():
            take()
            num = int(tok)
            if peek() == "/":
                take()
                den = peek()
                if den is None or not den.isdigit():
                    fail("expected an integer denominator")
                take()
                if int(den) == 0:
                    fail("zero denominator")
                return Fraction(num, int(den)), 0, 0
            return num, 0, 0
        if tok in ("s", "t"):
            take()
            exp = 1
            if peek() == "^":
                take()
                e = peek()
                if e is None or not e.isdigit():
                    fail("expected an integer exponent after '^'")
                take()
                exp = int(e)
            return (1, exp, 0) if tok == "s" else (1, 0, exp)
        fail(f"unexpected token {tok!r} in polynomial")

    # the terms are summed into one dict in place, dropping any that
    # cancel, so the result is canonical and parsing stays linear
    result: poly.Poly = {}
    terms = 0
    sign = 1
    if peek() == "-":
        take()
        sign = -1
    elif peek() == "+":
        take()
    while True:
        start = idx
        terms += 1
        if terms > MAX_TERMS:
            raise ParseError([Diagnostic(
                line, tokens[start][1],
                f"polynomial has more than {MAX_TERMS} terms (MAX_TERMS)",
            )])
        coeff, es, et = parse_factor()
        while peek() == "*":
            take()
            c2, e2s, e2t = parse_factor()
            coeff *= c2
            es += e2s
            et += e2t
        if es > MAX_EXPONENT or et > MAX_EXPONENT:
            raise ParseError([Diagnostic(
                line, tokens[start][1],
                f"exponent exceeds the limit of {MAX_EXPONENT} (MAX_EXPONENT)",
            )])
        total = result.get((es, et), 0) + sign * coeff
        if total:
            result[(es, et)] = total
        else:
            result.pop((es, et), None)
        tok = peek()
        if tok is None:
            break
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        else:
            fail(f"expected '+' or '-', got {tok!r}")
        take()
    return result


def zeros(rows: int, cols: int) -> IntMatrix:
    return IntMatrix(rows, cols, (0,) * (rows * cols))


def diagonal(values: Sequence[int]) -> IntMatrix:
    """The square matrix with values on its diagonal."""
    n = len(values)
    return IntMatrix(n, n, tuple(values[i] if i == j else 0 for i in range(n) for j in range(n)))


def apply_to_rational(m: IntMatrix, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """m times a column vector of Fractions, exactly."""
    if len(vec) != m.cols:
        raise DimensionMismatch("vector length does not match column count")
    return tuple(
        sum((Fraction(m.at(i, j)) * vec[j] for j in range(m.cols)), Fraction(0))
        for i in range(m.rows)
    )


def det_laplace(rows) -> int:
    """Determinant by first-row Laplace expansion; independent of every
    determinant routine in the library."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, coeff in enumerate(rows[0]):
        if coeff == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * coeff * det_laplace(minor)
    return total


def bruteforce_n_torsion(m: IntMatrix, n: int) -> int:
    """Number of x in ((1/n)Z / Z)^cols with m x integral, counted by
    direct enumeration."""
    rows = m.to_rows()
    count = 0
    for combo in itertools.product(range(n), repeat=m.cols):
        if all(sum(r[j] * combo[j] for j in range(m.cols)) % n == 0 for r in rows):
            count += 1
    return count


def group_n_torsion(group: DivisibleGroup, n: int) -> int:
    """Order of the n-torsion of group."""
    order = n**group.divisible_rank
    for d in group.invariant_factors:
        order *= math.gcd(d, n)
    return order


@dataclass(frozen=True)
class CokernelChart:
    """Coordinates for coker((Q/Z)^k --R--> (Q/Z)^ambient).

    Since nonzero integers act surjectively on Q/Z, the image of R in
    Smith coordinates is "first rank coordinates arbitrary, rest zero".
    The quotient is therefore a copy of (Q/Z)^(ambient - rank) read off
    from the last coordinates of basis_transform = U^-1 applied to a
    representative vector.
    """

    basis_transform: IntMatrix
    rank: int
    ambient_dim: int

    def quotient_coordinates(self, vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Class of a rational vector in the quotient, as the last
        ambient - rank Smith coordinates reduced mod 1."""
        if len(vec) != self.ambient_dim:
            raise DimensionMismatch("representative has wrong length")
        image = apply_to_rational(self.basis_transform, [Fraction(x) for x in vec])
        return tuple(x % 1 for x in image[self.rank :])

    def same_class(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> bool:
        return self.quotient_coordinates(x) == self.quotient_coordinates(y)


def cokernel_chart(r: IntMatrix) -> CokernelChart:
    dec = smith_normal_form(r)
    return CokernelChart(basis_transform=dec.U_inv, rank=dec.rank, ambient_dim=r.rows)

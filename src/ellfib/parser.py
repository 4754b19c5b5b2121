"""Reader for fibration description files.

The format is line oriented; '#' starts a comment anywhere on a line.
Two input modes exist and cannot be mixed:

  branch mode, one declared branch per line:
      [branch NAME] va=0 vb=0 vdelta=2
  polynomial mode, a single global model whose coordinate-axis branches
  are derived automatically (named s-axis and t-axis):
      [weierstrass] a = s^2*t^2 b = -1/2*s^3*t^3

Shared sections:
      [collision] LEFT RIGHT [presentation=FILE.json]
      [topology] b2_X=23 rho_X=20 b2_S=2 rho_S=1
      [picard-degrees] 3 0

Numbers are read as on the command line and in presentation JSON, by
the readers of ellfib.readers; every run of digits on a line, too, has
fewer digits than int() reads (readers.check_digits).  [branch]
valuations are at most MAX_FIBRE_INDEX.
Polynomials use infix syntax over s and t with integer or ratio
coefficients, explicit '*' between factors and '^' for powers; the
exponent of each variable in a term is at most MAX_EXPONENT, and a
polynomial has at most MAX_TERMS terms.  parse_polynomial reads one in a
single left-to-right scan, one regex match per factor, and
parse_description calls it through the module global, where a tracer
may wrap it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from . import poly
from .errors import DegenerateModel, Diagnostic, ParseError
from .readers import DIGIT_LIMIT, INFINITY, check_digits, read_integer, read_nonnegative, read_valuation
from .weierstrass import WeierstrassPolyModel

__all__ = [
    "BranchDecl",
    "CollisionDecl",
    "FibrationDescription",
    "parse_description",
    "parse_polynomial",
    "AXIS_BRANCH_NAMES",
    "MAX_FIBRE_INDEX",
    "MAX_EXPONENT",
    "MAX_TERMS",
    "MAX_DENOMINATOR_DIGITS",
    "MAX_MODEL_BITS",
]

AXIS_BRANCH_NAMES = ("s-axis", "t-axis")

# Largest finite valuation a [branch] line may declare.  A fibre's index
# (n of I_n or I_n*) is at most its vdelta, and a report lists one
# multiplicity per component, so its size and time grow with the index.
MAX_FIBRE_INDEX = 100_000

# Largest exponent of s or t in a polynomial term.  Delta = 4a^3 + 27b^2
# then has exponents of at most 3 * MAX_EXPONENT, so an axis fibre's
# index stays within MAX_FIBRE_INDEX.
MAX_EXPONENT = MAX_FIBRE_INDEX // 3

# Largest number of terms written in one polynomial.  The model never
# expands Delta (weierstrass.discriminant_vanishes, axis_profile),
# but where 4 a^3 and 27 b^2 cancel to a high power of an axis it builds
# the slices of a^2, a^3 and b^2 below that power, which can grow with
# the cube of the terms there.  The slowest shape a seeded search found,
# a = -3 c^2 and b = 2 c^3 below a high power of s with c of 17 terms
# (153 and 968 terms), parses and analyzes in about 1 s; the 150-term
# models of the 0.1 s target take under 0.01 s, and a model whose
# leading terms do not cancel costs time linear in its terms (one core
# of a shared 2-core machine, Python 3.11).
MAX_TERMS = 1000

# Largest number of digits of lam, the lcm of a model's coefficient
# denominators; the integral model multiplies a by lam^4 and b by lam^6.
# Coprime denominators make lam as long as all of them together (40
# terms over coprime 4000-digit ones: 160000 digits), and the work grows
# with the square of its length.  At the bound, a model of 2000 terms
# over one 4299-digit denominator (8.6 MB of input) parses in about 1 s
# before MAX_MODEL_BITS refuses it.  Any one denominator within Python's
# default literal limit fits.
MAX_DENOMINATOR_DIGITS = 4300
_DENOMINATOR_BOUND = 10**MAX_DENOMINATOR_DIGITS

# Largest total bit_length over all coefficients of the integral model
# (lam^4 a, lam^6 b), checked before Delta is read.  Where the leading
# terms of 4a^3 and 27b^2 cancel, the model multiplies axis slices of a
# and b, and the cost grows faster than linearly with the size of their
# coefficients; the bounds on literals and lam alone let 1000 terms of
# 4300-digit numbers through, hours of work.  The slowest model a seeded
# search found under the bound, a = -3 c^2 and b = 2 c^3 + s^71 t with c
# of 23 terms of 93 digits, parses and analyzes in about 2.2 s (one core
# of a shared 2-core machine, Python 3.11).  The corpus and the
# benchmark's models reach 1853 bits.
MAX_MODEL_BITS = 1_000_000


@dataclass(frozen=True)
class BranchDecl:
    name: str
    va: object
    vb: object
    vdelta: object
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class CollisionDecl:
    left: str
    right: str
    presentation: str | None = None
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class FibrationDescription:
    mode: str  # "branches" or "weierstrass"
    branches: tuple[BranchDecl, ...]
    model: WeierstrassPolyModel | None
    collisions: tuple[CollisionDecl, ...]
    topology: tuple[int, int, int, int] | None
    picard_degrees: tuple[int, ...] | None


# A run of digits check_digits refuses; the lookbehind tries each run
# once, so the scan stays linear
_TOO_LONG = re.compile(rf"(?<!\d)\d{{{DIGIT_LIMIT},}}") if DIGIT_LIMIT else None


# Each factor is one match: INT [/ INT] or s|t [^ INT], then the operator
# after it ('' at the end of the text, or before a token that cannot
# follow a factor) and the whitespace before the next token.  Only
# errors read the last two patterns.
_LEAD = re.compile(r"\s*([+-]?)\s*")
_FACTOR = re.compile(r"(?:(\d+)(?:\s*/\s*(\d+))?|([st])(?:\s*\^\s*(\d+))?)\s*([*+-]?)\s*")
_NOT_A_TOKEN = re.compile(r"[^\s\dst^*+/()-]")
_NEXT_TOKEN = re.compile(r"\d+|.")


def parse_polynomial(text: str, line: int = 0, col_offset: int = 0) -> poly.Poly:
    """Parse infix polynomial text into int (for ratios, Fraction) terms.

    Grammar:  poly  := [-] term ((+|-) term)*
              term  := factor (* factor)*
              factor:= INT [/ INT] | s | t | var ^ INT

    One left-to-right scan, one regex match per factor, each term summed
    into the result in place.  Errors keep the precedence of reading all
    tokens first: a character that is no token anywhere in the text wins,
    then the first grammar or bound error met.  MAX_TERMS is checked at
    the first token of a term past the bound, MAX_EXPONENT after a term's
    factors at its first token; an error at the end of the text points
    just past its last token.
    """
    text = text.rstrip()  # trailing whitespace ends the scan
    end = len(text)
    match = _FACTOR.match
    result: poly.Poly = {}
    m = _LEAD.match(text)
    sign = -1 if m.group(1) == "-" else 1
    pos = start = m.end()
    coeff, es, et, terms = 1, 0, 0, 1
    while True:
        m = match(text, pos)
        if m is None:
            at = pos
            message = (f"unexpected token {text[pos]!r} in polynomial" if pos < end
                       else "expected a coefficient or variable")
            break
        num, den, var, exp, op = m.groups()
        if num is not None:
            num = int(num)
            if den is None:
                coeff *= num
            else:
                den = int(den)
                if not den:
                    at, message = m.start(5), "zero denominator"
                    break
                coeff *= Fraction(num, den)
        elif var == "s":
            es += int(exp) if exp else 1
        else:
            et += int(exp) if exp else 1
        pos = m.end()
        if op == "*":
            continue
        if not op and pos < end:
            # a '/' or '^' whose operand is missing belongs to this factor
            if text[pos] == "/" and num is not None and den is None:
                at, message = end - len(text[pos + 1:].lstrip()), "expected an integer denominator"
                break
            if text[pos] == "^" and var and exp is None:
                at, message = end - len(text[pos + 1:].lstrip()), "expected an integer exponent after '^'"
                break
        if es > MAX_EXPONENT or et > MAX_EXPONENT:
            at, message = start, f"exponent exceeds the limit of {MAX_EXPONENT} (MAX_EXPONENT)"
            break
        # dropping a term that cancels keeps the result canonical
        key = (es, et)
        total = result.get(key, 0) + sign * coeff
        if total:
            result[key] = total
        else:
            result.pop(key, None)
        if not op:
            if pos == end:
                return result
            at, message = pos, f"expected '+' or '-', got {_NEXT_TOKEN.match(text, pos).group()!r}"
            break
        terms += 1
        if terms > MAX_TERMS:
            at, message = pos, f"polynomial has more than {MAX_TERMS} terms (MAX_TERMS)"
            break
        sign = 1 if op == "+" else -1
        start = pos
        coeff, es, et = 1, 0, 0
    bad = _NOT_A_TOKEN.search(text)
    if bad:
        at, message = bad.start(), f"unexpected character {bad.group()!r} in polynomial"
    raise ParseError([Diagnostic(line, col_offset + at + 1, message)])


_SECTION = re.compile(
    r"^\s*\[(?P<section>[A-Za-z][A-Za-z0-9-]*)(?:\s+(?P<name>[^\]]*?))?\s*\]\s*(?P<payload>.*)$"
)
# key = value; after whitespace, text that itself reads as 'key =' is the
# next pair, so 'va= vb=0' gives va an empty value
_KEYVAL = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(?!(?<=\s)[A-Za-z_][A-Za-z0-9_]*\s*=)(\S*)")
_WEIERSTRASS = re.compile(r"^\s*a\s*=\s*(.+?)\s+b\s*=\s*(.+?)\s*$")
_TOPOLOGY_KEYS = ("b2_X", "rho_X", "b2_S", "rho_S")


class _Fault(Exception):
    """The one syntax fault of a description line, with args (0-based
    column, message); parse_description makes it the line's Diagnostic."""


def _read_keys(m: re.Match, keys: tuple[str, ...]) -> dict[str, re.Match]:
    """The key=value pairs of a [branch] or [topology] line, as
    {key: match} in the order written with each key of keys once, or a
    _Fault for leftover text, a key missing, an unexpected key, a key
    given twice or an empty value."""
    payload, col, section = m["payload"], m.start("payload"), m["section"]
    found = {}
    repeated = False
    for kv in _KEYVAL.finditer(payload):
        repeated = repeated or kv[1] in found
        found.setdefault(kv[1], kv)
    leftovers = _KEYVAL.sub("", payload).strip()
    if leftovers:
        raise _Fault(col, f"unexpected text {leftovers!r} in [{section}]")
    missing = [k for k in keys if k not in found]
    extra = [k for k in found if k not in keys]
    if missing:
        what = f"missing {', '.join(missing)}"
    elif extra:
        what = f"unexpected {', '.join(extra)}"
    elif repeated:
        what = "duplicate keys"
    else:
        for key, kv in found.items():
            if not kv[2]:
                raise _Fault(col + kv.start(), f"{key} has an empty value")
        return found
    raise _Fault(col, f"[{section}] needs {', '.join(keys)} ({what})")


def _branch(m: re.Match, lineno: int) -> BranchDecl:
    if not m["name"]:
        raise _Fault(m.start("section"), "[branch] needs a name")
    col = m.start("payload")
    found = _read_keys(m, ("va", "vb", "vdelta"))
    values = {}
    for key, kv in found.items():
        try:
            values[key] = read_valuation(kv[2])
        except ValueError:
            raise _Fault(col, f"{key} must be a nonnegative integer or inf, got {kv[2]!r}")
    if values["vdelta"] == INFINITY:
        raise _Fault(col, "vdelta cannot be inf")
    for key, v in values.items():
        if v != INFINITY and v > MAX_FIBRE_INDEX:
            raise _Fault(col + found[key].start(),
                         f"{key} exceeds the limit of {MAX_FIBRE_INDEX} (MAX_FIBRE_INDEX)")
    return BranchDecl(m["name"].strip(), values["va"], values["vb"], values["vdelta"], lineno)


def _weierstrass(m: re.Match, lineno: int) -> tuple[int, poly.Poly, poly.Poly]:
    col = m.start("payload")
    wm = _WEIERSTRASS.match(m["payload"])
    if not wm:
        raise _Fault(col, "[weierstrass] needs 'a = POLY b = POLY'")
    return (lineno,
            parse_polynomial(wm[1], lineno, col + wm.start(1)),
            parse_polynomial(wm[2], lineno, col + wm.start(2)))


def _collision(m: re.Match, lineno: int) -> CollisionDecl:
    parts = m["payload"].split()
    pres = None
    if parts and parts[-1].startswith("presentation="):
        pres = parts.pop().split("=", 1)[1]
    if len(parts) != 2:
        raise _Fault(m.start("payload"),
                     "[collision] needs two branch names and an optional presentation=FILE")
    if pres == "":
        raise _Fault(m.start("payload") + m["payload"].rindex("presentation="),
                     "presentation has an empty value")
    return CollisionDecl(parts[0], parts[1], pres, lineno)


def _topology(m: re.Match, lineno: int) -> tuple[int, int, int, int]:
    found = _read_keys(m, _TOPOLOGY_KEYS)
    try:
        return tuple(read_nonnegative(found[k][2]) for k in _TOPOLOGY_KEYS)
    except ValueError:
        raise _Fault(m.start("payload"),
                     "[topology] needs b2_X, rho_X, b2_S, rho_S as nonnegative integers")


def _picard_degrees(m: re.Match, lineno: int) -> tuple[int, ...]:
    try:
        values = tuple(map(read_integer, m["payload"].split()))
    except ValueError:
        values = ()
    if not values:
        raise _Fault(m.start("payload"), "[picard-degrees] needs integers")
    return values


# section -> (reader, what a second one is called, or None where a file
# may hold any number).  A reader takes a line's _SECTION match and
# number and returns the section's value, or raises _Fault or
# parse_polynomial's ParseError.
_SECTIONS = {
    "branch": (_branch, None),
    "weierstrass": (_weierstrass, "model"),
    "collision": (_collision, None),
    "topology": (_topology, "line"),
    "picard-degrees": (_picard_degrees, "line"),
}


def _integral(a: poly.Poly, b: poly.Poly, line: int) -> WeierstrassPolyModel:
    """(lam^4 a, lam^6 b) with lam the lcm of all denominators: an isomorphic
    model with int coefficients, the same valuations and Delta * lam^12,
    so the model's leading-term reads of Delta run on ints.  Raises
    ParseError, at column 1 of the line, when lam has more than
    MAX_DENOMINATOR_DIGITS digits or the coefficients more than
    MAX_MODEL_BITS bits in all, and DegenerateModel when Delta vanishes."""
    lam = 1
    for c in (*a.values(), *b.values()):
        lam = math.lcm(lam, c.denominator)
        if lam >= _DENOMINATOR_BOUND:
            raise ParseError([Diagnostic(
                line, 1,
                "the lcm of the coefficient denominators exceeds "
                f"{MAX_DENOMINATOR_DIGITS} digits (MAX_DENOMINATOR_DIGITS)",
            )])
    # lam^k / den = (lam / den) lam^(k-1), as den divides lam: a short
    # division and a product, where dividing lam^k itself takes longer
    integral, bits = [], 0
    for p, lam_k in ((a, lam**3), (b, lam**5)):
        out = {}
        for e, c in p.items():
            out[e] = v = c.numerator * (lam // c.denominator) * lam_k
            bits += v.bit_length()
            if bits > MAX_MODEL_BITS:
                raise ParseError([Diagnostic(
                    line, 1,
                    f"the integral model's coefficients exceed {MAX_MODEL_BITS} bits "
                    "in all (MAX_MODEL_BITS)",
                )])
        integral.append(out)
    return WeierstrassPolyModel(*integral)


def parse_description(text: str) -> FibrationDescription:
    """Parse and validate a description file.

    Raises ParseError with positioned diagnostics for syntax problems,
    or, where there are none, naming the offending branch or collision
    for semantic ones.
    """
    syntax: list[Diagnostic] = []
    found: dict[str, list] = {section: [] for section in _SECTIONS}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        if not line.strip():
            continue
        try:
            long_number = _TOO_LONG and _TOO_LONG.search(line)
            if long_number:
                try:
                    check_digits(long_number[0])
                except ValueError as exc:
                    raise _Fault(long_number.start(), str(exc))
            m = _SECTION.match(line)
            if not m:
                raise _Fault(len(line) - len(line.lstrip()), "expected a [section] header")
            section = m["section"]
            entry = _SECTIONS.get(section)
            if entry is None:
                raise _Fault(m.start("section"), f"unknown section [{section}]")
            read, again = entry
            value = read(m, lineno)
            if again and found[section]:
                raise _Fault(m.start("section"), f"only one [{section}] {again} is allowed")
            found[section].append(value)
        except _Fault as fault:
            column, message = fault.args
            syntax.append(Diagnostic(lineno, column + 1, message))
        except ParseError as exc:
            syntax.extend(exc.diagnostics)

    if syntax:
        raise ParseError(syntax)

    branches, collisions = found["branch"], found["collision"]
    model_line, *coeffs = found["weierstrass"][0] if found["weierstrass"] else (0,)
    topology = found["topology"][0] if found["topology"] else None
    degrees = found["picard-degrees"][0] if found["picard-degrees"] else None

    semantic: list[Diagnostic] = []
    if coeffs and branches:
        semantic.append(Diagnostic(
            model_line, 1, "[weierstrass] and [branch] modes cannot be mixed"
        ))
    if not coeffs and not branches:
        semantic.append(Diagnostic(1, 1, "no branches declared: need [branch] lines or a [weierstrass] model"))

    seen: dict[str, int] = {}
    for b in branches:
        if b.name in seen:
            semantic.append(Diagnostic(b.line, 1, f"branch {b.name!r} declared twice"))
        seen[b.name] = b.line
        if b.name in AXIS_BRANCH_NAMES:
            semantic.append(Diagnostic(b.line, 1, f"branch name {b.name!r} is reserved for polynomial mode"))

    model: WeierstrassPolyModel | None = None
    if coeffs:
        try:
            model = _integral(*coeffs, model_line)
        except ParseError as exc:
            semantic.extend(exc.diagnostics)
        except DegenerateModel as exc:
            semantic.append(Diagnostic(model_line, 1, str(exc)))
        declared = set(AXIS_BRANCH_NAMES)
    else:
        declared = {b.name for b in branches}

    for c in collisions:
        for side in (c.left, c.right):
            if side not in declared:
                hint = " (polynomial mode branches are 's-axis' and 't-axis')" if coeffs else ""
                semantic.append(Diagnostic(
                    c.line, 1, f"collision references undeclared branch {side!r}{hint}"
                ))
        if c.left == c.right:
            semantic.append(Diagnostic(
                c.line, 1, f"collision needs two distinct branches, got {c.left!r} twice"
            ))

    if semantic:
        raise ParseError(semantic)

    return FibrationDescription(
        mode="weierstrass" if model is not None else "branches",
        branches=tuple(branches),
        model=model,
        collisions=tuple(collisions),
        topology=topology,
        picard_degrees=degrees,
    )

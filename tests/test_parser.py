"""Tests for the description-file reader: both input modes, positioned
diagnostics, semantic validation and the canonical renderer."""

import pathlib
import random
from fractions import Fraction

import pytest

from ellfib import parser, poly
from ellfib.errors import ParseError
from ellfib.parser import (
    AXIS_BRANCH_NAMES,
    MAX_DENOMINATOR_DIGITS,
    MAX_EXPONENT,
    MAX_FIBRE_INDEX,
    MAX_MODEL_BITS,
    MAX_TERMS,
    BranchDecl,
    CollisionDecl,
    parse_description,
    parse_polynomial,
)
from ellfib.readers import INFINITY
from ellfib.weierstrass import WeierstrassPolyModel, axis_profile

from support import (
    discriminant,
    parse_polynomial_tokens,
    power,
    power_of_two,
    render_description,
    render_poly,
)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


# ---------------------------------------------------------------------------
# polynomial sub-parser


def test_parse_polynomial_forms():
    s = poly.monomial(1, 1, 0)
    assert parse_polynomial("s") == s
    assert parse_polynomial("-s + 1") == poly.add(poly.scale(s, -1), poly.monomial(1))
    assert parse_polynomial("2*s^3*t") == poly.monomial(2, 3, 1)
    assert parse_polynomial("1/2*t^2") == poly.monomial(Fraction(1, 2), 0, 2)
    assert parse_polynomial("s*s*s") == poly.monomial(1, 3, 0)
    assert parse_polynomial("3 - 3") == {}
    assert parse_polynomial("+t") == poly.monomial(1, 0, 1)


def test_parse_polynomial_keeps_integers_int():
    assert {type(c) for c in parse_polynomial("2*s^3*t - 5 + s").values()} == {int}
    assert {type(c) for c in parse_polynomial("1/2*t^2 + 3/3*s").values()} == {Fraction}


def test_parse_polynomial_errors_are_positioned():
    with pytest.raises(ParseError) as info:
        parse_polynomial("s^", line=3, col_offset=10)
    (diag,) = info.value.diagnostics
    assert diag.line == 3
    assert "exponent" in diag.message
    with pytest.raises(ParseError) as info:
        parse_polynomial("s^x")
    assert "unexpected character 'x'" in str(info.value)
    with pytest.raises(ParseError):
        parse_polynomial("s t")  # missing '*'
    with pytest.raises(ParseError):
        parse_polynomial("1/0")
    with pytest.raises(ParseError):
        parse_polynomial("")
    with pytest.raises(ParseError):
        parse_polynomial("s + @")


def _parse_outcome(parse, text, line, col_offset):
    """What a polynomial reader makes of text: the terms with the type of
    each coefficient, or the (line, column, message) of each diagnostic."""
    try:
        result = parse(text, line, col_offset)
    except ParseError as exc:
        return [(d.line, d.column, d.message) for d in exc.diagnostics]
    return result, {e: type(c) for e, c in result.items()}


def _random_polynomial(rng: random.Random) -> str:
    """Signs, ratios, repeated and cancelling monomials, free whitespace."""
    def gap():
        return rng.choice(("", "", " ", "  ", "\t"))

    def factor():
        if rng.random() < 0.4:
            f = str(rng.choice((0, 1, 2, 3, 10, 12, 100)))
            if rng.random() < 0.4:
                f += gap() + "/" + gap() + str(rng.choice((1, 2, 3, 4, 6)))
            return f
        f = rng.choice("st")
        if rng.random() < 0.5:
            f += gap() + "^" + gap() + str(rng.randint(0, 6))
        return f

    text = gap() + rng.choice(("", "", "-", "+")) + gap()
    for k in range(rng.randint(1, 6)):
        if k:
            text += gap() + rng.choice("+-") + gap()
        text += (gap() + "*" + gap()).join(factor() for _ in range(rng.randint(1, 3)))
    return text + gap()


_MUTATION_ALPHABET = "0123456789st^*+-/()@x\t \u0663"  # U+0663: an Arabic-Indic 3


def _mutate(rng: random.Random, text: str) -> str:
    """One to three byte-level edits: delete, insert or replace a character."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(chars))
        edit = rng.randrange(3)
        if edit == 1 or not chars:
            chars.insert(i, rng.choice(_MUTATION_ALPHABET))
        elif edit == 0:
            del chars[min(i, len(chars) - 1)]
        else:
            chars[min(i, len(chars) - 1)] = rng.choice(_MUTATION_ALPHABET)
    return "".join(chars)


def test_scanner_agrees_with_the_token_parser():
    # the one-pass scanner against the token parser it replaced: equal
    # terms and coefficient types on valid text, and equal diagnostics,
    # with their precedence, on mutations of it
    rng = random.Random(12)
    errors = 0
    for case in range(5000):
        text = _random_polynomial(rng)
        if case % 2:
            text = _mutate(rng, text)
        line, col_offset = rng.randint(1, 9), rng.randint(1, 30)
        expected = _parse_outcome(parse_polynomial_tokens, text, line, col_offset)
        assert _parse_outcome(parse_polynomial, text, line, col_offset) == expected, text
        errors += isinstance(expected, list)
    assert 1000 < errors < 2500  # both valid and invalid text were read


# ---------------------------------------------------------------------------
# branch mode


def test_parse_branch_mode():
    text = """
# two crossing branches
[branch A] va=0 vb=0 vdelta=2
[branch B] va=2 vb=3 vdelta=6   # trailing comment
[branch C] va = 0 vb= 1 vdelta =2
[collision] A B
[topology] b2_X=23 rho_X=20 b2_S=2 rho_S=1
[picard-degrees] 3 0
"""
    d = parse_description(text)
    assert d.mode == "branches"
    assert d.branches == (
        BranchDecl("A", 0, 0, 2),
        BranchDecl("B", 2, 3, 6),
        BranchDecl("C", 0, 1, 2),
    )
    assert d.branches[0].line == 3
    assert d.collisions == (CollisionDecl("A", "B", None),)
    assert d.topology == (23, 20, 2, 1)
    assert d.picard_degrees == (3, 0)
    assert d.model is None


def test_parse_infinite_valuations():
    d = parse_description("[branch A] va=inf vb=2 vdelta=4\n")
    assert d.branches[0].va == INFINITY
    assert d.branches[0].vb == 2
    with pytest.raises(ParseError) as info:
        parse_description("[branch A] va=0 vb=0 vdelta=inf\n")
    assert "vdelta cannot be inf" in str(info.value)


def test_digits_int_cannot_read_are_diagnosed():
    # '²' passes str.isdigit() but int() refuses it
    with pytest.raises(ParseError) as info:
        parse_description("[branch A] va=\u00b2 vb=0 vdelta=0\n")
    assert "va must be a nonnegative integer or inf" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_description(
            "[branch A] va=0 vb=0 vdelta=1\n[topology] b2_X=\u00b2 rho_X=1 b2_S=1 rho_S=1\n"
        )
    assert "[topology] needs" in str(info.value)


@pytest.mark.parametrize("lines,diagnostic", [
    (["[topology] b2_X=23 rho_X=20 b2_S=2 rho_S=1 b2_X=5 junk here"],
     (2, 12, "unexpected text 'junk here' in [topology]")),
    (["[topology]  b2_X=23 rho_X=20 b2_S=2 rho_S=1 b2_X=5"],
     (2, 13, "[topology] needs b2_X, rho_X, b2_S, rho_S (duplicate keys)")),
    (["[topology] b2_X=23 rho_X=20 b2_S=2 rho_S=1", "  [topology] b2_X=13 rho_X=2 b2_S=2 rho_S=1"],
     (3, 4, "only one [topology] line is allowed")),
    (["[picard-degrees] 3 0", "[picard-degrees] 2"],
     (3, 2, "only one [picard-degrees] line is allowed")),
    # an empty value is not the next key=value pair
    (["[branch B] va= vb=0 vdelta=1"], (2, 12, "va has an empty value")),
    (["[topology] b2_X= rho_X=20 b2_S=2 rho_S=1"], (2, 12, "b2_X has an empty value")),
    (["[topology] b2_X=23 rho_X=20 b2_S=2 rho_S="], (2, 36, "rho_S has an empty value")),
    (["[collision] A B  presentation= "], (2, 18, "presentation has an empty value")),
], ids=["topology-leftover-text", "topology-repeated-key", "second-topology", "second-picard-degrees",
        "branch-empty-value", "topology-empty-value", "topology-empty-last-value",
        "collision-empty-presentation"])
def test_shared_section_diagnostics(lines, diagnostic):
    with pytest.raises(ParseError) as info:
        parse_description("\n".join(["[branch A] va=0 vb=0 vdelta=1", *lines]) + "\n")
    (diag,) = info.value.diagnostics
    assert (diag.line, diag.column, diag.message) == diagnostic


def test_parse_collision_with_presentation():
    d = parse_description(
        "[branch A] va=0 vb=0 vdelta=2\n"
        "[branch B] va=2 vb=3 vdelta=6\n"
        "[collision] A B presentation=local/pres.json\n"
    )
    assert d.collisions[0].presentation == "local/pres.json"


def test_branch_syntax_diagnostics_positions():
    with pytest.raises(ParseError) as info:
        parse_description("[branch A] va=0 vb=0\n")
    (diag,) = info.value.diagnostics
    assert (diag.line, diag.column) == (1, 12)
    assert "missing vdelta" in diag.message

    with pytest.raises(ParseError) as info:
        parse_description("[branch A] va=0 vb=0 vdelta=2 extra=1\n")
    assert "unexpected extra" in info.value.diagnostics[0].message

    with pytest.raises(ParseError) as info:
        parse_description("[branch A] va=0 vb=0 vdelta=x\n")
    assert "vdelta must be" in info.value.diagnostics[0].message

    with pytest.raises(ParseError) as info:
        parse_description("[branch] va=0 vb=0 vdelta=1\n")
    assert "needs a name" in info.value.diagnostics[0].message


def test_branch_valuations_are_bounded():
    # the bound sits well above the largest index anyone reports on
    assert MAX_FIBRE_INDEX >= 30 * 3000
    at_bound = parse_description(
        f"[branch A] va=inf vb={MAX_FIBRE_INDEX} vdelta={MAX_FIBRE_INDEX}\n"
    )
    assert at_bound.branches[0].vdelta == MAX_FIBRE_INDEX
    for text, key, col in (
        (f"[branch A] va=0 vb=0 vdelta={MAX_FIBRE_INDEX + 1}\n", "vdelta", 22),
        (f"[branch A] va=0  vb={10**40} vdelta=0\n", "vb", 18),
        ("[branch A] va=" + "9" * 4299 + " vb=0 vdelta=0\n", "va", 12),
    ):
        with pytest.raises(ParseError) as info:
            parse_description(text)
        (diag,) = info.value.diagnostics
        assert (diag.line, diag.column) == (1, col)
        assert diag.message == (
            f"{key} exceeds the limit of {MAX_FIBRE_INDEX} (MAX_FIBRE_INDEX)"
        )


def test_polynomial_exponents_are_bounded():
    assert 3 * MAX_EXPONENT <= MAX_FIBRE_INDEX
    assert parse_polynomial(f"s^{MAX_EXPONENT}*t^{MAX_EXPONENT}") == poly.monomial(
        1, MAX_EXPONENT, MAX_EXPONENT
    )
    for text, col in (  # the column of the offending term
        (f"2*s^{MAX_EXPONENT + 1}", 1),
        (f"t + s^{MAX_EXPONENT}*t*s", 5),
        ("1 - t^" + "9" * 4300, 5),
    ):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, line=4)
        (diag,) = info.value.diagnostics
        assert (diag.line, diag.column) == (4, col)
        assert diag.message == f"exponent exceeds the limit of {MAX_EXPONENT} (MAX_EXPONENT)"


def test_polynomial_terms_are_bounded():
    # MAX_TERMS counts written terms, cancelling ones too; the diagnostic
    # points at the first term beyond the bound
    at_bound = " + ".join(f"t^{k}" for k in range(MAX_TERMS))
    assert len(parse_polynomial(at_bound)) == MAX_TERMS
    cancelling = " + ".join(["s - s"] * (MAX_TERMS // 2))
    assert parse_polynomial(cancelling) == {}
    for text in (at_bound + " - 7", cancelling + " + t"):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, line=2, col_offset=10)
        (diag,) = info.value.diagnostics
        assert (diag.line, diag.column) == (2, 10 + len(text))
        assert diag.message == f"polynomial has more than {MAX_TERMS} terms (MAX_TERMS)"


def test_term_bound_reached_at_the_end_of_the_text():
    # a term sign after the last allowed term, with no term behind it:
    # the bound is met before the missing factor, at the end of the text
    text = " + ".join(f"t^{k}" for k in range(MAX_TERMS)) + " +"
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, line=2, col_offset=10)
    (diag,) = info.value.diagnostics
    assert (diag.line, diag.column) == (2, 10 + len(text) + 1)
    assert diag.message == f"polynomial has more than {MAX_TERMS} terms (MAX_TERMS)"


def test_blank_polynomial_is_a_positioned_error():
    # trailing whitespace ends the scan, and a blank polynomial meets the
    # diagnostic for a missing first factor
    assert parse_polynomial("1 ") == {(0, 0): 1}
    assert parse_polynomial("s \t") == poly.monomial(1, 1, 0)
    for text in ("", " ", " \t"):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, line=2, col_offset=10)
        (diag,) = info.value.diagnostics
        assert (diag.line, diag.column, diag.message) == (2, 11, "expected a coefficient or variable")
    for text, col in (("[weierstrass] a =  b = s\n", 18), ("[weierstrass] a = s b = #1\n", 24)):
        with pytest.raises(ParseError) as info:
            parse_description(text)
        (diag,) = info.value.diagnostics
        assert (diag.line, diag.column, diag.message) == (1, col, "expected a coefficient or variable")


def test_denominator_lcm_is_bounded():
    # lam = d fits; with a second, coprime denominator of as many digits
    # lam has 4401 > MAX_DENOMINATOR_DIGITS digits
    d = 10**2200 + 1
    model = parse_description(f"[weierstrass] a = 1/{d}*s b = 2/{d}*t\n").model
    assert (model.a, model.b) == ({(1, 0): d**3}, {(0, 1): 2 * d**5})
    with pytest.raises(ParseError) as info:
        parse_description(f"[weierstrass] a = 1/{d}*s b = 1/{d + 2}*t\n")
    (diag,) = info.value.diagnostics
    assert (diag.line, diag.column) == (1, 1)
    assert diag.message == (
        f"the lcm of the coefficient denominators exceeds {MAX_DENOMINATOR_DIGITS} "
        "digits (MAX_DENOMINATOR_DIGITS)"
    )


def test_integral_model_size_is_bounded():
    # a = 2^(B - 2) s has B - 1 bits and b = t one: B bits in all
    at_bound = parse_description(f"[weierstrass] a = {power_of_two(MAX_MODEL_BITS - 2)}*s b = t\n")
    assert at_bound.model.a == {(1, 0): 2 ** (MAX_MODEL_BITS - 2)}
    message = f"the integral model's coefficients exceed {MAX_MODEL_BITS} bits in all (MAX_MODEL_BITS)"
    for a, b in (
        (f"{power_of_two(MAX_MODEL_BITS - 1)}*s", "t"),
        # lam = 2 makes these lam^4 a = 2^(B - 2) s and lam^6 b = 2^5 t
        (f"{power_of_two(MAX_MODEL_BITS - 6)}*s", "1/2*t"),
        # the bound comes before the check that Delta vanishes
        (f"-3*{power_of_two(MAX_MODEL_BITS)}*s^2", f"2*{power_of_two(3 * MAX_MODEL_BITS // 2)}*s^3"),
    ):
        with pytest.raises(ParseError) as info:
            parse_description(f"[branch A] va=0 vb=0 vdelta=1\n\n[weierstrass] a = {a} b = {b}\n")
        assert [(d.line, d.column, d.message) for d in info.value.diagnostics] == [
            (3, 1, "[weierstrass] and [branch] modes cannot be mixed"),
            (3, 1, message),
        ]


def test_multiple_syntax_errors_are_collected():
    with pytest.raises(ParseError) as info:
        parse_description(
            "[branch A] va=0\n"
            "not a section\n"
            "[mystery] 1 2 3\n"
        )
    lines = [d.line for d in info.value.diagnostics]
    assert lines == [1, 2, 3]


def test_semantic_validation_branch_mode():
    # duplicate names
    with pytest.raises(ParseError) as info:
        parse_description(
            "[branch A] va=0 vb=0 vdelta=1\n[branch A] va=0 vb=0 vdelta=2\n"
        )
    assert "declared twice" in str(info.value)
    # reserved axis names
    for name in AXIS_BRANCH_NAMES:
        with pytest.raises(ParseError):
            parse_description(f"[branch {name}] va=0 vb=0 vdelta=1\n")
    # undeclared collision reference
    with pytest.raises(ParseError) as info:
        parse_description("[branch A] va=0 vb=0 vdelta=1\n[collision] A B\n")
    assert "undeclared branch 'B'" in str(info.value)
    # self-collision
    with pytest.raises(ParseError) as info:
        parse_description("[branch A] va=0 vb=0 vdelta=1\n[collision] A A\n")
    assert "two distinct branches" in str(info.value)
    # empty input
    with pytest.raises(ParseError):
        parse_description("")


# ---------------------------------------------------------------------------
# polynomial mode


def test_parse_weierstrass_mode():
    d = parse_description("[weierstrass] a = s^2*t^2 b = s^3*t^3\n[collision] s-axis t-axis\n")
    assert d.mode == "weierstrass"
    assert d.model.a == poly.monomial(1, 2, 2)
    assert d.model.b == poly.monomial(1, 3, 3)
    assert d.branches == ()
    assert d.collisions == (CollisionDecl("s-axis", "t-axis", None),)


def test_weierstrass_mode_validation():
    # mixing modes
    with pytest.raises(ParseError) as info:
        parse_description(
            "[branch A] va=0 vb=0 vdelta=1\n[weierstrass] a = s b = t\n"
        )
    assert "cannot be mixed" in str(info.value)
    # degenerate model: 4 a^3 + 27 b^2 = 0
    with pytest.raises(ParseError) as info:
        parse_description("[weierstrass] a = -3*t^2 b = 2*t^3\n")
    assert "vanishes identically" in str(info.value)
    # collisions must reference the axis branches
    with pytest.raises(ParseError) as info:
        parse_description("[weierstrass] a = s b = t\n[collision] s-axis x-axis\n")
    assert "s-axis" in str(info.value) and "t-axis" in str(info.value)
    # a second model
    with pytest.raises(ParseError) as info:
        parse_description("[weierstrass] a = s b = t\n[weierstrass] a = t b = s\n")
    assert "only one" in str(info.value)
    # malformed payload
    with pytest.raises(ParseError):
        parse_description("[weierstrass] a = s\n")


def test_polynomials_are_read_through_the_module_global(monkeypatch):
    # perfbench/tracing.py times parse_polynomial by replacing the module
    # global, so parse_description must look it up on every call
    calls = []

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    real = parser.parse_polynomial
    monkeypatch.setattr(parser, "parse_polynomial", counting)
    parse_description("[weierstrass] a = -3*s^2 b = 2*t^3\n")
    assert calls == ["-3*s^2", "2*t^3"]


def test_weierstrass_polynomial_error_position():
    with pytest.raises(ParseError) as info:
        parse_description("[weierstrass] a = s^ b = t\n")
    (diag,) = info.value.diagnostics
    assert diag.line == 1
    assert diag.column == 21  # right after the dangling '^'
    assert "exponent" in diag.message


def test_weierstrass_model_is_made_integral():
    d = parse_description((CORPUS / "rational_cancel.fib").read_text(encoding="utf-8"))
    # lam = 4: a = 4^4 * (-3/4 s^2), b = 4^6 * (1/4 s^3 + s^4)
    assert d.model.a == {(2, 0): -192}
    assert d.model.b == {(3, 0): 1024, (4, 0): 4096}
    assert render_description(d) == "[weierstrass] a = -192*s^2 b = 4096*s^4 + 1024*s^3\n"


def _ratio_poly(rng: random.Random, terms: int) -> poly.Poly:
    p = {}
    for _ in range(terms):
        c = Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.choice((1, 2, 3, 4, 6, 9)))
        p = poly.add(p, poly.monomial(c, rng.randrange(3), rng.randrange(3)))
    return p


def test_denominator_clearing_oracle():
    # The parsed model has int coefficients; its axis profiles must equal
    # those of the model built on the original Fraction polynomials, and
    # its discriminant must be a constant multiple of theirs.  Odd cases
    # use a = -3 w^2, b = 2 w^3 + r, so 4 a^3 and 27 b^2 cancel in their
    # leading terms whenever v(r) > 3 v(w).
    rng = random.Random(1018)
    cancelled = 0
    for i in range(80):
        w = _ratio_poly(rng, rng.randint(1, 3))
        r = poly.mul(poly.monomial(Fraction(1, rng.choice((1, 5, 8))), 1, 1), _ratio_poly(rng, 2))
        if i % 2:
            a = poly.scale(poly.mul(w, w), -3)
            b = poly.add(poly.scale(power(w, 3), 2), r)
        else:
            a, b = w, r
        text = f"[weierstrass] a = {render_poly(a)} b = {render_poly(b)}\n"
        oracle = WeierstrassPolyModel(a, b)
        model = parse_description(text).model
        assert {type(c) for p in (model.a, model.b) for c in p.values()} <= {int}
        delta, oracle_delta = discriminant(model.a, model.b), discriminant(a, b)
        assert delta.keys() == oracle_delta.keys()
        assert len({Fraction(delta[e], oracle_delta[e]) for e in delta}) == 1
        for axis in ("s", "t"):
            profile = axis_profile(model, axis)
            assert profile == axis_profile(oracle, axis), (text, axis)
            cancelled += profile.vdelta > min(3 * profile.va, 2 * profile.vb)
    assert cancelled >= 10


# ---------------------------------------------------------------------------
# rendering


def test_render_parse_round_trip_on_corpus():
    for path in sorted(CORPUS.glob("*.fib")):
        text = path.read_text(encoding="utf-8")
        d = parse_description(text)
        assert parse_description(render_description(d)) == d, path.name


def test_render_canonical_forms():
    d = parse_description("[branch A] va=inf vb=2 vdelta=4\n")
    assert render_description(d) == "[branch A] va=inf vb=2 vdelta=4\n"
    d = parse_description(
        "[weierstrass] a = s b = t\n"
        "[collision] s-axis t-axis\n"
        "[topology] b2_X=4 rho_X=2 b2_S=2 rho_S=1\n"
        "[picard-degrees] 2\n"
    )
    assert render_description(d) == (
        "[weierstrass] a = s b = t\n"
        "[collision] s-axis t-axis\n"
        "[topology] b2_X=4 rho_X=2 b2_S=2 rho_S=1\n"
        "[picard-degrees] 2\n"
    )

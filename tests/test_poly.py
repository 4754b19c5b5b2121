"""Tests for sparse exact two-variable polynomials."""

import random
from fractions import Fraction

import pytest

from ellfib import poly
from ellfib.parser import parse_polynomial
from support import power, render_poly


def test_construction_and_canonical_zero():
    assert poly.monomial(0, 3, 1) == {}
    assert poly.monomial(5) == {(0, 0): Fraction(5)}
    assert poly.monomial(Fraction(1, 2), 2, 1) == {(2, 1): Fraction(1, 2)}
    with pytest.raises(ValueError):
        poly.monomial(1, -1, 0)


def test_arithmetic_keeps_representation_canonical():
    p = poly.monomial(3, 1, 0)  # 3 s
    q = poly.monomial(-3, 1, 0)
    assert poly.add(p, q) == {}
    assert poly.scale(p, 0) == {}
    # (s + t)(s - t) = s^2 - t^2: the cross terms cancel and vanish
    s, t = poly.monomial(1, 1, 0), poly.monomial(1, 0, 1)
    prod = poly.mul(poly.add(s, t), poly.add(s, poly.scale(t, -1)))
    assert prod == poly.add(poly.monomial(1, 2, 0), poly.monomial(-1, 0, 2))


def test_power():
    s_plus_one = poly.add(poly.monomial(1, 1, 0), poly.monomial(1))
    cube = power(s_plus_one, 3)
    assert cube == {
        (3, 0): Fraction(1),
        (2, 0): Fraction(3),
        (1, 0): Fraction(3),
        (0, 0): Fraction(1),
    }
    assert power(s_plus_one, 0) == poly.monomial(1)
    assert power(s_plus_one, 1) == s_plus_one
    with pytest.raises(ValueError):
        power(s_plus_one, -1)


def test_divide_is_exact_or_none():
    s_plus_one = poly.add(poly.monomial(1, 1, 0), poly.monomial(1))
    t_minus_half = poly.add(poly.monomial(1, 0, 1), poly.monomial(Fraction(-1, 2)))
    prod = poly.mul(s_plus_one, t_minus_half)
    assert poly.divide(prod, s_plus_one) == t_minus_half
    assert poly.divide(prod, t_minus_half) == s_plus_one
    assert poly.divide({}, s_plus_one) == {}
    # the quotient keeps int coefficients where the division is exact in Z
    assert poly.divide(poly.scale(prod, 2), t_minus_half) == {(1, 0): 2, (0, 0): 2}
    # s^2 + 1 is not a multiple of s + 1 (remainder 2); t does not divide
    # s, nor s^2 t^3 divide s t^4 (quotient exponent below zero)
    assert poly.divide(poly.add(poly.monomial(1, 2, 0), poly.monomial(1)), s_plus_one) is None
    assert poly.divide(poly.monomial(1, 1, 0), poly.monomial(1, 0, 1)) is None
    assert poly.divide(poly.monomial(1, 1, 4), poly.monomial(1, 2, 3)) is None
    rng = random.Random(7)
    for _ in range(60):
        p, q = ({(rng.randrange(4), rng.randrange(4)): Fraction(rng.randint(1, 5), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 4))} for _ in range(2))
        assert poly.divide(poly.mul(p, q), q) == p
        r = poly.add(poly.mul(p, q), poly.monomial(1, rng.randrange(8), rng.randrange(8)))
        quotient = poly.divide(r, q)
        assert quotient is None or poly.mul(quotient, q) == r


def test_mul_into_accumulates_in_place():
    s, t = poly.monomial(1, 1, 0), poly.monomial(1, 0, 1)
    out = poly.mul(s, s)
    assert poly.mul(t, t, out) is out
    assert poly.mul(s, poly.scale(s, -1), out) == {(0, 2): 1}


def test_render_fixed_forms():
    assert render_poly({}) == "0"
    assert render_poly(poly.monomial(-3)) == "-3"
    assert render_poly(poly.monomial(1, 1, 0)) == "s"
    assert render_poly(poly.monomial(Fraction(1, 2), 1, 0)) == "1/2*s"
    assert render_poly(poly.monomial(-1, 2, 3)) == "-s^2*t^3"
    p = poly.add(poly.monomial(1, 0, 1), poly.add(poly.monomial(-2, 1, 1), poly.monomial(7)))
    # sorted by total degree descending, then s-degree descending
    assert render_poly(p) == "-2*s*t + t + 7"


def test_render_parse_round_trip():
    rng = random.Random(41)
    for _ in range(120):
        p = {}
        for _ in range(rng.randint(1, 5)):
            coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            p = poly.add(p, poly.monomial(coeff, rng.randint(0, 4), rng.randint(0, 4)))
        assert parse_polynomial(render_poly(p)) == p

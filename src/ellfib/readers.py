"""How ellfib reads and writes a number.

Description files, command-line arguments and presentation JSON share
one grammar, one reader per kind of number: read_valuation,
read_nonnegative and read_integer.  Digits are str.isdecimal() digits,
'-' may stand before an integer, and 'inf' or 'infinity' in any case is
an infinite valuation; other text raises ValueError.  Every number has
fewer digits than int() reads (check_digits).

INFINITY is the valuation of the zero polynomial, and render_valuation
is its one spelling on output, "inf".
"""

from __future__ import annotations

import sys

__all__ = [
    "INFINITY",
    "DIGIT_LIMIT",
    "check_digits",
    "read_valuation",
    "read_nonnegative",
    "read_integer",
    "render_valuation",
]

INFINITY = float("inf")

# int() refuses decimal text of more digits than this (0: no limit).
# Read once, at import: a later sys.set_int_max_str_digits() is not seen.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def check_digits(digits: str) -> None:
    """Raise ValueError unless digits has fewer digits than int() reads:
    the one rule for every number ellfib reads, so that a sum of two, or
    an index plus 5, still prints."""
    if DIGIT_LIMIT and len(digits) >= DIGIT_LIMIT:
        raise ValueError(f"number of {len(digits)} digits exceeds the limit of {DIGIT_LIMIT - 1} digits")


def read_nonnegative(text: str) -> int:
    """A [topology] value, a corank argument, a command-line vdelta or
    the index of a fibre type."""
    if not text.isdecimal():
        raise ValueError(f"expected a nonnegative integer, got {text!r}")
    check_digits(text)
    return int(text)


def read_valuation(text: str):
    """A valuation of a or b (in a file, of the discriminant too)."""
    if text.lower() in ("inf", "infinity"):
        return INFINITY
    if not text.isdecimal():
        raise ValueError(f"expected a nonnegative integer or 'inf', got {text!r}")
    return read_nonnegative(text)


def read_integer(text: str) -> int:
    """A [picard-degrees] entry, a delta-gcd argument or an integer in
    presentation JSON."""
    digits = text[1:] if text[:1] == "-" else text
    if not digits.isdecimal():
        raise ValueError(f"expected an integer, got {text!r}")
    check_digits(digits)
    return int(text)


def render_valuation(v):
    """A valuation as it is printed: "inf" for INFINITY, a finite one as
    the int itself, so it reads the same in text and in JSON."""
    return "inf" if v == INFINITY else v

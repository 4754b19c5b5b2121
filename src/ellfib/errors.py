"""Exception types shared across the library.

Everything raised on purpose derives from FibrationError, so callers can
distinguish engine failures from input problems (ParseError) when
choosing an exit code.
"""

import json
from contextlib import contextmanager
from dataclasses import dataclass


class FibrationError(Exception):
    """Base class for all errors raised by this library."""


class DimensionMismatch(FibrationError):
    """Matrix shapes do not compose."""


class CommutationFailure(FibrationError):
    """A square of integer matrices that must commute does not."""


class InvalidProfile(FibrationError):
    """Valuation triple violates the discriminant relation."""


class NotMinimal(FibrationError):
    """Profile still admits a full quadratic/cubic twist."""


class DegenerateModel(FibrationError):
    """The discriminant 4a^3 + 27b^2 vanishes identically."""


class InvalidCollision(FibrationError):
    """A collision needs both branches inside the discriminant."""


class ProfileInconsistent(FibrationError):
    """Summed branch valuations cannot come from a monomial model."""


class DepthExceeded(FibrationError):
    """Blow-up worklist passed the configured depth bound."""


class LatticeTooLarge(FibrationError):
    """A fibre has more components than an explicit Gram matrix is built for."""


class PresentationInconsistent(FibrationError):
    """Component presentation data fails its bookkeeping identities."""


class NegativeCorank(FibrationError):
    """Topological corank formula returned a negative number."""


class AllZero(FibrationError):
    """gcd of an all-zero (or empty) degree list is undefined."""


@dataclass(frozen=True)
class Diagnostic:
    """One message attached to an input file, positioned unless line is
    None."""

    line: int
    column: int
    message: str

    def __str__(self) -> str:
        if self.line is None:
            return self.message
        return f"line {self.line}, col {self.column}: {self.message}"


class ParseError(FibrationError):
    """Faults of an input file: syntax errors with line/column positions,
    or semantic errors naming the offender."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@contextmanager
def naming_input(path):
    """Make every input fault inside the block name `path`: the
    diagnostics of a ParseError and the message of a
    PresentationInconsistent, and turn a JSON or UTF-8 decoding failure,
    JSON nested deeper than the decoder recurses or a JSON integer that
    readers.read_integer refuses into a ParseError.  Files must be read
    whole, so that the decoder's byte offset is an offset into the file."""
    try:
        yield
    except ParseError as exc:
        raise ParseError(
            Diagnostic(d.line, d.column, f"{d.message} in {path}") for d in exc.diagnostics
        ) from exc
    except PresentationInconsistent as exc:
        raise PresentationInconsistent(f"{exc} in {path}") from exc
    except RecursionError as exc:
        raise ParseError([Diagnostic(None, None, f"JSON nesting too deep to decode in {path}")]) from exc
    except json.JSONDecodeError as exc:
        raise ParseError([Diagnostic(exc.lineno, exc.colno, f"{exc.msg} in {path}")]) from exc
    except UnicodeDecodeError as exc:
        raw = exc.object
        start = raw.rfind(b"\n", 0, exc.start) + 1
        line = raw.count(b"\n", 0, start) + 1
        column = len(raw[start:exc.start].decode("utf-8")) + 1
        raise ParseError([Diagnostic(line, column, f"not valid UTF-8 in {path}")]) from exc
    except ValueError as exc:
        # json gives the position of no integer its parse_int refuses
        raise ParseError([Diagnostic(None, None, f"{exc} in {path}")]) from exc

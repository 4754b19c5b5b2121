"""Seeded fuzz of the command line: byte mutations of the corpus
descriptions through `report` (text and json) and of the presentation
files through `sha-local`, and argument lists for the eight subcommands
that read no file, drawn from a fixed set of atoms.  Every case must end
in exit code 0, 1 or 2 (argparse's SystemExit counts as an exit), raise
nothing else out of `cli.main` and finish within CASE_SECONDS.

The seeds and the case counts are fixed.  For a longer local run, set
CASES or ARGV_CASES below (12,000 file cases take about 10 s)."""

import contextlib
import io
import pathlib
import random
import signal

import pytest

from ellfib.cli import EXIT_ENGINE, EXIT_INPUT, EXIT_OK, main

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
SEED = 20261018
CASES = 2000
ARGV_SEED = 20261019
ARGV_CASES = 3000
CASE_SECONDS = 5

# bytes that mean something to a description or a presentation file,
# drawn three times in four; any byte otherwise
_ALPHABET = b"0123456789 \t\n#[]=^*/+-stabinfvdelta{}[]\":,"


# subcommand: how many arguments it takes (delta-gcd takes one or more;
# three here)
_ARGV_COMMANDS = {
    "classify": 3, "minimalize": 3, "lattice": 1, "blowup": 6, "reduce": 6,
    "sha-punctured": 1, "corank": 4, "delta-gcd": 3,
}
_TYPES = ("I0", "I1", "I2", "I7", "I3*", "II", "III", "IV", "IV*", "III*", "II*")
# words int() or the type parser refuse or read unexpectedly, fibre
# indices past the bounds, literals at and past Python's int-string
# limit, and argparse's own
_ARGV_ATOMS = (
    "inf", "nan", "\u0663", "I100000", "I1001*", "9" * 4300, "1" * 5000, "--", "-h", "-1",
)


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def _mutate(rng: random.Random, data: bytes) -> bytes:
    """One to four edits: delete, insert or replace a byte, or repeat a
    slice of up to 64 bytes."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(0, len(out))
        byte = rng.choice(_ALPHABET) if rng.random() < 0.75 else rng.randrange(256)
        edit = rng.randrange(4)
        if edit == 0 and out:
            del out[min(i, len(out) - 1)]
        elif edit == 1 or not out:
            out.insert(i, byte)
        elif edit == 2:
            out[min(i, len(out) - 1)] = byte
        else:
            j = min(len(out), i + rng.randint(1, 64))
            out[i:i] = out[i:j]
    return bytes(out)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs signal.alarm")
def test_mutated_inputs_end_in_an_exit_code(tmp_path):
    descriptions = sorted(CORPUS.glob("*.fib"))
    presentations = sorted(CORPUS.glob("presentations/*.json"))
    commands = (  # None stands for the mutated file
        (["report", None], descriptions),
        (["report", None, "--format", "json"], descriptions),
        (["sha-local", None], presentations),
    )
    originals = {path: path.read_bytes() for path in descriptions + presentations}
    rng = random.Random(SEED)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for case in range(CASES):
            argv, paths = rng.choice(commands)
            path = rng.choice(paths)
            target = tmp_path / f"case{path.suffix}"
            target.write_bytes(_mutate(rng, originals[path]))
            argv = [str(target) if a is None else a for a in argv]
            signal.alarm(CASE_SECONDS)
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    rc = main(argv, out=io.StringIO())
            except _Timeout:
                pytest.fail(f"case {case} ({path.name}) ran over {CASE_SECONDS} s: {target.read_bytes()!r}")
            except Exception as exc:  # an escape: report the input that caused it
                pytest.fail(f"case {case} ({path.name}) raised {exc!r}: {target.read_bytes()!r}")
            finally:
                signal.alarm(0)
            assert rc in (EXIT_OK, EXIT_INPUT, EXIT_ENGINE), (case, path.name, target.read_bytes())
    finally:
        signal.signal(signal.SIGALRM, previous)


def _argv(rng: random.Random) -> list[str]:
    """A subcommand and, three times in four, as many arguments as it
    takes, each a plain value (a fibre type for `lattice` and
    `sha-punctured`, else a small integer) or, one time in three, an
    atom."""
    command = rng.choice(sorted(_ARGV_COMMANDS))
    count = _ARGV_COMMANDS[command] if rng.random() < 0.75 else rng.randint(0, 7)
    typed = command in ("lattice", "sha-punctured")
    return [command] + [
        rng.choice(_ARGV_ATOMS) if rng.random() < 1 / 3
        else rng.choice(_TYPES) if typed else str(rng.randint(0, 12))
        for _ in range(count)
    ]


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs signal.alarm")
def test_argument_lists_end_in_an_exit_code():
    rng = random.Random(ARGV_SEED)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for case in range(ARGV_CASES):
            argv = _argv(rng)
            shown = [a if len(a) < 20 else f"<{len(a)} x {a[0]}>" for a in argv]
            signal.alarm(CASE_SECONDS)
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = main(argv, out=io.StringIO())
            except SystemExit as exc:  # argparse's exit: help, or a usage error
                rc = exc.code
            except _Timeout:
                pytest.fail(f"case {case} ran over {CASE_SECONDS} s: {shown}")
            except Exception as exc:  # an escape: report the arguments that caused it
                pytest.fail(f"case {case} raised {exc!r}: {shown}")
            finally:
                signal.alarm(0)
            assert rc in (EXIT_OK, EXIT_INPUT, EXIT_ENGINE), (case, shown)
    finally:
        signal.signal(signal.SIGALRM, previous)

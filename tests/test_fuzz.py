"""Seeded byte-mutation fuzz of the command line: `report` (text and
json) over mutated corpus descriptions and `sha-local` over mutated
presentation files.  Every case must end in exit code 0, 1 or 2, raise
nothing out of `cli.main` and finish within CASE_SECONDS.

The seed and the case count are fixed.  For a longer local run, set
CASES below (12,000 cases take about 10 s)."""

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
CASE_SECONDS = 5

# bytes that mean something to a description or a presentation file,
# drawn three times in four; any byte otherwise
_ALPHABET = b"0123456789 \t\n#[]=^*/+-stabinfvdelta{}[]\":,"


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

"""Byte-for-byte regression of `ellfib report` on the corpus.

tests/golden/ holds the expected text and JSON report of every corpus
file.  A change that alters any byte of them must regenerate the golden
files on purpose:

    for f in corpus/*.fib; do
        python -m ellfib.cli report "$f" > "tests/golden/$(basename "$f" .fib).txt"
        python -m ellfib.cli report "$f" --format json > "tests/golden/$(basename "$f" .fib).json"
    done
"""

import io
import pathlib

import pytest

from ellfib.cli import EXIT_OK, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS_FILES = sorted((ROOT / "corpus").glob("*.fib"))
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("fmt, suffix", [("text", ".txt"), ("json", ".json")])
@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_report_matches_golden_output(path, fmt, suffix):
    out = io.StringIO()
    rc = main(["report", str(path), "--format", fmt], out=out)
    assert rc == EXIT_OK
    expected = (GOLDEN / (path.stem + suffix)).read_text(encoding="utf-8")
    assert out.getvalue() == expected


def test_every_golden_file_has_a_corpus_file():
    stems = {p.stem for p in CORPUS_FILES}
    assert stems and {p.stem for p in GOLDEN.iterdir()} == stems

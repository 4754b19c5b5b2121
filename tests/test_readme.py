"""The README's command-line examples, run against the CLI, and its
table of resource limits, checked against the code."""

import contextlib
import importlib
import io
import pathlib
import pkgutil
import re
import shlex
import sys

import pytest

import ellfib
from ellfib.cli import build_arg_parser, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _text_blocks() -> list[str]:
    return re.findall(r"^```text\n(.*?)^```$", README, flags=re.M | re.S)


def _examples() -> list[tuple[str, str]]:
    """(command line, expected output) for every `$ ellfib ...` example."""
    examples = []
    for block in _text_blocks():
        for chunk in re.split(r"\n(?=\$ )", block.strip("\n")):
            if chunk.startswith("$ ellfib "):
                command, _, output = chunk.partition("\n")
                examples.append((command[2:], output.rstrip("\n") + "\n"))
    return examples


EXAMPLES = _examples()


def test_readme_has_examples():
    assert [c for c, _ in EXAMPLES] == [
        "ellfib classify 2 3 7",
        "ellfib reduce 1 1 2 1 1 2",
        "ellfib sha-local corpus/presentations/i2_i0star.json",
        "ellfib lattice IV*",
    ]


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_output(command, expected, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    assert main(shlex.split(command)[1:], out=out) == 0
    assert out.getvalue() == expected


def test_readme_command_line_flags_are_accepted():
    (block,) = [b for b in _text_blocks() if b.startswith("ellfib classify VA")]
    ap = build_arg_parser()
    commands = 0
    for line in block.splitlines():
        command = line.split()[1]
        help_out = io.StringIO()
        with contextlib.redirect_stdout(help_out), pytest.raises(SystemExit) as exc:
            ap.parse_args([command, "--help"])
        assert exc.value.code == 0, command
        for flag in re.findall(r"--[a-z][a-z-]*", line):
            assert re.search(rf"{flag}\b", help_out.getvalue()), f"{command} {flag}"
        commands += 1
    assert commands == 10


def test_resource_limits_table_matches_the_code():
    section = README.split("\n## Resource limits\n", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip().strip("`") for cell in line.split("|")[1:4]]
        for line in section.splitlines() if line.startswith("| `")
    ]
    for name, module, value in rows:
        home = sys.int_info if module == "sys.int_info" else importlib.import_module(module)
        assert getattr(home, name) == int(value), name
    # every MAX_ constant a module exports has a row
    constants = {
        f"ellfib.{m.name}.{name}"
        for m in pkgutil.iter_modules(ellfib.__path__)
        for name in getattr(importlib.import_module(f"ellfib.{m.name}"), "__all__", ())
        if name.startswith("MAX_")
    }
    assert constants == {f"{module}.{name}" for name, module, _ in rows if module != "sys.int_info"}

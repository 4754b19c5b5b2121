"""End-to-end tests of the command line interface (in-process)."""

import contextlib
import hashlib
import io
import json
import pathlib
import random
import sys
from fractions import Fraction

import pytest

from ellfib import poly
from ellfib.cli import EXIT_ENGINE, EXIT_INPUT, EXIT_OK, build_arg_parser, main
from ellfib.errors import ParseError
from ellfib.kodaira import MAX_LATTICE_COMPONENTS
from ellfib.parser import (
    MAX_DENOMINATOR_DIGITS,
    MAX_EXPONENT,
    MAX_FIBRE_INDEX,
    MAX_MODEL_BITS,
    MAX_TERMS,
    parse_description,
)
from ellfib.presentations import (
    MAX_PRESENTATION_ENTRY,
    MAX_PRESENTATION_SIZE,
    miranda_presentation,
)
from ellfib.readers import INFINITY
from ellfib.weierstrass import KodairaType

from support import canonical_profile, power_of_two, render_poly, types_with_index_up_to

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def run(*argv):
    out = io.StringIO()
    rc = main(list(argv), out=out)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# profile commands


def test_classify_command():
    rc, out = run("classify", "1", "1", "2")
    assert rc == EXIT_OK
    assert out.splitlines() == ["II", "j-valuation: 1"]
    rc, out = run("classify", "inf", "1", "2")
    assert rc == EXIT_OK
    assert out.splitlines()[0] == "II"
    rc, out = run("classify", "inf", "2", "4")
    assert out.splitlines() == ["IV", "j-valuation: inf"]


def test_classify_rejects_non_minimal(capsys):
    rc, _ = run("classify", "4", "6", "12")
    assert rc == EXIT_ENGINE
    assert "NotMinimal" in capsys.readouterr().err


def test_minimalize_command():
    rc, out = run("minimalize", "6", "9", "18")
    assert rc == EXIT_OK
    assert out.splitlines() == ["va=2 vb=3 vdelta=6", "twists removed: 1"]
    rc, out = run("minimalize", "inf", "8", "16")
    assert out.splitlines() == ["va=inf vb=2 vdelta=4", "twists removed: 1"]


def test_lattice_command():
    rc, out = run("lattice", "I2")
    assert rc == EXIT_OK
    assert "type: I2" in out
    assert "components: 2" in out
    assert "multiplicities: 1 1" in out
    assert "euler number: 2" in out
    assert "discriminant group: Z/2" in out


# SHA-256 of the output of `lattice T` for I0 ... I50, I0* ... I50* and
# the six fixed types, taken before every Gram matrix was built from one
# dual-graph table
_LATTICE_SHA256 = "58878f13d7d9564c083fd84d32e5b33e3adce815969a1de872fbb849e66a0836"


def test_lattice_command_golden_fingerprint():
    digest = hashlib.sha256()
    for ft in types_with_index_up_to(50, include_smooth=True):
        rc, out = run("lattice", str(ft))
        assert rc == EXIT_OK
        digest.update(out.encode())
    assert digest.hexdigest() == _LATTICE_SHA256


def test_lattice_command_refuses_huge_types(capsys):
    for text, count in (("I1001", 1001), ("I996*", 1001), ("I100000000", 100000000)):
        rc, out = run("lattice", text)
        assert rc == EXIT_ENGINE
        assert out == ""
        assert _single_error_line(capsys) == (
            f"error: LatticeTooLarge: {text} has {count} components; lattice "
            f"data is built for at most {MAX_LATTICE_COMPONENTS} (MAX_LATTICE_COMPONENTS)"
        )


def test_type_argument_is_read_as_written(capsys):
    # whitespace around a type is refused, as around a number
    for command in ("lattice", "sha-punctured"):
        with pytest.raises(SystemExit) as exc:
            run(command, " I3 ")
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"ellfib {command}: error: argument type: cannot parse fibre type ' I3 '"


def test_type_index_too_long_to_print(capsys):
    # I_N* has N + 5 components: with N of 4300 nines the count has 4301
    # digits, more than str() converts at the default limit, so an index
    # has fewer digits than int() reads, as a vdelta has
    if getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300:
        pytest.skip("needs Python's default integer string limit of 4300 digits")
    for command in ("lattice", "sha-punctured"):
        for text in ("I" + "7" * 4301, "I" + "9" * 4300 + "*"):
            with pytest.raises(SystemExit) as exc:
                run(command, text)
            assert exc.value.code == 2
            err = capsys.readouterr().err.splitlines()
            assert err[0].startswith(f"usage: ellfib {command}")
            assert err[-1] == (f"ellfib {command}: error: argument type: number of "
                               f"{len(text.strip('I*'))} digits exceeds the limit of 4299 digits")
    # one digit fewer: the count has 4300 digits and prints
    text = "I" + "9" * 4299 + "*"
    assert run("lattice", text) == (EXIT_ENGINE, "")
    assert _single_error_line(capsys).startswith(
        f"error: LatticeTooLarge: {text} has {int(text[1:-1]) + 5} components")


def test_help_goes_to_out(capsys):
    out = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        main(["classify", "-h"], out=out)
    assert exc.value.code == 0
    assert out.getvalue().startswith("usage: ellfib classify")
    assert capsys.readouterr() == ("", "")


def test_second_double_dash_is_a_usage_error(capsys):
    # Python 3.11's argparse hands the second '--' to the last positional
    # argument as [], calling no type on it; an argparse that passes the
    # text '--' on has the argument's type refuse it.  Either way the
    # command line is a usage error.
    for argv, last in (
        (("classify", "1", "1"), "vdelta"),
        (("minimalize", "1", "1"), "vdelta"),
        (("blowup", "0", "0", "1", "0", "0"), "rvdelta"),
        (("reduce", "0", "0", "1", "0", "0"), "rvdelta"),
        (("corank", "3", "0", "5"), "rho_S"),
    ):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--", "--")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[0].startswith(f"usage: ellfib {argv[0]}")
        assert err.splitlines()[-1].startswith(f"ellfib {argv[0]}: error: argument {last}: ")


# ---------------------------------------------------------------------------
# collision commands


def test_blowup_command():
    rc, out = run("blowup", "0", "0", "1", "0", "0", "1")
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "exceptional: I2"
    assert lines[1] == "va=0 vb=0 vdelta=2"
    assert lines[2] == "twists absorbed: 0"
    assert "left child: I1 + I2 (allowed)" in lines
    assert "right child: I1 + I2 (allowed)" in lines


def test_blowup_dissolving():
    rc, out = run("blowup", "2", "3", "6", "2", "3", "6")
    assert rc == EXIT_OK
    assert "twists absorbed: 1" in out
    assert "children: dissolved" in out


def test_blowup_inconsistent_pair(capsys):
    rc, _ = run("blowup", "1", "1", "2", "1", "2", "3")
    assert rc == EXIT_ENGINE
    assert "ProfileInconsistent" in capsys.readouterr().err


def test_reduce_command():
    rc, out = run("reduce", "4", "5", "10", "4", "5", "10")
    assert rc == EXIT_OK
    # one line per node of the 23-node II* + II* tree, then its height
    assert len(out.splitlines()) == 24
    assert out.splitlines()[-1] == "height: 5"
    assert "[root] II* + II*" in out
    rc, out = run("reduce", "0", "0", "2", "2", "3", "6")
    assert out.splitlines() == ["[root] I2 + I0*  (left + right): allowed", "height: 0"]
    # the depth is no command-line option
    with pytest.raises(SystemExit):
        run("reduce", "4", "5", "10", "4", "5", "10", "--max-depth", "5")


def test_valuations_too_long_to_print(capsys):
    # I_N* + I_N* blows up to I_2N: with N of 4300 nines its index has
    # 4301 digits, more than str() converts at the default limit
    if getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300:
        pytest.skip("needs Python's default integer string limit of 4300 digits")
    big = "9" * 4300
    for command in ("reduce", "blowup"):
        with pytest.raises(SystemExit) as exc:
            run(command, "2", "3", big, "2", "3", big)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            f"ellfib {command}: error: argument lvdelta: number of 4300 "
            "digits exceeds the limit of 4299 digits"
        )
    # one digit fewer: the blown-up index has 4300 digits and prints
    rc, out = run("reduce", "2", "3", big[1:], "2", "3", big[1:])
    n = int(big[1:]) - 6
    assert rc == EXIT_OK
    assert out.splitlines()[0] == (
        f"[root] I{n}* + I{n}*  (left + right): blown-up -> exceptional "
        f"I{2 * n} (1 twist(s) absorbed)"
    )
    rc, out = run("classify", "0", "0", big[1:])
    assert (rc, out.splitlines()[0]) == (EXIT_OK, "I" + big[1:])


# ---------------------------------------------------------------------------
# group commands


def test_sha_local_command(tmp_path):
    shipped = CORPUS / "presentations" / "i2_i0star.json"
    rc, out = run("sha-local", str(shipped))
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "local sha: Z/2"
    assert lines[1] == "generator witness: (0, 1/2, 0, 0, 0, 1/2, 1/2)"
    assert "registry: Z/2 (agree)" in lines
    assert "verdict: PossiblyObstinate(Z/2)" in lines
    # a file of one branch is compared with the registry entry of its pair
    data = json.loads(shipped.read_text(encoding="utf-8"))
    data["branches"] = data["branches"][:1]
    one = tmp_path / "one.json"
    one.write_text(json.dumps(data), encoding="utf-8")
    assert run("sha-local", str(one)) == (
        EXIT_OK, "local sha: 0\nregistry: Z/2 (DISAGREE)\nverdict: PossiblyObstinate(Z/2)\n"
    )
    # a pair off Miranda's list has no registry entry and no verdict
    off_list = tmp_path / "ii_ii.json"
    off_list.write_text(json.dumps({
        "pair": ["II", "II"],
        "central_multiplicities": [1],
        "branches": [{"fibre_type": "II", "divisors": [{"m": 1, "r": 1, "incidence": [1]}]}] * 2,
    }), encoding="utf-8")
    assert run("sha-local", str(off_list)) == (EXIT_OK, "local sha: 0\n")
    # a pair on the list whose verdict carries no obstruction
    quiet = tmp_path / "iv_i0star.json"
    quiet.write_text(json.dumps({
        "pair": ["IV", "I0*"],
        "central_multiplicities": [1],
        "branches": [{"fibre_type": t, "divisors": [{"m": 1, "r": 1, "incidence": [1]}]}
                     for t in ("IV", "I0*")],
    }), encoding="utf-8")
    assert run("sha-local", str(quiet)) == (
        EXIT_OK, "local sha: 0\nregistry: 0 (agree)\nverdict: PossiblyLocallyTrivial\n"
    )


def _run_captured(*argv) -> str:
    """rc, stdout and stderr of one in-process run, as one record."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc, out = run(*argv)
    return f"{rc}\n{out}\n{err.getvalue()}\n"


# I_a + I_b (a <= b <= 6) and I_2k + I*_m (k <= 3, m <= 3)
_MIRANDA_PAIRS = [(KodairaType("I", a), KodairaType("I", b))
                  for a in range(1, 7) for b in range(a, 7)]
_MIRANDA_PAIRS += [(KodairaType("I", 2 * k), KodairaType("I*", m))
                   for k in range(1, 4) for m in range(4)]


def _write_miranda_files(directory: pathlib.Path) -> list[pathlib.Path]:
    """Miranda's resolution of each of _MIRANDA_PAIRS as presentation
    files p000.json ..., the pair written in alternating order."""
    paths = []
    for i, (left, right) in enumerate(_MIRANDA_PAIRS):
        pres = miranda_presentation(left, right)
        path = directory / f"p{i:03d}.json"
        path.write_text(json.dumps({
            "pair": [str(t) for t in ((left, right) if i % 2 == 0 else (right, left))],
            "central_multiplicities": list(pres.central_multiplicities),
            "branches": [
                {"fibre_type": str(br.fibre_type),
                 "divisors": [{"m": dv.m, "r": dv.r, "incidence": list(dv.incidence)}
                              for dv in br.divisors]}
                for br in pres.branches
            ],
        }), encoding="utf-8")
        paths.append(path)
    return paths


# SHA-256 of `sha-local` (exit code, stdout, stderr) on the 33 files of
# _write_miranda_files, taken before fibre types were kept as KodairaType
# from the loader to the lookup
_SHA_LOCAL_SHA256 = "25b0d4dc8a7d9c76d2799d79d1b1766f961ef6229176de4c0f7fef4d224274cd"


def test_sha_local_miranda_files_golden_fingerprint(tmp_path):
    paths = _write_miranda_files(tmp_path)
    assert len(paths) == 33
    digest = hashlib.sha256()
    for i, path in enumerate(paths):
        digest.update(f"{i}\n{_run_captured('sha-local', str(path))}".encode())
    assert digest.hexdigest() == _SHA_LOCAL_SHA256


def test_sha_punctured_command():
    assert run("sha-punctured", "I0") == (EXIT_OK, "(Q/Z)^2\n")
    assert run("sha-punctured", "I3") == (EXIT_OK, "(Q/Z)^1 + Z/3\n")
    assert run("sha-punctured", "II") == (EXIT_OK, "0\n")
    assert run("sha-punctured", "I0*") == (EXIT_OK, "Z/2 + Z/2\n")
    assert run("sha-punctured", "I100000000") == (EXIT_OK, "(Q/Z)^1 + Z/100000000\n")


def test_corank_command(capsys):
    assert run("corank", "23", "20", "2", "1") == (EXIT_OK, "2\n")
    rc, _ = run("corank", "5", "5", "3", "1")
    assert rc == EXIT_ENGINE
    assert "NegativeCorank" in capsys.readouterr().err


def test_corank_refuses_negative_and_overlong_values(capsys):
    # a corank adds two of the values, so each has fewer digits than the
    # limit on integer strings, as for [topology] values
    if getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300:
        pytest.skip("needs Python's default integer string limit of 4300 digits")
    big = "9" * 4300
    for argv, message in (
        (("--", "-1", "0", "0", "0"), "expected a nonnegative integer, got '-1'"),
        (("x", "0", "0", "0"), "expected a nonnegative integer, got 'x'"),
        ((big, "0", "0", big), "number of 4300 digits exceeds the limit of 4299 digits"),
    ):
        with pytest.raises(SystemExit) as exc:
            run("corank", *argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[0].startswith("usage: ellfib corank")
        assert err.splitlines()[-1] == f"ellfib corank: error: argument b2_X: {message}"
    # one digit fewer: the corank has 4300 digits and prints
    assert run("corank", big[1:], "0", "0", big[1:]) == (EXIT_OK, "1" + "9" * 4298 + "8\n")


def test_delta_gcd_command(capsys):
    assert run("delta-gcd", "3", "0") == (EXIT_OK, "3\n")
    assert run("delta-gcd", "-4", "6") == (EXIT_OK, "2\n")
    rc, _ = run("delta-gcd", "0", "0")
    assert rc == EXIT_ENGINE
    assert "AllZero" in capsys.readouterr().err
    # a degree of as many digits as int() reads is refused in the
    # parser's own words
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        with pytest.raises(SystemExit) as exc:
            run("delta-gcd", "--", "-" + "7" * limit)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: ellfib delta-gcd")
        assert err[-1] == ("ellfib delta-gcd: error: argument degrees: number of "
                           f"{limit} digits exceeds the limit of {limit - 1} digits")


# ---------------------------------------------------------------------------
# one grammar for numbers on the command line and in description files


# text that int() reads and the file format does not, words for
# infinity, and numbers at Python's limit on integer strings
_NUMBER_ATOMS = (
    "+5", "1_0", "-0", "\u0663", "\u00b2", "0x10", "1e3", "nan", "inf", "INF", "Infinity",
    "", "7", "9" * 4299, "9" * 4300, "9" * 4301,
)
_BRANCH = "[branch A] va=0 vb=0 vdelta=1\n"
# role: (description file with the text in that role, its value there,
# argument list with the text in that role, its value there)
_ROLES = {
    "va": (lambda x: f"[branch A] va={x} vb=0 vdelta=1\n", lambda d: d.branches[0].va,
           lambda x: ["classify", "--", x, "0", "1"], lambda a: a.va),
    "vdelta": (lambda x: f"[branch A] va=0 vb=0 vdelta={x}\n", lambda d: d.branches[0].vdelta,
               lambda x: ["classify", "--", "0", "0", x], lambda a: a.vdelta),
    "nonnegative": (lambda x: f"{_BRANCH}[topology] b2_X={x} rho_X=0 b2_S=0 rho_S=0\n",
                    lambda d: d.topology[0],
                    lambda x: ["corank", "--", x, "0", "0", "0"], lambda a: a.b2_X),
    "integer": (lambda x: f"{_BRANCH}[picard-degrees] {x}\n", lambda d: d.picard_degrees[0],
                lambda x: ["delta-gcd", "--", x], lambda a: a.degrees[0]),
}


def _argument_value(argv, read):
    """read(parsed arguments), or None when the parser refuses argv."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return read(build_arg_parser().parse_args(argv))
    except SystemExit:
        return None


def _file_value(text, read):
    """read(parsed description), or None when the parser refuses text."""
    try:
        return read(parse_description(text))
    except ParseError:
        return None


def test_command_line_reads_numbers_as_description_files_do():
    # each text is accepted as an argument exactly when a description
    # file accepts it in the same role, with the same value; a file's
    # [branch] valuations are also at most MAX_FIBRE_INDEX
    rng = random.Random(20261021)
    texts = set(_NUMBER_ATOMS)
    while len(texts) < 120:
        texts.add("".join(rng.choice(_NUMBER_ATOMS) for _ in range(rng.randint(2, 3))))
    for role, (line, in_file, argv, in_args) in _ROLES.items():
        for text in sorted(texts):
            value = _argument_value(argv(text), in_args)
            if role in ("va", "vdelta") and value not in (None, INFINITY) and value > MAX_FIBRE_INDEX:
                value = None
            assert _file_value(line(text), in_file) == value, (role, text[:20], len(text))
        assert _argument_value(argv(" 7"), in_args) is None, role


# ---------------------------------------------------------------------------
# report command


def test_report_runs_on_entire_corpus():
    for path in sorted(CORPUS.glob("*.fib")):
        for fmt in ("text", "json"):
            rc, out = run("report", str(path), "--format", fmt)
            assert rc == EXIT_OK, (path.name, fmt, out)
            assert out
            if fmt == "json":
                assert json.loads(out)["format_version"] == 1


def test_report_json_deterministic_in_process():
    for path in sorted(CORPUS.glob("*.fib")):
        first = run("report", str(path), "--format", "json")
        second = run("report", str(path), "--format", "json")
        assert first == second


def test_report_with_presentation_directory():
    rc, out = run(
        "report", str(CORPUS / "i2_i0star.fib"),
        "--format", "json",
        "--presentations", str(CORPUS / "presentations"),
    )
    assert rc == EXIT_OK
    assert json.loads(out)["groups"][0][0]["computed"] == "Z/2"


_REPORT_TYPES = [KodairaType("I", n) for n in range(1, 7)]
_REPORT_TYPES += [KodairaType("I*", n) for n in range(4)]
_REPORT_TYPES += [KodairaType(kind) for kind in ("II", "III", "IV")]


def _random_report_description(rng, files: list[frozenset[KodairaType]]) -> str:
    """Four to six branches of _REPORT_TYPES and one to four collisions
    between them, some attaching a presentation file: files[i] is the
    pair of pNNN.json, i = NNN.  Most collisions whose left branch has
    a partner of a pair in files take one, and half the collisions
    attach a file, mostly that of their pair when it is in files."""
    types = {f"B{j}": rng.choice(_REPORT_TYPES) for j in range(rng.randint(4, 6))}
    lines = []
    for name, ft in types.items():
        p = canonical_profile(ft)
        lines.append(f"[branch {name}] va={p.va} vb={p.vb} vdelta={p.vdelta}")
    for _ in range(rng.randint(1, 4)):
        left = rng.choice(sorted(types))
        partners = [n for n in sorted(types) if n != left]
        on_file = [n for n in partners if frozenset((types[left], types[n])) in files]
        right = rng.choice(on_file if on_file and rng.random() < 0.7 else partners)
        pair = frozenset((types[left], types[right]))
        attach = ""
        if rng.random() < 0.5:
            index = files.index(pair) if pair in files and rng.random() < 0.9 else None
            index = rng.randrange(len(files)) if index is None else index
            attach = f" presentation=p{index:03d}.json"
        lines.append(f"[collision] {left} {right}{attach}")
    return "\n".join(lines) + "\n"


# SHA-256 of `report` (exit code, stdout, stderr) on 24 seeded
# descriptions, each in JSON and in text, with and without
# --presentations of the 33 files of _write_miranda_files, taken before
# fibre types were kept as KodairaType from the loader to the lookup
_REPORT_SHA256 = "b645be35cfc91ab146082fc87c0f89962dc19d6d296b215efded939da23cadb7"


def test_report_seeded_descriptions_golden_fingerprint(tmp_path):
    _write_miranda_files(tmp_path)
    files = [frozenset(pair) for pair in _MIRANDA_PAIRS]
    rng = random.Random(20240521)
    digest = hashlib.sha256()
    for i in range(24):
        path = tmp_path / f"d{i:02d}.fib"
        path.write_text(_random_report_description(rng, files), encoding="utf-8")
        for fmt in ("json", "text"):
            for extra in ((), ("--presentations", str(tmp_path))):
                record = _run_captured("report", str(path), "--format", fmt, *extra)
                digest.update(f"{i} {fmt} {len(extra)}\n{record}".encode())
    assert digest.hexdigest() == _REPORT_SHA256


def _random_unit(rng, ratio: bool) -> dict:
    """One to four terms with a nonzero constant term, so divisible by
    neither s nor t; with ratio, every coefficient a ratio."""
    cells = [(i, j) for i in range(4) for j in range(4)]
    exponents = [(0, 0)] + rng.sample(cells[1:], rng.randint(0, 3))
    return {
        e: Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 4)), rng.choice((2, 3))) if ratio
        else rng.choice((-5, -3, -2, -1, 1, 2, 4))
        for e in exponents
    }


def _random_polynomial_description(rng, i: int) -> str:
    """A Weierstrass model of kind i % 6: a = 0, b = 0, leading terms that
    need not cancel, or (kinds 3 to 5) leading terms that cancel,
    a = -3 u^2 M^2 and b = (2 u^3 + s^n t^m w) M^3 with M a monomial and
    n >= 1, on the s-axis only (kind 3, m = 0) or mostly on both (m from
    0 to 5); every fifth description has ratio coefficients, and half of
    them add the collision of the two axes."""
    ratio, kind = i % 5 == 4, i % 6
    u, w = _random_unit(rng, ratio), _random_unit(rng, ratio)
    exps = [rng.randint(0, 5) for _ in range(4)]
    if kind == 0:
        a, b = {}, poly.mul(u, poly.monomial(1, exps[0], exps[1]))
    elif kind == 1:
        a, b = poly.mul(u, poly.monomial(1, exps[0], exps[1])), {}
    elif kind == 2:
        a = poly.mul(u, poly.monomial(1, exps[0], exps[1]))
        b = poly.mul(w, poly.monomial(1, exps[2], exps[3]))
    else:
        k, kt, n, m = rng.randint(0, 2), rng.randint(0, 2), rng.randint(1, 5), rng.randint(0, 5)
        if kind == 3:
            m = 0
        u2 = poly.mul(u, u)
        a = poly.mul(poly.scale(u2, -3), poly.monomial(1, 2 * k, 2 * kt))
        x = poly.mul(w, poly.monomial(1, n, m))
        b = poly.mul(poly.add(poly.scale(poly.mul(u2, u), 2), x), poly.monomial(1, 3 * k, 3 * kt))
    text = f"[weierstrass] a = {render_poly(a)} b = {render_poly(b)}\n"
    return text + "[collision] s-axis t-axis\n" * ((i // 6 + i) % 2)


# SHA-256 of `report` (exit code, stdout, stderr) on 30 seeded
# polynomial-mode descriptions, each in JSON and in text, taken before
# axis_profile became the one reader of v(a), v(b) and v(Delta)
_POLYNOMIAL_REPORT_SHA256 = "31e4faebf1ac1720ecf170c291fc86f7e4fdab6fa2272e26656731673c1c82ca"


def test_report_seeded_polynomial_descriptions_golden_fingerprint(tmp_path):
    rng = random.Random(20261020)
    digest = hashlib.sha256()
    for i in range(30):
        path = tmp_path / f"w{i:02d}.fib"
        path.write_text(_random_polynomial_description(rng, i), encoding="utf-8")
        for fmt in ("json", "text"):
            record = _run_captured("report", str(path), "--format", fmt)
            digest.update(f"{i} {fmt}\n{record}".encode())
    assert digest.hexdigest() == _POLYNOMIAL_REPORT_SHA256


def test_report_missing_file(capsys):
    rc, _ = run("report", str(CORPUS / "no_such_file.fib"))
    assert rc == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_report_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.fib"
    bad.write_text("[branch A] va=0 vb=0\n", encoding="utf-8")
    rc, _ = run("report", str(bad))
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error: line 1, col 12: " in err
    assert "missing vdelta" in err


def _single_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    return line


def test_sha_local_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"pair": [', encoding="utf-8")
    rc, _ = run("sha-local", str(bad))
    assert rc == EXIT_INPUT
    assert _single_error_line(capsys) == f"error: line 1, col 11: Expecting value in {bad}"


def test_report_malformed_presentation_directory(tmp_path, capsys):
    pres = tmp_path / "presentations"
    pres.mkdir()
    bad = pres / "bad.json"
    bad.write_text('{"pair": [', encoding="utf-8")
    rc, out = run("report", str(CORPUS / "i2_i0star.fib"), "--presentations", str(pres))
    assert rc == EXIT_INPUT
    assert out == ""
    assert _single_error_line(capsys) == f"error: line 1, col 11: Expecting value in {bad}"


def test_report_bad_presentation_data_names_file(tmp_path, capsys):
    pres = tmp_path / "presentations"
    pres.mkdir()
    good = json.loads((CORPUS / "presentations" / "i2_i0star.json").read_text(encoding="utf-8"))
    good["central_multiplicities"] = [1, 1, 2, 2, 1]
    bad = pres / "short.json"
    bad.write_text(json.dumps(good), encoding="utf-8")
    rc, out = run("report", str(CORPUS / "i2_i0star.fib"), "--presentations", str(pres))
    assert rc == EXIT_ENGINE
    assert out == ""
    line = _single_error_line(capsys)
    assert line.startswith("error: PresentationInconsistent: ")
    assert line.endswith(f" in {bad}")


def test_report_input_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.fib"
    bad.write_bytes(b"[branch A] va=0 vb=0 vdelta=1\n[branch B] va=0 \xff\n")
    rc, out = run("report", str(bad))
    assert rc == EXIT_INPUT
    assert out == ""
    assert _single_error_line(capsys) == (
        f"error: line 2, col 17: not valid UTF-8 in {bad}"
    )


def test_report_engine_error(tmp_path):
    doc = tmp_path / "clash.fib"
    doc.write_text(
        "[branch C2] va=1 vb=1 vdelta=2\n"
        "[branch C3] va=1 vb=2 vdelta=3\n"
        "[collision] C2 C3\n",
        encoding="utf-8",
    )
    rc, out = run("report", str(doc), "--format", "json")
    assert rc == EXIT_ENGINE
    parsed = json.loads(out)
    assert parsed["errors"]
    assert parsed["collisions"][0]["status"] == "error"


def test_argument_parser_is_built_once():
    assert build_arg_parser() is build_arg_parser()


def test_report_degenerate_model_is_one_error_line(tmp_path, capsys):
    # a = -3 s^2, b = 2 s^3 gives 4 a^3 + 27 b^2 = 0, so no model exists
    # and the file is rejected before any analysis
    bad = tmp_path / "degenerate.fib"
    # the second has c = 1 - 2 s t^5 + 3 s^4: its leading terms cancel and
    # the zero test divides b by a
    for text in (
        "[weierstrass] a = -3*s^2 b = 2*s^3\n",
        "[weierstrass] a = -27*s^8 + 36*s^5*t^5 - 12*s^2*t^10 - 18*s^4 + 12*s*t^5 - 3 "
        "b = 54*s^12 - 108*s^9*t^5 + 72*s^6*t^10 - 16*s^3*t^15 + 54*s^8 - 72*s^5*t^5 "
        "+ 24*s^2*t^10 + 18*s^4 - 12*s*t^5 + 2\n",
    ):
        bad.write_text(text, encoding="utf-8")
        rc, out = run("report", str(bad), "--format", "json")
        assert (rc, out) == (EXIT_INPUT, "")
        assert _single_error_line(capsys) == (
            f"error: line 1, col 1: discriminant 4 a^3 + 27 b^2 vanishes identically in {bad}"
        )


# ---------------------------------------------------------------------------
# integer literals longer than int() converts (sys.get_int_max_str_digits)


def _overlong_literal() -> str:
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts integer literals of any length")
    return "7" * (limit + 1)


def test_report_overlong_integer_literal(tmp_path, capsys):
    big = _overlong_literal()
    bad = tmp_path / "long.fib"
    for text, col in (
        (f"[branch A] va=0 vb=0 vdelta={big}\n", 29),  # valuation
        (f"[weierstrass] a = s^{big} b = t\n", 21),  # exponent
        (f"[weierstrass] a = s b = {big}*t\n", 25),  # coefficient
    ):
        bad.write_text("# long\n" + text, encoding="utf-8")
        rc, out = run("report", str(bad))
        assert (rc, out) == (EXIT_INPUT, "")
        assert _single_error_line(capsys) == (
            f"error: line 2, col {col}: number of {len(big)} digits "
            f"exceeds the limit of {len(big) - 2} digits in {bad}"
        )


def _overlong_presentation(path: pathlib.Path, big: str) -> None:
    data = json.loads((CORPUS / "presentations" / "i2_i0star.json").read_text(encoding="utf-8"))
    text = json.dumps(data).replace('"central_multiplicities": [1,', f'"central_multiplicities": [{big},')
    assert big in text
    path.write_text(text, encoding="utf-8")


def test_sha_local_overlong_integer_literal(tmp_path, capsys):
    big = _overlong_literal()
    bad = tmp_path / "long.json"
    _overlong_presentation(bad, big)
    rc, out = run("sha-local", str(bad))
    assert (rc, out) == (EXIT_INPUT, "")
    line = _single_error_line(capsys)
    assert line.startswith("error: ") and line.endswith(f" in {bad}")
    assert f"{len(big)} digits" in line


def test_report_overlong_integer_in_presentation_directory(tmp_path, capsys):
    big = _overlong_literal()
    pres = tmp_path / "presentations"
    pres.mkdir()
    bad = pres / "long.json"
    _overlong_presentation(bad, big)
    rc, out = run("report", str(CORPUS / "i2_i0star.fib"), "--presentations", str(pres))
    assert (rc, out) == (EXIT_INPUT, "")
    line = _single_error_line(capsys)
    assert line.startswith("error: ") and line.endswith(f" in {bad}")
    assert f"{len(big)} digits" in line


def test_report_blank_polynomial(tmp_path, capsys):
    bad = tmp_path / "blank.fib"
    for text, col in (("[weierstrass] a =  b = s\n", 18), ("[weierstrass] a = s b = #1\n", 24)):
        bad.write_text(text, encoding="utf-8")
        rc, out = run("report", str(bad))
        assert (rc, out) == (EXIT_INPUT, "")
        assert _single_error_line(capsys) == (
            f"error: line 1, col {col}: expected a coefficient or variable in {bad}"
        )


def test_report_refuses_denominator_lcm_over_bound(tmp_path, capsys):
    # two coprime denominators of 2201 digits: lam has 4401 digits
    d = 10**2200 + 1
    bad = tmp_path / "lcm.fib"
    bad.write_text(f"[weierstrass] a = 1/{d}*s b = 1/{d + 2}*t\n", encoding="utf-8")
    rc, out = run("report", str(bad))
    assert (rc, out) == (EXIT_INPUT, "")
    assert _single_error_line(capsys) == (
        f"error: line 1, col 1: the lcm of the coefficient denominators exceeds "
        f"{MAX_DENOMINATOR_DIGITS} digits (MAX_DENOMINATOR_DIGITS) in {bad}"
    )


def test_report_refuses_huge_fibre_index_and_exponent(tmp_path, capsys):
    # 4299 digits is the longest number read at the default limit, so
    # these pass the digit scan and must meet the bounds
    bad = tmp_path / "huge.fib"
    for text, message in (
        (
            "[branch A] va=0 vb=0 vdelta=" + "9" * 4299 + "\n",
            f"line 1, col 22: vdelta exceeds the limit of {MAX_FIBRE_INDEX} (MAX_FIBRE_INDEX)",
        ),
        (
            "[branch A] va=0 vb=0 vdelta=100000000\n",
            f"line 1, col 22: vdelta exceeds the limit of {MAX_FIBRE_INDEX} (MAX_FIBRE_INDEX)",
        ),
        (
            "[weierstrass] a = s^" + "9" * 4299 + " b = 1\n",
            f"line 1, col 19: exponent exceeds the limit of {MAX_EXPONENT} (MAX_EXPONENT)",
        ),
        (
            "[weierstrass] a = s b = " + "t + " * MAX_TERMS + "1\n",
            f"line 1, col {25 + 4 * MAX_TERMS}: polynomial has more than {MAX_TERMS} terms (MAX_TERMS)",
        ),
        (  # a = 2^(B - 1) s has B bits, and b = t one more
            f"[weierstrass] a = {power_of_two(MAX_MODEL_BITS - 1)}*s b = t\n",
            f"line 1, col 1: the integral model's coefficients exceed {MAX_MODEL_BITS} bits "
            "in all (MAX_MODEL_BITS)",
        ),
    ):
        bad.write_text(text, encoding="utf-8")
        rc, out = run("report", str(bad))
        assert (rc, out) == (EXIT_INPUT, "")
        assert _single_error_line(capsys) == f"error: {message} in {bad}"


def test_report_refuses_corank_too_long_to_print(tmp_path, capsys):
    # the corank adds b2_X - rho_X and rho_S - b2_S, so one more digit
    # than each value; at the default limit the values are 4300 nines
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts integers of any length")
    path = tmp_path / "corank.fib"
    for nines, rc_expected in ((limit, EXIT_INPUT), (limit - 1, EXIT_OK)):
        big = "9" * nines
        path.write_text(
            "[branch A] va=0 vb=0 vdelta=1\n"
            f"[topology] b2_X={big} rho_X=0 b2_S=0 rho_S={big}\n",
            encoding="utf-8",
        )
        rc, out = run("report", str(path))
        assert rc == rc_expected
        if rc == EXIT_INPUT:
            assert out == ""
            assert _single_error_line(capsys) == (
                f"error: line 2, col 17: number of {limit} digits exceeds the limit "
                f"of {limit - 1} digits in {path}"
            )
        else:
            assert f"corank of the Tate-Shafarevich group: 1{'9' * (limit - 2)}8\n" in out


def test_report_at_fibre_index_bound(tmp_path):
    ok = tmp_path / "bound.fib"
    ok.write_text(f"[branch A] va=0 vb=0 vdelta={MAX_FIBRE_INDEX}\n", encoding="utf-8")
    rc, out = run("report", str(ok), "--format", "json")
    assert rc == EXIT_OK
    (branch,) = json.loads(out)["branches"]
    assert branch["type"] == f"I{MAX_FIBRE_INDEX}"
    assert len(branch["multiplicities"]) == MAX_FIBRE_INDEX


# ---------------------------------------------------------------------------
# JSON nested deeper than the decoder recurses


def _deep_json(path: pathlib.Path) -> None:
    path.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")


def test_sha_local_deeply_nested_json(tmp_path, capsys):
    bad = tmp_path / "deep.json"
    _deep_json(bad)
    rc, out = run("sha-local", str(bad))
    assert (rc, out) == (EXIT_INPUT, "")
    assert _single_error_line(capsys) == f"error: JSON nesting too deep to decode in {bad}"


def test_report_deeply_nested_presentation_directory(tmp_path, capsys):
    pres = tmp_path / "presentations"
    pres.mkdir()
    bad = pres / "deep.json"
    _deep_json(bad)
    rc, out = run("report", str(CORPUS / "i2_i0star.fib"), "--presentations", str(pres))
    assert (rc, out) == (EXIT_INPUT, "")
    assert _single_error_line(capsys) == f"error: JSON nesting too deep to decode in {bad}"


def test_report_deeply_nested_attached_presentation(tmp_path, capsys):
    _deep_json(tmp_path / "deep.json")
    doc = tmp_path / "attached.fib"
    doc.write_text(
        "[branch N2] va=0 vb=0 vdelta=2\n"
        "[branch D0] va=2 vb=3 vdelta=6\n"
        "[collision] N2 D0 presentation=deep.json\n",
        encoding="utf-8",
    )
    rc, out = run("report", str(doc), "--format", "json")
    assert rc == EXIT_ENGINE
    assert capsys.readouterr().err == ""
    parsed = json.loads(out)
    assert parsed["collisions"][0]["status"] == "error"
    assert parsed["errors"] == [{
        "subject": "collision N2+D0",
        "kind": "ParseError",
        "message": f"JSON nesting too deep to decode in {tmp_path / 'deep.json'}",
    }]


def test_report_attached_presentation_faults_name_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = tmp_path / "attached.fib"
    doc.write_text(
        "[branch N2] va=0 vb=0 vdelta=2\n"
        "[branch D0] va=2 vb=3 vdelta=6\n"
        "[collision] N2 D0 presentation=bad.json\n",
        encoding="utf-8",
    )
    big = _overlong_literal()
    _overlong_presentation(bad, big)
    overlong = bad.read_bytes()
    for data, message in (
        (b'{"pair": [1, }', f"line 1, col 14: Expecting value in {bad}"),
        (b'{"pair": ["I2", "\xff"]}', f"line 1, col 18: not valid UTF-8 in {bad}"),
        (overlong, None),
    ):
        bad.write_bytes(data)
        rc, out = run("report", str(doc), "--format", "json")
        assert rc == EXIT_ENGINE
        assert capsys.readouterr().err == ""
        (error,) = json.loads(out)["errors"]
        assert (error["subject"], error["kind"]) == ("collision N2+D0", "ParseError")
        if message is None:  # the digit rule's words for a literal past its limit
            assert f"{len(big)} digits" in error["message"]
            assert error["message"].endswith(f" in {bad}")
        else:
            assert error["message"] == message


# ---------------------------------------------------------------------------
# presentation fibre types


def test_sha_local_refuses_unknown_fibre_types(tmp_path, capsys):
    data = json.loads((CORPUS / "presentations" / "i2_i0star.json").read_text(encoding="utf-8"))
    cases = [("XYZ", "cannot parse fibre type 'XYZ'"), (" I2", "cannot parse fibre type ' I2'")]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # an index is read as on the command line, in the same words
        cases.append(("I" + "7" * limit,
                      f"number of {limit} digits exceeds the limit of {limit - 1} digits"))
    for name, reason in cases:
        data["pair"][0] = data["branches"][0]["fibre_type"] = name
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        rc, out = run("sha-local", str(bad))
        assert (rc, out) == (EXIT_ENGINE, "")
        assert _single_error_line(capsys) == f"error: PresentationInconsistent: {reason} in {bad}"


def _shipped_presentation() -> dict:
    return json.loads((CORPUS / "presentations" / "i2_i0star.json").read_text(encoding="utf-8"))


def test_sha_local_refuses_numbers_that_are_not_integers(tmp_path, capsys):
    # each copy once loaded as m = 1, r = 1 or multiplicity 1 and
    # reported the shipped group
    bad = tmp_path / "typed.json"
    for edit, message in (
        (lambda d: d["branches"][0]["divisors"][0].update(m=1.9), "m must be an integer, not float"),
        (lambda d: d["branches"][1]["divisors"][0].update(r=True), "r must be an integer, not bool"),
        (lambda d: d["central_multiplicities"].__setitem__(0, "1"),
         "central multiplicity must be an integer, not str"),
    ):
        data = _shipped_presentation()
        edit(data)
        bad.write_text(json.dumps(data), encoding="utf-8")
        rc, out = run("sha-local", str(bad))
        assert (rc, out) == (EXIT_ENGINE, "")
        assert _single_error_line(capsys) == f"error: PresentationInconsistent: {message} in {bad}"


def test_sha_local_refuses_presentation_over_size_bound(tmp_path, capsys):
    # identity-shaped: one branch whose unit divisors sweep the central
    # components one each; at the bound it loads, one more is refused
    path = tmp_path / "large.json"
    for c, rc_expected in ((MAX_PRESENTATION_SIZE, EXIT_OK), (MAX_PRESENTATION_SIZE + 1, EXIT_ENGINE)):
        units = [[int(i == j) for j in range(c)] for i in range(c)]
        path.write_text(json.dumps({
            "pair": ["I2", "I0*"],
            "central_multiplicities": [1] * c,
            "branches": [{"fibre_type": "I2",
                          "divisors": [{"m": 1, "r": 1, "incidence": e} for e in units]}],
        }), encoding="utf-8")
        rc, out = run("sha-local", str(path))
        assert rc == rc_expected
        if rc == EXIT_OK:
            assert out.splitlines()[0] == "local sha: 0"
        else:
            assert out == ""
            assert _single_error_line(capsys) == (
                f"error: PresentationInconsistent: presentation has {c} central "
                f"components and {c} divisors; at most {MAX_PRESENTATION_SIZE} of "
                f"each are loaded (MAX_PRESENTATION_SIZE) in {path}"
            )


def test_sha_local_refuses_presentation_entries_over_bound(tmp_path, capsys):
    # one divisor over one central component; at the bound m, r and the
    # incidence entry all load, one more in any of them is refused
    path = tmp_path / "entries.json"
    top = MAX_PRESENTATION_ENTRY

    def write(m, r, x):
        path.write_text(json.dumps({
            "pair": ["I2", "I0*"],
            "central_multiplicities": [m * r * x],
            "branches": [{"fibre_type": "I2", "divisors": [{"m": m, "r": r, "incidence": [x]}]}],
        }), encoding="utf-8")

    write(top, top, top)
    rc, out = run("sha-local", str(path))
    assert (rc, out.splitlines()[0]) == (EXIT_OK, "local sha: 0")
    for field, entries in (
        ("m", (top + 1, top, top)),
        ("r", (top, top + 1, top)),
        ("incidence entry", (top, top, top + 1)),
    ):
        write(*entries)
        rc, out = run("sha-local", str(path))
        assert (rc, out) == (EXIT_ENGINE, "")
        assert _single_error_line(capsys) == (
            f"error: PresentationInconsistent: {field} must be at most {top} "
            f"(MAX_PRESENTATION_ENTRY) in {path}"
        )

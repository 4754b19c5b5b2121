"""Command line interface.

Exit codes: 0 on success, 1 for input problems (syntax or semantic
validation), 2 for engine errors (inconsistent profiles, unresolvable
collisions, bad presentation data, ...).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from . import kodaira, report as report_mod
from .collisions import (
    BranchGerm,
    CollisionPoint,
    blow_up,
    corank,
    delta_eta_gcd,
    miranda_entry,
    miranda_reduce,
)
from .errors import FibrationError, ParseError, naming_input
from .parser import parse_description
from .presentations import load_presentation_file, load_presentations, local_sha_with_witnesses
from .readers import read_integer, read_nonnegative, read_valuation, render_valuation
from .weierstrass import KodairaType, ValuationProfile, classify, j_valuation, minimalize

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ENGINE = 2


def _argument(read):
    """An argparse type over read, one of ellfib.readers' readers (so an
    argument takes what a file takes in its role) or KodairaType.parse."""
    def convert(text: str):
        try:
            return read(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return convert


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser, refusing the [] that Python 3.11's argparse
    hands the last positional argument for a '--' after '--'."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        for name, value in vars(namespace).items():
            if value == []:
                self.error(f"argument {name}: expected one argument")
        return namespace, extras


def _profile(args, prefix: str = "") -> ValuationProfile:
    return ValuationProfile(
        getattr(args, prefix + "va"),
        getattr(args, prefix + "vb"),
        getattr(args, prefix + "vdelta"),
    )


def _print_profile(p: ValuationProfile, out) -> None:
    va, vb, vd = (render_valuation(v) for v in p.as_tuple())
    print(f"va={va} vb={vb} vdelta={vd}", file=out)


def _cmd_classify(args, out) -> int:
    p = _profile(args)
    ft = classify(p)
    print(ft, file=out)
    print(f"j-valuation: {render_valuation(j_valuation(p))}", file=out)
    return EXIT_OK


def _cmd_minimalize(args, out) -> int:
    reduced, twists = minimalize(_profile(args))
    _print_profile(reduced, out)
    print(f"twists removed: {twists}", file=out)
    return EXIT_OK


def _cmd_lattice(args, out) -> int:
    lat = kodaira.lattice_data(args.type)
    print(f"type: {lat.fibre_type}", file=out)
    print(f"components: {lat.component_count}", file=out)
    print(f"multiplicities: {' '.join(str(m) for m in lat.multiplicities)}", file=out)
    print(f"euler number: {kodaira.euler_number(args.type)}", file=out)
    print("gram:", file=out)
    print(str(lat.gram), file=out)
    print(f"discriminant group: {kodaira.discriminant_group(args.type)}", file=out)
    return EXIT_OK


def _germs(args) -> CollisionPoint:
    left = BranchGerm("left", _profile(args, "l"))
    right = BranchGerm("right", _profile(args, "r"))
    return CollisionPoint(left, right)


def _cmd_blowup(args, out) -> int:
    point = _germs(args)
    minimal, twists = blow_up(point)
    rt = classify(minimal)
    print(f"exceptional: {rt}", file=out)
    _print_profile(minimal, out)
    print(f"twists absorbed: {twists}", file=out)
    if minimal.vdelta == 0:
        print("children: dissolved (exceptional fibre is not in the discriminant)", file=out)
    else:
        for label, germ in (("left", point.left), ("right", point.right)):
            lt = germ.fibre_type
            status = "allowed" if miranda_entry(lt, rt) is not None else "needs further blow-ups"
            print(f"{label} child: {lt} + {rt} ({status})", file=out)
    return EXIT_OK


def _cmd_reduce(args, out) -> int:
    tree = miranda_reduce([_germs(args)])[0]
    lines: list[str] = []
    report_mod.tree_text(report_mod.tree_json(tree.root), lines, 0)
    for line in lines:
        print(line, file=out)
    print(f"height: {tree.height()}", file=out)
    return EXIT_OK


def _cmd_sha_local(args, out) -> int:
    pair, pres = load_presentation_file(args.presentation)
    group, witnesses = local_sha_with_witnesses(pres)
    print(f"local sha: {group}", file=out)
    for w in witnesses:
        print(f"generator witness: ({', '.join(str(x) for x in w)})", file=out)
    entry = miranda_entry(*pair)
    if entry is not None:
        registry, kind, obstruction = entry
        agree = "agree" if registry == group else "DISAGREE"
        print(f"registry: {registry} ({agree})", file=out)
        verdict = kind if obstruction is None else f"{kind}({obstruction})"
        print(f"verdict: {verdict}", file=out)
    return EXIT_OK


def _cmd_sha_punctured(args, out) -> int:
    print(kodaira.sha_punctured_transverse(args.type), file=out)
    return EXIT_OK


def _cmd_corank(args, out) -> int:
    print(corank(args.b2_X, args.rho_X, args.b2_S, args.rho_S), file=out)
    return EXIT_OK


def _cmd_delta_gcd(args, out) -> int:
    print(delta_eta_gcd(args.degrees), file=out)
    return EXIT_OK


def _cmd_report(args, out) -> int:
    with naming_input(args.input):
        with open(args.input, "r", encoding="utf-8") as fh:
            description = parse_description(fh.read())
    doc = report_mod.analyze(
        description,
        store=load_presentations(args.presentations),
        base_dir=os.path.dirname(os.path.abspath(args.input)),
    )
    if args.format == "json":
        out.write(report_mod.render_json(doc))
    else:
        out.write(report_mod.render_text(doc))
    return EXIT_ENGINE if doc["errors"] else EXIT_OK


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ellfib",
        description="Exact local invariants of elliptic fibrations over a "
        "surface: Kodaira types, collision resolution, fibre lattices and "
        "Tate-Shafarevich kernels.",
    )
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    valuation = _argument(read_valuation)
    vdelta = _argument(read_nonnegative)

    def add_profile_args(p, prefix=""):
        p.add_argument(prefix + "va", type=valuation, help="valuation of a (or inf)")
        p.add_argument(prefix + "vb", type=valuation, help="valuation of b (or inf)")
        p.add_argument(prefix + "vdelta", type=vdelta, help="valuation of the discriminant")

    p = sub.add_parser("classify", help="Kodaira type of a minimal valuation profile")
    add_profile_args(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("minimalize", help="remove full unit twists from a profile")
    add_profile_args(p)
    p.set_defaults(func=_cmd_minimalize)

    p = sub.add_parser("lattice", help="component lattice of a fibre type")
    p.add_argument("type", type=_argument(KodairaType.parse), help="fibre type, e.g. I3, I0*, IV*")
    p.set_defaults(func=_cmd_lattice)

    for name, helptext in (
        ("blowup", "blow up one collision of two branch profiles"),
        ("reduce", "resolve a collision by repeated blow-ups"),
    ):
        p = sub.add_parser(name, help=helptext)
        add_profile_args(p, "l")
        add_profile_args(p, "r")
        p.set_defaults(func=_cmd_blowup if name == "blowup" else _cmd_reduce)

    p = sub.add_parser("sha-local", help="local Tate-Shafarevich group from a presentation file")
    p.add_argument("presentation", help="JSON presentation file")
    p.set_defaults(func=_cmd_sha_local)

    p = sub.add_parser("sha-punctured", help="punctured transverse Tate-Shafarevich group of a fibre type")
    p.add_argument("type", type=_argument(KodairaType.parse))
    p.set_defaults(func=_cmd_sha_punctured)

    p = sub.add_parser("corank", help="corank from Betti/Picard numbers")
    for arg in ("b2_X", "rho_X", "b2_S", "rho_S"):
        p.add_argument(arg, type=_argument(read_nonnegative))
    p.set_defaults(func=_cmd_corank)

    p = sub.add_parser("delta-gcd", help="gcd of multisection fibre degrees")
    p.add_argument("degrees", type=_argument(read_integer), nargs="+")
    p.set_defaults(func=_cmd_delta_gcd)

    p = sub.add_parser("report", help="analyze a fibration description file")
    p.add_argument("input")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--presentations", help="directory of extension presentation files")
    p.set_defaults(func=_cmd_report)

    return ap


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    ap = build_arg_parser()
    with contextlib.redirect_stdout(out):  # -h prints its help to sys.stdout
        args = ap.parse_args(argv)
    try:
        return args.func(args, out)
    except ParseError as exc:
        for d in exc.diagnostics:
            print(f"error: {d}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FibrationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())

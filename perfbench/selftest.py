"""Self-tests for the benchmark: determinism of the generators, oracles
that catch planted wrong answers, every generated input passing on the
current program, and the tracer's bookkeeping.

Run from the root of a checkout:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import loop  # noqa: E402
import oracles  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402

SCRATCH = os.path.join(ROOT, ".perfbench", "selftest")


def scratch_dir() -> str:
    os.makedirs(SCRATCH, exist_ok=True)
    return tempfile.mkdtemp(dir=SCRATCH)


def generated(workload: str, seed: int) -> str:
    out = scratch_dir()
    workloads.generate(workload, seed, out)
    return out


def matrix(rows):
    rows = [list(r) for r in rows]
    return SimpleNamespace(rows=len(rows), cols=len(rows[0]), entries=tuple(x for r in rows for x in r))


def fake_smith(u, d, v):
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    return (SimpleNamespace(divisible_rank=0, invariant_factors=tuple(x for x in diag if x > 1)),
            SimpleNamespace(U=matrix(u), D=matrix(d), V=matrix(v), rank=sum(1 for x in diag if x)))


def run_report(text: str) -> dict:
    import io

    from ellfib import cli

    path = os.path.join(scratch_dir(), "job.fib")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    buf = io.StringIO()
    assert cli.main(["report", path, "--format", "json"], out=buf) == 0
    return json.loads(buf.getvalue())


class Determinism(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for workload in workloads.WORKLOADS:
            a, b, c = generated(workload, 7), generated(workload, 7), generated(workload, 8)
            names = sorted(os.listdir(a))
            self.assertEqual(names, sorted(os.listdir(b)))
            _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
            self.assertEqual((mismatch, errors), ([], []), workload)
            self.assertFalse(filecmp.cmp(os.path.join(a, workloads.MANIFEST),
                                         os.path.join(c, workloads.MANIFEST), shallow=False))


class Reference(unittest.TestCase):
    def test_generator_profiles_classify_to_their_type(self):
        for t in {t for stratum in workloads._STRATA for t in stratum}:
            for p in workloads._minimal_profiles(t):
                self.assertTrue(ref.valid_profile(p), p)
                self.assertEqual(ref.minimalize(p), (p, 0))
                self.assertEqual(ref.classify(p), t, p)
                self.assertEqual(p[2], ref.euler_number(t))

    def test_inconsistent_pair_is_rejected(self):
        # II (1, 1, 2) + I1 (0, 0, 1) sums to (1, 1, 3): 3va != 2vb but
        # vdelta != min(3va, 2vb)
        with self.assertRaises(ref.Inconsistent):
            ref.reduce_collision((1, 1, 2), (0, 0, 1))


class Oracles(unittest.TestCase):
    TEXT = (
        "[branch N4] va=0 vb=0 vdelta=4\n"
        "[branch N2] va=0 vb=0 vdelta=2\n"
        "[branch D0] va=2 vb=3 vdelta=6\n"
        "[branch K1] va=1 vb=1 vdelta=2\n"
        "[branch K2] va=5 vb=7 vdelta=14\n"
        "[collision] N2 D0\n"
        "[collision] K1 K2\n"
        "[topology] b2_X=23 rho_X=20 b2_S=2 rho_S=1\n"
        "[picard-degrees] 4 6\n"
    )
    SPEC = {
        "mode": "branches",
        "branches": [["N4", [0, 0, 4]], ["N2", [0, 0, 2]], ["D0", [2, 3, 6]],
                     ["K1", [1, 1, 2]], ["K2", [5, 7, 14]]],
        "collisions": [["N2", "D0"], ["K1", "K2"]],
        "topology": [23, 20, 2, 1],
        "degrees": [4, 6],
    }

    def test_report_oracle_accepts_the_program_and_flags_planted_errors(self):
        doc = run_report(self.TEXT)
        self.assertEqual(oracles.check_report(self.SPEC, doc), [])
        plants = [
            lambda d: d["branches"][0].update(discriminant_group="Z/3"),  # I4 has Z/4
            lambda d: d["branches"][4].update(twists_removed=0),
            lambda d: d["branches"][2].update(sha_punctured="Z/4"),
            lambda d: d["verdicts"][0][0].update(verdict="NoIsolatedMultipleFibre"),
            lambda d: d["groups"][0][0].update(computed="0"),
            lambda d: d["blowup_trees"][1].pop("children"),
            lambda d: d["global"].update(corank=5),  # (23 - 20) - (2 - 1) = 2
            lambda d: d["errors"].append({"subject": "x", "kind": "y", "message": "z"}),
        ]
        for plant in plants:
            wrong = run_report(self.TEXT)
            plant(wrong)
            self.assertNotEqual(oracles.check_report(self.SPEC, wrong), [])

    def test_smith_oracle_flags_planted_errors(self):
        from ellfib import exact_linalg

        a = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
        m = exact_linalg.IntMatrix.from_rows(a)
        self.assertEqual(oracles.check_smith(a, exact_linalg.qz_kernel(m),
                                             exact_linalg.smith_normal_form(m)), [])
        eye = [[1, 0], [0, 1]]
        # diag(2, 3) = I * diag(2, 3) * I, but 2 does not divide 3
        problems = oracles.check_smith([[2, 0], [0, 3]], *fake_smith(eye, [[2, 0], [0, 3]], eye))
        self.assertTrue(any("divisibility" in p for p in problems), problems)
        # diag(2, 6) = diag(2, 1) * diag(1, 6) * I, with det U = 2
        problems = oracles.check_smith([[2, 0], [0, 6]],
                                       *fake_smith([[2, 0], [0, 1]], [[1, 0], [0, 6]], eye))
        self.assertTrue(any("det U" in p for p in problems), problems)
        # a decomposition of another matrix
        problems = oracles.check_smith([[1, 0], [0, 7]], *fake_smith(eye, [[1, 0], [0, 6]], eye))
        self.assertTrue(any("U * D * V" in p for p in problems), problems)
        # qz_kernel that disagrees with the diagonal
        qz, dec = fake_smith(eye, [[1, 0], [0, 6]], eye)
        qz.invariant_factors = (2, 3)
        self.assertTrue(oracles.check_smith([[1, 0], [0, 6]], qz, dec))


class SeedProgram(unittest.TestCase):
    def test_every_generated_input_passes_its_oracle(self):
        for workload in workloads.WORKLOADS:
            run = loop.Loop(loop.build_jobs(generated(workload, 1)))
            run.run_pass()
            self.assertEqual(run.failed, 0, f"{workload}: {run.problems}")


class Tracing(unittest.TestCase):
    def test_self_times_add_up_and_wrappers_come_off(self):
        from ellfib import kodaira

        original = kodaira.smith_normal_form
        run = loop.Loop(loop.build_jobs(generated("branch_net", 3))[:10])
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(kodaira.smith_normal_form, original)
            traced = run.run_pass(tracer)
        finally:
            tracer.uninstall()
        self.assertIs(kodaira.smith_normal_form, original)
        names = {f"{m}.{f}" for m, fs in TARGETS.items() for f in fs}
        self.assertTrue({s[0] for s in tracer.spans} <= names)
        layers = tracer.summary(1, traced)
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = {m["name"] for m in json.load(fh)["per_layer"]}
        added_by_run = {"cli.interp_s", "cli.import_s", "trace.overhead_frac"}
        self.assertEqual(declared - added_by_run - set(layers), set())
        self.assertEqual(layers["cli.main.calls"], 10)
        self.assertGreater(layers["exact_linalg.smith_normal_form.calls"], 0)
        self.assertLess(abs(layers["trace.unattributed_frac"]), 0.05)


class Boundary(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = scratch_dir()
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "branch_net",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

"""The timed loop of one workload, run in its own process.

Usage: python loop.py --inputs DIR --seconds S --trace 0|1 [--spans FILE]
with ellfib importable (PYTHONPATH=src).  One client, closed loop: each
job starts when the previous one has returned.  Jobs pass over the
manifest's pool in order, whole passes only, until the timed seconds
are used up.  A job's latency covers the program call alone; its
oracle check runs after the clock stops.

With --trace 1 untraced and traced passes alternate, and the per-layer
metrics come from the traced passes.

Prints one JSON line: attempted, failed, the jobs' wall and normalized
latencies, timed seconds (normalized), peak resident memory and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
from fractions import Fraction
from time import perf_counter

import oracles
import reference
import workloads
from tracing import Tracer


def _report_job(cli, path: str):
    def run():
        buf = io.StringIO()
        code = cli.main(["report", path, "--format", "json"], out=buf)
        return code, buf.getvalue()
    return run


def _report_digest(output) -> bytes:
    code, text = output
    return hashlib.sha256(f"{code}\n{text}".encode("utf-8")).digest()


def _check_report(spec: dict, output) -> list[str]:
    code, text = output
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    return oracles.check_report(spec, doc)


def _smith_job(linalg, matrix):
    def run():
        return linalg.qz_kernel(matrix), linalg.smith_normal_form(matrix)
    return run


def _smith_digest(output) -> bytes:
    qz, dec = output
    h = hashlib.sha256(repr((qz.divisible_rank, qz.invariant_factors, dec.rank)).encode())
    for m in (dec.U, dec.D, dec.V):
        h.update(repr((m.rows, m.cols)).encode())
        for x in m.entries:
            h.update(x.to_bytes((x.bit_length() + 8) // 8, "little", signed=True))
    return h.digest()


def build_jobs(inputs: str) -> list[tuple]:
    """(run, check, digest) triples for the manifest in inputs: run calls
    the program through its public surface, check(output) lists
    problems, digest(output) fingerprints an output."""
    with open(os.path.join(inputs, workloads.MANIFEST), encoding="utf-8") as fh:
        manifest = json.load(fh)
    jobs = []
    if manifest["workload"] == "smith_dense":
        from ellfib import exact_linalg

        for job in manifest["jobs"]:
            rows = job["rows"]
            matrix = exact_linalg.IntMatrix.from_rows(rows)
            jobs.append((_smith_job(exact_linalg, matrix),
                         lambda out, rows=rows: oracles.check_smith(rows, *out),
                         _smith_digest))
    else:
        from ellfib import cli

        for job in manifest["jobs"]:
            path = os.path.abspath(os.path.join(inputs, job["file"]))
            jobs.append((_report_job(cli, path),
                         lambda out, spec=job["spec"]: _check_report(spec, out),
                         _report_digest))
    return jobs


# The machine the benchmark runs on may be shared, and its speed then
# drifts by tens of percent over seconds to minutes.  Before each job the
# loop runs calibration(), a fixed piece of the benchmark's own work of the
# kinds ellfib does: a Bareiss determinant of a small matrix and a sparse
# product of Fraction polynomials.  A job's normalized latency is its
# wall time times
# REFERENCE_CAL_S over the median of the CAL_WINDOW calibration times
# centred on it: its latency on a machine where the calibration takes
# REFERENCE_CAL_S.
REFERENCE_CAL_S = 0.0007
CAL_WINDOW = 5
_CAL_RNG = random.Random(0)
_CAL_MATRIX = [[_CAL_RNG.randint(-9, 9) for _ in range(12)] for _ in range(12)]
_CAL_P = {(i, (7 * i) % 11): Fraction(i + 1, 1 + i % 3) for i in range(10)}
_CAL_Q = {((5 * i) % 13, i): Fraction(2 * i - 9, 1 + i % 2) for i in range(10)}


def calibration() -> float:
    """Seconds the fixed calibration work takes now.  The cyclic garbage
    collector is paused meanwhile, so the program's heap cannot slow it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference.bareiss_det(_CAL_MATRIX)
        workloads.poly_mul(_CAL_P, _CAL_Q)
        return perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Loop:
    """Runs passes over the pool and keeps the per-job record.

    Every output is checked: the first time a job's output is seen it
    goes through the oracle, and a later output of the same job passes
    only if it is byte for byte the one the oracle accepted.
    """

    def __init__(self, jobs):
        self.jobs = jobs
        self.latencies: list[float] = []
        self.calibrations: list[float] = []  # one just before each job
        self.traced: list[bool] = []
        self.verified: list[bytes | None] = [None] * len(jobs)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, tracer: Tracer | None = None, job_base: int = 0) -> float:
        """One pass over the pool; returns the summed wall latency."""
        wall = 0.0
        for i, (run, check, digest) in enumerate(self.jobs):
            self.calibrations.append(calibration())
            if tracer is not None:
                tracer.job = job_base + i
            start = perf_counter()
            try:
                output = run()
            except Exception as exc:  # a job that raises is a failed job
                output, problems = None, [f"raised {type(exc).__name__}: {exc}"]
            took = perf_counter() - start
            if output is not None:
                fingerprint = digest(output)
                if fingerprint == self.verified[i]:
                    problems = []
                else:
                    problems = check(output)
                    if not problems:
                        self.verified[i] = fingerprint
            wall += took
            self.latencies.append(took)
            self.traced.append(tracer is not None)
            self.attempted += 1
            if problems:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"job {i}: " + "; ".join(problems[:3]))
        return wall

    def normalized(self) -> list[float]:
        """Each latency scaled by REFERENCE_CAL_S over the median of the
        CAL_WINDOW calibrations centred on its job, which brackets the
        machine's speed while the job ran."""
        half = CAL_WINDOW // 2
        cal = self.calibrations
        return [took * REFERENCE_CAL_S / statistics.median(cal[max(0, k - half):k + half + 1])
                for k, took in enumerate(self.latencies)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file for the traced spans, written at the end")
    args = ap.parse_args(argv)

    loop = Loop(build_jobs(args.inputs))
    tracer = Tracer() if args.trace else None
    wall = 0.0
    passes = 0
    # whole passes (with --trace 1, an untraced and a traced one each
    # round); stop once less than half a round of time is left
    while passes == 0 or wall + wall / passes / 2 < args.seconds:
        wall += loop.run_pass()
        if tracer is not None:
            tracer.install()
            try:
                wall += loop.run_pass(tracer, job_base=passes * len(loop.jobs))
            finally:
                tracer.uninstall()
        passes += 1

    normalized = loop.normalized()
    result = {
        "wall_s": wall,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "problems": loop.problems,
        "latencies": loop.latencies,
        "normalized": normalized,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        traced_wall = sum(t for t, traced in zip(loop.latencies, loop.traced) if traced)
        traced_norm = sum(n for n, traced in zip(normalized, loop.traced) if traced)
        plain_norm = sum(n for n, traced in zip(normalized, loop.traced) if not traced)
        result["layers"] = tracer.summary(passes, traced_wall)
        result["layers"]["trace.overhead_frac"] = traced_norm / plain_norm - 1.0
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                fh.write("name\tstart_ns\tend_ns\tparent\tjob\n")
                for span in tracer.spans:
                    fh.write("\t".join(str(x) for x in span) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

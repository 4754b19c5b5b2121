"""The ellfib benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload branch_net --seed 1 --seconds 30 --trace 0

Steps: time fresh interpreters for set-up, generate the workload's
inputs from the seed (in this process, so their memory stays out of the
measurement), run the timed loop in a child process that imports ellfib
from src/, check every output against its oracle, and print the metrics.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1, as BENCHMARK.json lists them.
Everything it writes goes under .perfbench/ in the checkout.  See
perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from loop import CAL_WINDOW, REFERENCE_CAL_S, calibration  # noqa: E402

SETUP_PAIRS = 6  # before the timed loop, and as many again after it
CHILD_TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def spawn_pairs(env: dict, pairs: int) -> list[tuple[float, float]]:
    """Normalized wall times of fresh interpreters, (bare `python -c pass`,
    `python -c "import ellfib.cli"`), interleaved.  Each pair is scaled by
    the median of a burst of calibrations just before it: a single sample
    right after a child process has run reads cold caches."""
    def spawn(code: str) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        return perf_counter() - start

    out = []
    for _ in range(pairs):
        scale = REFERENCE_CAL_S / statistics.median(calibration() for _ in range(CAL_WINDOW))
        out.append((spawn("pass") * scale, spawn("import ellfib.cli") * scale))
    return out


def environment(root: str) -> dict:
    sha = "unknown"
    if os.path.exists(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count()}


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ellfib benchmark, one run")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ellfib", "__init__.py")):
        return fail(f"no ellfib sources under {src}; run from the root of a checkout")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    try:
        spawn_pairs(env, 1)  # writes the bytecode cache, untimed
        spawns = spawn_pairs(env, SETUP_PAIRS)
    except (OSError, subprocess.SubprocessError) as exc:
        return fail(f"cannot start the program: {exc}")

    work = os.path.join(root, ".perfbench")
    inputs = os.path.join(work, "inputs", args.workload)
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    os.makedirs(os.path.join(work, "results"), exist_ok=True)
    workloads.generate(args.workload, args.seed, inputs)

    cmd = [sys.executable, os.path.join(HERE, "loop.py"), "--inputs", inputs,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(work, "results", f"spans-{args.workload}.tsv")]
    try:
        child = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"timed loop did not finish within {CHILD_TIMEOUT_S} s")
    if child.returncode != 0 or not child.stdout.strip():
        return fail(f"timed loop exited with code {child.returncode}")
    loop = json.loads(child.stdout.strip().splitlines()[-1])
    # set-up is sampled on both sides of the loop, so one slow phase of a
    # shared machine cannot hold every sample
    spawns += spawn_pairs(env, SETUP_PAIRS)
    setup_s = statistics.median(full for _, full in spawns)
    interp_s = statistics.median(bare for bare, _ in spawns)
    import_s = statistics.median(full - bare for bare, full in spawns)

    attempted, failed = loop["attempted"], loop["failed"]
    for line in loop["problems"]:
        print(f"oracle failure: {line}", file=sys.stderr)

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    wall = {}
    if args.trace:
        values = dict(loop["layers"], **{"cli.interp_s": interp_s, "cli.import_s": import_s})
        declared = bench["per_layer"]
    else:
        values = dict(setup_s=setup_s, peak_rss_mb=loop["peak_rss_kb"] / 1024)
        for into, latencies in ((values, loop["normalized"]), (wall, loop["latencies"])):
            ms = [x * 1000 for x in latencies]
            into.update(jobs_per_s=(attempted - failed) / sum(latencies),
                        job_ms_p50=statistics.median(ms), job_ms_p90=percentile(ms, 90))
        declared = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    env_info = environment(root)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env_info, "samples": attempted,
              "failed_frac": failed / attempted, "wall_s": loop["wall_s"],
              "unnormalized": wall, "metrics": metrics}
    with open(os.path.join(work, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"git {env_info['git_sha'][:12]}  python {env_info['python']}  nproc {env_info['nproc']}")
    print(f"  {'samples':<52} {attempted} jobs in {loop['wall_s']:.2f} s of job time")
    print(f"  {'failed_frac':<52} {failed / attempted:.4f} ratio")
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:.6g} {m['unit']}")
    for name, value in wall.items():
        print(f"  {name + ' (wall clock, not normalized)':<52} {value:.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

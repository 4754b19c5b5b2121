"""Span tracing for the traced run, installed from outside the program.

Each public function listed in TARGETS is replaced by a wrapper at its
module attribute and at every other binding of the same function object
inside ellfib (the `from ... import` copies, e.g.
ellfib.kodaira.smith_normal_form).  A wrapper records one span per call,
(name, start, end, parent span, job id), in memory; counters ride on a
few wrappers as hooks.  Self time of a span is its duration minus the
durations of its direct children: everything runs on one thread, so
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter_ns

TARGETS = {
    "cli": ("main",),
    "parser": ("parse_description", "parse_polynomial"),
    "poly": ("mul", "add"),
    "weierstrass": ("discriminant", "axis_profile", "minimalize", "classify"),
    "kodaira": ("lattice_data", "discriminant_group", "reduced_pairing"),
    "exact_linalg": ("smith_normal_form", "qz_kernel", "induced_kernel_with_witnesses"),
    "collisions": ("miranda_reduce", "blow_up"),
    "presentations": ("local_sha_with_witnesses",),
    "report": ("analyze", "render_json"),
}


def _transform_bits(dec) -> int:
    return max((abs(x).bit_length() for m in (dec.U, dec.V) for x in m.entries), default=0)


def _tree_nodes(node) -> int:
    return 1 + sum(_tree_nodes(c) for c in node.children or ())


class Tracer:
    """Collects spans and counters while installed; install() and
    uninstall() swap the wrappers in and out of ellfib's namespaces."""

    COUNTS = ("parser.input_bytes", "poly.mul.term_pairs", "collisions.tree_nodes",
              "presentations.witnesses", "report.output_bytes")
    MAXIMA = ("kodaira.max_components", "exact_linalg.max_dim",
              "exact_linalg.max_transform_bits")

    def __init__(self):
        self.spans: list = []
        self.job = -1
        self.counts = dict.fromkeys(self.COUNTS, 0)
        self.maxima = dict.fromkeys(self.MAXIMA, 0)
        self.job_types: dict[int, set] = defaultdict(set)
        self._stack: list[int] = []
        self._restore: list = []

    def _hooks(self):
        """Counter updates keyed by span name, called with (args, result)
        after the call returns."""

        def count(key, f):
            def hook(args, result):
                self.counts[key] += f(args, result)
            return hook

        def maximum(key, f):
            def hook(args, result):
                self.maxima[key] = max(self.maxima[key], f(args, result))
            return hook

        def shape(args, result):
            self.maxima["exact_linalg.max_dim"] = max(
                self.maxima["exact_linalg.max_dim"], args[0].rows, args[0].cols)

        def smith(args, result):
            shape(args, result)
            self.maxima["exact_linalg.max_transform_bits"] = max(
                self.maxima["exact_linalg.max_transform_bits"], _transform_bits(result))

        def disc_group(args, result):
            self.job_types[self.job].add(args[0])

        return {
            "parser.parse_description": count("parser.input_bytes",
                                              lambda a, r: len(a[0].encode("utf-8"))),
            "poly.mul": count("poly.mul.term_pairs", lambda a, r: len(a[0]) * len(a[1])),
            "kodaira.lattice_data": maximum("kodaira.max_components",
                                            lambda a, r: r.component_count),
            "kodaira.discriminant_group": disc_group,
            "exact_linalg.smith_normal_form": smith,
            "exact_linalg.qz_kernel": shape,
            "collisions.miranda_reduce": count("collisions.tree_nodes",
                                               lambda a, r: sum(_tree_nodes(t.root) for t in r)),
            "presentations.local_sha_with_witnesses": count("presentations.witnesses",
                                                            lambda a, r: len(r[1])),
            "report.render_json": count("report.output_bytes",
                                        lambda a, r: len(r.encode("utf-8"))),
        }

    def _wrap(self, name: str, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.job)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def install(self) -> None:
        hooks = self._hooks()
        homes = {name: importlib.import_module(f"ellfib.{name}") for name in TARGETS}
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "ellfib" or k.startswith("ellfib."))]
        for mod_name, funcs in TARGETS.items():
            home = homes[mod_name]
            for func in funcs:
                name = f"{mod_name}.{func}"
                original = getattr(home, func)
                wrapper = self._wrap(name, original, hooks.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def summary(self, passes: int, traced_job_s: float) -> dict[str, float]:
        """Per-layer metrics per pass over the job pool."""
        durations = [s[2] - s[1] for s in self.spans]
        child_time = [0] * len(self.spans)
        for s, dur in zip(self.spans, durations):
            if s[3] >= 0:
                child_time[s[3]] += dur
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        root_ns = 0
        for s, dur, kids in zip(self.spans, durations, child_time):
            calls[s[0]] += 1
            self_ns[s[0]] += dur - kids
            if s[3] < 0:
                root_ns += dur
        out: dict[str, float] = {}
        for mod_name, funcs in TARGETS.items():
            for func in funcs:
                name = f"{mod_name}.{func}"
                out[name + ".calls"] = calls[name] / passes
                out[name + ".self_s"] = self_ns[name] / 1e9 / passes
        for key, value in self.counts.items():
            out[key] = value / passes
        out.update(self.maxima)
        distinct = sum(len(types) for types in self.job_types.values())
        out["kodaira.distinct_types"] = distinct / passes
        dg_calls = calls["kodaira.discriminant_group"]
        out["kodaira.useful_ratio"] = distinct / dg_calls if dg_calls else 0.0
        out["trace.unattributed_frac"] = (
            1.0 - root_ns / 1e9 / traced_job_s if traced_job_s > 0 else 0.0)
        return out

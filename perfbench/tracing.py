"""Traced run: wrap shemom's public functions from outside and record spans.

Each public function of the traced modules is replaced, in this process
only, by a wrapper that records a span (name, start, end, parent, raised).
The wrapper is installed under every module attribute bound to the original,
so names imported with ``from ... import`` are wrapped where their caller
looks them up.  Spans stay in memory until the run ends.  Work counts are
computed from call arguments and results ("computed" in layers.json).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = ("cli", "she_moments", "airy", "airy_sampler", "polymer", "combinatorics", "quadrature")
NYSTROM_CALLERS = ("airy.fredholm_multiplicative", "airy.tracy_widom_cdf")
FUNCTIONALS = ("airy_sampler.series_moment_mc", "airy_sampler.hk_mc", "airy_sampler.conditional_laplace_mc")


def _modules():
    return {name: importlib.import_module(f"shemom.{name}") for name in MODULES}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, raised]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)  # per-call values, reported as means
        self._saved: list[tuple] = []
        self.originals: dict[str, object] = {}  # unwrapped functions, for counters

    def install(self) -> None:
        mods = _modules()
        for modname, mod in mods.items():
            for attr, fn in vars(mod).copy().items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{modname}.{attr}"
                self.originals[name] = fn
                wrapper = self._wrap(name, fn)
                for other in mods.values():
                    for other_attr, value in vars(other).copy().items():
                        if value is fn:
                            self._saved.append((other, other_attr, fn))
                            setattr(other, other_attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, False]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, bound.arguments, result, span)
            return result

        return wrapper

    def parent_name(self, span) -> str:
        return self.spans[span[3]][0] if span[3] >= 0 else ""

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "raised"], "spans": self.spans}))

    def self_times(self) -> list[float]:
        """Each span's duration minus the time covered by its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def summary(self) -> dict:
        """Calls, total and self seconds per wrapped function."""
        out: dict = {}
        for span, own in zip(self.spans, self.self_times()):
            row = out.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span[2] - span[1]
            row["self_s"] += own
        return out

    def metrics(self, counters: dict, routes: dict, overhead_s: float, layers: dict) -> dict:
        total = defaultdict(float)
        calls = defaultdict(int)
        raised = defaultdict(int)
        for span in self.spans:
            total[span[0]] += span[2] - span[1]
            calls[span[0]] += 1
            raised[span[0]] += span[4]
        cli_self = sum(own for s, own in zip(self.spans, self.self_times()) if s[0].startswith("cli."))
        c = self.counts
        n_dets = c["nystrom.dets"]

        def mean(key):
            vals = self.samples[key]
            return statistics.fmean(vals) if vals else 0.0

        values = {
            "cli.main.self_s": cli_self,
            "cli.main.raised": raised["cli.main"],
            "she_moments.moment_partition.s": total["she_moments.moment_partition"],
            **{f"she_moments.moment_partition.k{k}_s": mean(f"partition.k{k}") for k in range(4, 9)},
            "she_moments.moment_partition.dets": c["partition.dets"],
            "she_moments.moment_partition.mc_samples": c["partition.mc_samples"],
            "she_moments.moment_contour.tensor_s": c["contour.tensor_s"],
            "she_moments.moment_contour.mc_s": c["contour.mc_s"],
            "she_moments.moment_contour.k3_s": mean("contour.k3"),
            "she_moments.moment_contour.nodes": c["contour.nodes"],
            "she_moments.moment_gaussian_mc.s": total["she_moments.moment_gaussian_mc"],
            "she_moments.moment_gaussian_mc.samples": c["gaussian_mc.samples"],
            "airy.moment_from_airy.s": total["airy.moment_from_airy"],
            "airy.moment_from_airy.k4_s": mean("moment_from_airy.k4"),
            "airy.laplace_R.s": total["airy.laplace_R"],
            "airy.laplace_R.calls": calls["airy.laplace_R"],
            "airy.laplace_R.dets": c["laplace_R.dets"],
            "airy.fredholm_multiplicative.s": total["airy.fredholm_multiplicative"],
            "airy.fredholm_multiplicative.calls": calls["airy.fredholm_multiplicative"],
            "airy.tracy_widom_mean_var.s": total["airy.tracy_widom_mean_var"],
            "airy.tracy_widom_cdf.calls": calls["airy.tracy_widom_cdf"],
            "airy.nystrom.nodes": c["nystrom.nodes"] / n_dets if n_dets else 0.0,
            "airy.nystrom.dets": n_dets,
            "airy_sampler.sample_airy_points.s": total["airy_sampler.sample_airy_points"],
            "airy_sampler.sample_airy_points.replica_ms.n400": 1e3 * mean("replica.n400"),
            "airy_sampler.sample_airy_points.replica_ms.n800": 1e3 * mean("replica.n800"),
            "airy_sampler.sample_airy_points.matrix_rows": c["sampler.matrix_rows"],
            "airy_sampler.functionals.s": sum(total[f] for f in FUNCTIONALS),
            "airy_sampler.functionals.truncation_warnings": counters.get("truncation_warnings", 0),
            "polymer.simulate_polymer.s": total["polymer.simulate_polymer"],
            "polymer.simulate_polymer.n3_replica_us": 1e6 * mean("simulate.n3"),
            "polymer.simulate_polymer.replica_steps": c["simulate.replica_steps"],
            "polymer.simulate_polymer.step_ns": 1e9 * total["polymer.simulate_polymer"] / c["simulate.replica_steps"]
            if c["simulate.replica_steps"]
            else 0.0,
            "polymer.polymer_moment_contour.s": total["polymer.polymer_moment_contour"],
            "polymer.polymer_moment_contour.calls": calls["polymer.polymer_moment_contour"],
            "polymer.intermediate_disorder_limit.s": total["polymer.intermediate_disorder_limit"],
            "polymer.polymer_second_moment_exact.s": total["polymer.polymer_second_moment_exact"],
            "combinatorics.enumerate_partitions.calls": calls["combinatorics.enumerate_partitions"],
            "combinatorics.h_complete.calls": calls["combinatorics.h_complete"],
            "combinatorics.h_complete.s": total["combinatorics.h_complete"],
            "quadrature.gauss_hermite.calls": calls["quadrature.gauss_hermite"],
            "quadrature.gauss_legendre_panels.calls": calls["quadrature.gauss_legendre_panels"],
            "trace.overhead_s": overhead_s,
            "trace.spans": len(self.spans),
        }
        for name in layers:
            if name.startswith("route."):
                informative, estimates = routes.get(name[len("route.") : -len(".informative")], (0, 0))
                values[name] = informative / estimates if estimates else 0.0
        missing = set(layers) - set(values)
        if missing:
            raise RuntimeError(f"traced run did not produce {sorted(missing)}")
        return {name: {"value": float(values[name]), "unit": spec["unit"]} for name, spec in layers.items()}


# ------------------------------------------------------------ computed counters


# default Gauss-Hermite orders come from the modules' own order tables


def _count_partition(tr: Tracer, a, result, span):
    from shemom import she_moments

    k, dur = a["k"], span[2] - span[1]
    tr.samples[f"partition.k{k}"].append(dur)
    for lam in tr.originals["combinatorics.enumerate_partitions"](k):
        ell = lam.length
        if ell <= 4:
            order = a["gh_order"] or she_moments._GH_ORDER_BY_LENGTH[ell]
            tr.counts["partition.dets"] += order**ell + max(6, order // 2) ** ell
        else:
            tr.counts["partition.mc_samples"] += a["mc_samples"]


def _count_contour(tr: Tracer, a, result, span):
    k, dur = a["req"].k, span[2] - span[1]
    if k <= 3:
        n = result.meta["nodes"]
        tr.counts["contour.tensor_s"] += dur
        tr.counts["contour.nodes"] += (n + 1) ** k + (n // 2 + 1) ** k
        if k == 3:
            tr.samples["contour.k3"].append(dur)
    else:
        tr.counts["contour.mc_s"] += dur


def _count_gaussian_mc(tr: Tracer, a, result, span):
    lengths = [lam.length for lam in tr.originals["combinatorics.enumerate_partitions"](a["k"])]
    tr.counts["gaussian_mc.samples"] += a["samples"] * sum(ell >= 2 for ell in lengths)


def _count_laplace_r(tr: Tracer, a, result, span):
    from shemom import airy

    n = np.atleast_1d(np.asarray(a["c"], dtype=float)).size
    if n >= 2:
        order = a["order"] or airy._R_GH_ORDER[n]
        tr.counts["laplace_R.dets"] += order**n + (max(8, order // 2) ** n if a["with_err"] else 0)


def _count_moment_from_airy(tr: Tracer, a, result, span):
    if a["k"] == 4:
        tr.samples["moment_from_airy.k4"].append(span[2] - span[1])


def _count_panels(tr: Tracer, a, result, span):
    if tr.parent_name(span) in NYSTROM_CALLERS:
        tr.counts["nystrom.dets"] += 1
        tr.counts["nystrom.nodes"] += len(result[0])


def _count_sampler(tr: Tracer, a, result, span):
    cfg = a["config"]
    tr.counts["sampler.matrix_rows"] += cfg.matrix_size * cfg.replicas
    tr.samples[f"replica.n{cfg.matrix_size}"].append((span[2] - span[1]) / cfg.replicas)


def _count_polymer(tr: Tracer, a, result, span):
    cfg = a["config"]
    tr.counts["simulate.replica_steps"] += cfg.replicas * (cfg.steps // a["coarsen"]) * cfg.levels
    if cfg.levels == 3 and a["coarsen"] == 1:
        tr.samples["simulate.n3"].append((span[2] - span[1]) / cfg.replicas)


COUNTERS = {
    "she_moments.moment_partition": _count_partition,
    "she_moments.moment_contour": _count_contour,
    "she_moments.moment_gaussian_mc": _count_gaussian_mc,
    "airy.laplace_R": _count_laplace_r,
    "airy.moment_from_airy": _count_moment_from_airy,
    "quadrature.gauss_legendre_panels": _count_panels,
    "airy_sampler.sample_airy_points": _count_sampler,
    "polymer.simulate_polymer": _count_polymer,
}

"""The three workloads: fixed task lists driven through shemom's public entry points.

Each workload is a closed loop with one client: a task starts when the one
before it has returned.  The order of the tasks and every seed the package
receives are derived from the benchmark seed.  Package functions are looked
up through their module at call time, so the tracer can wrap them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from shemom import airy, airy_sampler, cli, polymer

import grid
from checks import Estimate, TaskResult

REFERENCES = json.loads((Path(__file__).resolve().parent / "references.json").read_text())


class TaskFailure(Exception):
    """The program returned, but not with a usable result."""


@dataclass
class Task:
    name: str
    run: Callable[[dict], list]  # takes the round context, returns estimates
    cross_check: bool = False
    phase: int = 0  # tasks run in seeded order within a phase; a phase needs the ones before it


@dataclass
class Round:
    wall: float
    tasks: list
    counters: dict = field(default_factory=dict)
    kernel_seconds: list = field(default_factory=list)  # host-speed kernel runs around the tasks


def derive_seed(*parts) -> int:
    """A 63-bit seed for the package, derived from the benchmark seed and a task name."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def stored(table: str, key: str) -> tuple[float, float]:
    entry = REFERENCES[table][key]
    return entry["value"], entry["err"]


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------- xcheck-sweep


def xcheck_tasks(seed: int, rnd: int, tmp: Path, smoke: bool) -> list:
    ks = grid.XCHECK_K[:3] if smoke else grid.XCHECK_K
    tasks = []
    for T, X in grid.COLUMNS:
        for k in ks:
            name = f"xcheck k={k} T={T:g} X={X:g}"
            tasks.append(Task(name, _xcheck(k, T, X, derive_seed(seed, rnd, name), tmp / "xcheck.json"), True))
    return tasks


def _xcheck(k: int, T: float, X: float, seed: int, out: Path):
    def run(ctx):
        out.unlink(missing_ok=True)
        argv = ["xcheck", "--k", str(k), "--t", repr(T), "--x", repr(X), "--seed", str(seed), "--output", str(out)]
        code = cli.main(argv)
        if code not in (0, 2):
            raise TaskFailure(f"exit code {code}")
        try:
            payload = json.loads(out.read_text())
        except (OSError, ValueError) as exc:
            raise TaskFailure(f"invalid JSON output: {exc}") from exc
        ref, ref_err = stored("moments", grid.moment_key(k, T, X))
        return [
            Estimate(
                route=f"xcheck.{e['method']}",
                label=f"k={k} T={T:g} X={X:g}",
                k=k,
                value=float(e["value"]),
                err=float(e["err"]),
                ref=ref,
                ref_err=ref_err,
                mc_se=float(e["err"]) if e["method"] == "gaussian_mc" or (e["method"] == "contour" and k >= 4) else 0.0,
            )
            for e in payload["estimates"]
        ]

    return run


# ---------------------------------------------------------------------- edge-mc


def edge_tasks(seed: int, rnd: int, tmp: Path, smoke: bool) -> list:
    replicas = 40 if smoke else grid.EDGE_REPLICAS
    tasks = [Task(f"fredholm u={u:g}", _fredholm(u)) for u in grid.LAPLACE_U]
    tasks.append(Task("tracy_widom", _tracy_widom))
    for n in grid.EDGE_N:
        for b in range(grid.EDGE_BATCHES):
            name = f"sample n={n} batch={b}"
            cfg = airy_sampler.EnsembleConfig(n, grid.EDGE_TOP_POINTS, replicas // grid.EDGE_BATCHES,
                                              derive_seed(seed, rnd, name))
            tasks.append(Task(name, _sample(cfg, b)))
        tasks.append(Task(f"functionals n={n}", _functionals(n, derive_seed(seed, rnd, n)), phase=1))
    return tasks


def _fredholm(u: float):
    def run(ctx):
        cfg = airy.AiryConfig.from_T(grid.LAPLACE_T)
        ctx[f"fredholm u={u:g}"] = (airy.fredholm_multiplicative(u, cfg), 0.0)
        return []

    return run


def _tracy_widom(ctx):
    mean, var = airy.tracy_widom_mean_var()
    ctx["tw mean"] = (mean, 0.0)
    ctx["tw var"] = (var, 0.0)
    return []


def _sample(cfg, batch: int):
    def run(ctx):
        sample, secs = _timed(airy_sampler.sample_airy_points, cfg)
        ctx.setdefault(("points", cfg.matrix_size), {})[batch] = sample.points
        ctx[("sample_s", cfg.matrix_size)] = ctx.get(("sample_s", cfg.matrix_size), 0.0) + secs
        return []

    return run


def _functionals(n: int, seed: int):
    def run(ctx):
        batches = ctx[("points", n)]
        points = np.vstack([batches[b] for b in sorted(batches)])
        replicas = len(points)
        sample = airy_sampler.AirySampleSet(airy_sampler.EnsembleConfig(n, grid.EDGE_TOP_POINTS, replicas, seed), points)
        t_sample = ctx[("sample_s", n)]
        top = points[:, 0]
        mean, var = float(top.mean()), float(top.var(ddof=1))
        mean_se = float(top.std(ddof=1)) / math.sqrt(replicas)
        var_se = math.sqrt(max(float(np.mean((top - mean) ** 4)) - var * var, 0.0) / replicas)
        tag = f"n={n}"
        ests = [
            Estimate("edge.top_point", f"mean {tag}", 1, mean, mean_se, math.nan, 0.0, mean_se, t_sample, "tw mean"),
            Estimate("edge.top_point", f"var {tag}", 2, var, var_se, math.nan, 0.0, var_se, t_sample, "tw var"),
        ]

        def functional(route, fn, args, k, ref, ref_err, ref_key, label):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                est, secs = _timed(fn, *args, sample)
            ctx["truncation_warnings"] = ctx.get("truncation_warnings", 0) + len(caught)
            ests.append(Estimate(route, f"{label} {tag}", k, est.value, est.stderr, ref, ref_err, est.stderr,
                                 t_sample + secs, ref_key))

        for u in grid.LAPLACE_U:
            functional("edge.conditional_laplace_mc", airy_sampler.conditional_laplace_mc, (u, grid.LAPLACE_T),
                       1, math.nan, 0.0, f"fredholm u={u:g}", f"u={u:g} T={grid.LAPLACE_T:g}")
        for T in grid.SERIES_T:
            closed = math.exp(T / 24.0) / math.sqrt(2.0 * math.pi * T)
            functional("edge.series_moment_mc", airy_sampler.series_moment_mc, (1, T), 1, closed, 0.0, "",
                       f"k=1 T={T:g}")
        for T in grid.HK_T:
            for k in grid.HK_K:
                ref, ref_err = stored("hk", grid.hk_key(k, T))
                functional("edge.hk_mc", airy_sampler.hk_mc, (k, T), k, ref, ref_err, "", f"k={k} T={T:g}")
        return ests

    return run


# ---------------------------------------------------------------- polymer-limit


def polymer_tasks(seed: int, rnd: int, tmp: Path, smoke: bool) -> list:
    steps, replicas = (50, 2000) if smoke else (grid.POLYMER_STEPS, grid.POLYMER_REPLICAS)
    tasks = []
    for n in grid.POLYMER_N:
        for t in grid.POLYMER_T:
            name = f"simulate N={n} t={t:g}"
            cfg = polymer.PolymerConfig(n, t, steps, replicas, derive_seed(seed, rnd, name))
            tasks.append(Task(name, _simulate(cfg)))
    tasks.append(Task("second moment sweep", _sweep(grid.SWEEP_N[:4] if smoke else grid.SWEEP_N)))
    tasks.append(Task("disorder limits", _limits))
    return tasks


def _simulate(cfg):
    def run(ctx):
        fine, secs = _timed(polymer.simulate_polymer, cfg, max_moment=grid.POLYMER_MAX_MOMENT)
        # the same paths at twice the step: their difference measures the time-step bias
        coarse = polymer.simulate_polymer(cfg, max_moment=grid.POLYMER_MAX_MOMENT, coarsen=2)
        ests = []
        for k in range(1, grid.POLYMER_MAX_MOMENT + 1):
            value, se = float(fine.values[k - 1]), float(fine.stderrs[k - 1])
            err = math.hypot(se, value - float(coarse.values[k - 1]))
            ref, ref_err = stored("polymer", grid.polymer_key(k, cfg.levels, cfg.time))
            ests.append(Estimate("polymer.simulate", f"k={k} N={cfg.levels} t={cfg.time:g}", k, value, err,
                                 ref, ref_err, se, secs))
        return ests

    return run


def _sweep(levels):
    def run(ctx):
        ests = []
        for n in levels:
            for t in grid.POLYMER_T:
                exact = polymer.polymer_second_moment_exact(n, t)
                value = polymer.polymer_moment_contour(2, n, t)
                refined = polymer.polymer_moment_contour(2, n, t, nodes=512)
                ests.append(Estimate("polymer.contour_k2", f"N={n} t={t:g}", 2, value, abs(value - refined),
                                     exact, 0.0))
        return ests

    return run


def _limits(ctx):
    ests = []
    for T, X in grid.COLUMNS:
        for k in grid.LIMIT_K:
            lim = polymer.intermediate_disorder_limit(k, T, X)
            ref, ref_err = stored("moments", grid.moment_key(k, T, X))
            ests.append(Estimate("polymer.limit", f"k={k} T={T:g} X={X:g}", k, lim.extrapolated,
                                 abs(lim.extrapolated - lim.value), ref, ref_err))
    return ests


WORKLOADS = {
    "xcheck-sweep": xcheck_tasks,
    "edge-mc": edge_tasks,
    "polymer-limit": polymer_tasks,
}


def warm_up(tmp: Path) -> None:
    """The first-call cost a CLI user pays, taken before timing starts."""
    cli.main(["xcheck", "--k", "1", "--t", "1", "--output", str(tmp / "warmup.json")])


def _ordered_tasks(workload: str, seed: int, rnd: int, tmp: Path, smoke: bool) -> list:
    tasks = WORKLOADS[workload](seed, rnd, tmp, smoke)
    random.Random(f"{seed}:{rnd}").shuffle(tasks)
    tasks.sort(key=lambda task: task.phase)
    return tasks


def _execute(task: Task, ctx: dict) -> TaskResult:
    t0 = time.perf_counter()
    failure, ests = "", []
    try:
        ests = task.run(ctx)
    except TaskFailure as exc:
        failure = str(exc)
    except Exception as exc:  # a crash is a measured outcome, not a benchmark error
        failure = f"{type(exc).__name__}: {exc}"
    return TaskResult(task.name, time.perf_counter() - t0, ests, failure, task.cross_check)


def _judged(results: list, ctx: dict, wall: float, perturb: float) -> Round:
    for res in results:
        for est in res.estimates:
            est.seconds = est.seconds or res.seconds
            if est.ref_key:
                est.ref, est.ref_err = ctx.get(est.ref_key, (math.nan, 0.0))
        res.finish(perturb)
    return Round(wall, results, {"truncation_warnings": ctx.get("truncation_warnings", 0)})


def run_round(workload: str, seed: int, rnd: int, tmp: Path, smoke: bool = False, perturb: float = 1.0,
              kernel=None) -> Round:
    """Run one pass over the workload's task list in seeded order, then judge it.

    ``kernel``, a host-speed kernel of hostspeed.py, runs before every task and
    after the last; the round's wall is the sum of its task times.
    """
    tasks = _ordered_tasks(workload, seed, rnd, tmp, smoke)
    ctx: dict = {}
    results, kernel_seconds = [], []
    for task in tasks:
        if kernel:
            kernel_seconds.append(kernel())
        results.append(_execute(task, ctx))
    if kernel:
        kernel_seconds.append(kernel())
    judged = _judged(results, ctx, sum(r.seconds for r in results), perturb)
    judged.kernel_seconds = kernel_seconds
    return judged


def run_traced_pair(workload: str, seed: int, rnd: int, tmp: Path, tracer, smoke: bool = False,
                    kernel=None) -> tuple:
    """An untraced and a traced round of the same tasks, as (untraced, traced).

    Each task runs untraced and traced back to back, in alternating order, so
    both runs of a task see the same machine state and warm-up; their walls
    are the sums of their task times.  ``kernel`` runs before every pair and
    after the last; its times serve both rounds.
    """
    plain: tuple = ([], {})
    traced: tuple = ([], {})
    kernel_seconds = []
    for i, task in enumerate(_ordered_tasks(workload, seed, rnd, tmp, smoke)):
        if kernel:
            kernel_seconds.append(kernel())
        for results, ctx in (plain, traced) if i % 2 == 0 else (traced, plain):
            if results is traced[0]:
                tracer.install()
            try:
                results.append(_execute(task, ctx))
            finally:
                tracer.uninstall()  # a no-op after an untraced run
    if kernel:
        kernel_seconds.append(kernel())
    rounds = tuple(_judged(res, ctx, sum(r.seconds for r in res), 1.0) for res, ctx in (plain, traced))
    for judged in rounds:
        judged.kernel_seconds = kernel_seconds
    return rounds

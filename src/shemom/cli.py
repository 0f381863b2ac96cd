"""Command-line front end: run each method, emit machine-readable estimates, cross-validate.

``xcheck`` runs every route of ``she_moments.ROUTES`` whose largest k admits
the request, and compares each pair.

Exit codes: 0 success (and cross-check pass), 2 cross-check tolerance failure
or an xcheck that is not cross-validated (one route only), 1 usage or
configuration error (including a k beyond a route's range, and a scipy that
is missing or whose LAPACK table the sampler refuses), or a numeric
failure: an overflow, an estimate whose value or error is not finite, a
contour estimate whose trapezoid step aliases the phase of the integrand or
that is not positive beyond its error bar, or a failed internal consistency or
accuracy check (any RuntimeError).  Nothing is written on exit 1, so every
emitted report holds finite numbers only.

``moment`` has a subcommand per route of ``she_moments.ROUTES``.  ``--samples``,
the sample count of the stochastic routes, is an option of their ``moment``
subcommands and of ``xcheck`` only; elsewhere it is a usage error.
JSON output is byte-stable for identical arguments and seed, except for the
timestamp, which is isolated under ``metadata`` and excluded from stability
guarantees.  ``sample`` reports also keep there, as ``warnings``, the
warnings their functional raised (the truncation warning of ``series`` and
``hk``) instead of printing them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
import time
import warnings

from . import __version__
from . import airy, airy_sampler, polymer, she_moments

__all__ = ["main", "build_parser", "emit_report"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # the spec'd exit-code contract reserves 1 for usage errors (argparse uses 2)
    def error(self, message):
        raise UsageError(message)


def subseed(seed: int, component: str) -> int:
    """Deterministic sub-seed from (seed, component name)."""
    h = hashlib.sha256(f"{seed}:{component}".encode()).digest()
    return int.from_bytes(h[:8], "big")


def emit_report(payload: dict, fmt: str, out_path: str | None) -> None:
    """Serialize a report; JSON is sorted-key and newline-terminated, CSV one row per estimate."""
    if "estimates" in payload and not payload["estimates"]:
        raise UsageError("refusing to emit a report with no estimates")
    if fmt == "json":
        # numpy scalars and arrays in an estimate's meta become plain numbers and lists
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False, default=lambda o: o.tolist()) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        req = payload.get("request", {})
        writer.writerow(["method", "value", "err", "k", "T", "X", "seed", "version"])
        for e in payload.get("estimates", []):
            writer.writerow(
                [
                    e["method"],
                    repr(e["value"]),
                    repr(e["err"]),
                    req.get("k", ""),
                    req.get("T", ""),
                    req.get("X", ""),
                    payload.get("seed", ""),
                    payload.get("version", ""),
                ]
            )
        text = buf.getvalue()
    else:
        raise UsageError(f"unknown output format: {fmt}")
    if out_path is None:
        sys.stdout.write(text)
        return
    out_dir = os.environ.get("SHEMOM_OUTPUT_DIR")
    if out_dir and not os.path.isabs(out_path):
        out_path = os.path.join(out_dir, out_path)
    with open(out_path, "w") as fh:
        fh.write(text)


def _payload(request: dict, estimates: list, seed: int, gaps: list, passed: bool, caught: list | None = None) -> dict:
    """The report every command emits; refuses an estimate whose value or err is not finite.

    ``caught``, the messages of the warnings a route recorded, goes under
    ``metadata`` as ``warnings``; a route that records none leaves it out.
    """
    for e in estimates:
        if not (math.isfinite(e.value) and math.isfinite(e.err)):
            raise FloatingPointError(f"{e.method} estimate is not finite (value={e.value}, err={e.err})")
    return {
        "request": request,
        "estimates": [
            {"method": e.method, "value": e.value, "err": e.err, "meta": e.meta} for e in estimates
        ],
        "gaps": gaps,
        "pass": passed,
        "seed": seed,
        "version": __version__,
        "metadata": {"timestamp": time.time(), **({} if caught is None else {"warnings": caught})},
    }


def run_xcheck(args) -> tuple[dict, int]:
    req = she_moments.MomentRequest(args.k, args.t, args.x)
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        raise UsageError("tol must be positive and finite")
    routes = she_moments.ROUTES
    # a k beyond every route goes to the widest one, whose guard refuses it by name
    methods = [m for m, r in routes.items() if req.k <= r.k_max] or [max(routes, key=lambda m: routes[m].k_max)]
    estimates = [she_moments.moment(req, m, subseed(args.seed, m), args.samples) for m in methods]
    gaps = []
    # a single route is reported but cannot pass: nothing was compared
    passed = len(estimates) > 1
    for i in range(len(estimates)):
        for j in range(i + 1, len(estimates)):
            a, b = estimates[i], estimates[j]
            denom = max(abs(a.value), abs(b.value), 1e-300)
            rel_gap = abs(a.value - b.value) / denom
            if routes[methods[i]].stochastic or routes[methods[j]].stochastic:
                tol = 3.0 * math.hypot(a.err, b.err) / denom
            else:
                tol = args.tol or (1e-6 if req.k <= 2 else 1e-3)
            ok = bool(rel_gap <= tol)
            passed = passed and ok
            gaps.append({"a": a.method, "b": b.method, "rel_gap": rel_gap, "tol": tol, "pass": ok})
    request = {"k": req.k, "T": req.T, "X": req.X}
    return _payload(request, estimates, args.seed, gaps, passed), 0 if passed else 2


def run_moment(args) -> tuple[dict, list]:
    req = she_moments.MomentRequest(args.k, args.t, args.x)
    method = args.method.replace("-", "_")
    est = she_moments.moment(req, method, subseed(args.seed, method), getattr(args, "samples", None))
    return {"k": req.k, "T": req.T, "X": req.X}, [est]


def run_airy(args) -> tuple[dict, list]:
    if args.method == "fredholm":
        val = airy.fredholm_multiplicative(args.u, airy.AiryConfig.from_T(args.t))
        est = she_moments.MomentEstimate(val, 0.0, "fredholm", {"u": args.u, "T": args.t})
        return {"u": args.u, "T": args.t}, [est]
    if args.method == "laplace-r":
        val, err = airy.laplace_R(args.c, with_err=True)
        return {"c": list(args.c)}, [she_moments.MomentEstimate(val, err, "laplace_r", {"c": list(args.c)})]
    val = airy.airy_kernel(args.x, args.y, form=args.form)
    return {"x": args.x, "y": args.y}, [she_moments.MomentEstimate(val, 0.0, f"kernel_{args.form}", {})]


def run_sample(args) -> tuple[dict, list, list]:
    """The sampler's estimate, and the warnings its functional raised (the truncation warning of hk and series)."""
    cfg = airy_sampler.EnsembleConfig(args.matrix_size, args.top_points, args.replicas, subseed(args.seed, "sample"))
    sam = airy_sampler.sample_airy_points(cfg)
    provenance = {"window": sam.window, "full_matrix_fallbacks": sam.full_matrix_fallbacks}
    if args.method == "airy":
        top = sam.points[:, 0]
        mc = airy_sampler._mean(top)
        est = she_moments.MomentEstimate(
            mc.value,
            mc.stderr,
            "sample_airy",
            {"var_a1": float(top.var(ddof=1)), "replicas": cfg.replicas, **provenance},
        )
        return {"matrix_size": cfg.matrix_size, "top_points": cfg.top_points}, [est], []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # kept for the report's metadata, not printed
        functional = airy_sampler.series_moment_mc if args.method == "series" else airy_sampler.hk_mc
        mc = functional(args.k, args.t, sam)
    if args.method == "series":
        meta = {
            "replicas": mc.replicas,
            # weight calibration: i.i.d. Exp(1) weights reproduce the moment
            # identities exactly; the printed constant (mean-2 weights) would
            # overshoot by 2^k
            "weight_convention": "exponential(1)",
            "weight_mean": 1.0,
            "printed_weight_mean": 2.0,
            "printed_scale_deviation": 2.0 ** args.k,
            "estimator": "rao_blackwell",  # the mean of k! h_k(e^{C a}) = E[S^k | points]
        }
    else:
        meta = {"replicas": mc.replicas}
    est = she_moments.MomentEstimate(mc.value, mc.stderr, f"{args.method}_mc", {**meta, **provenance})
    return {"k": args.k, "T": args.t}, [est], [str(w.message) for w in caught]


def run_polymer(args) -> tuple[dict, list]:
    if args.method == "simulate":
        cfg = polymer.PolymerConfig(args.levels, args.time, args.steps, args.replicas, subseed(args.seed, "polymer"))
        sim = polymer.simulate_polymer(cfg, max_moment=args.max_moment)
        estimates = [
            she_moments.MomentEstimate(
                float(sim.values[i]), float(sim.stderrs[i]), f"polymer_mc_k{i+1}", {"replicas": args.replicas}
            )
            for i in range(args.max_moment)
        ]
        return {"levels": args.levels, "t": args.time, "steps": args.steps}, estimates
    if args.method == "contour":
        val = polymer.polymer_moment_contour(args.k, args.levels, args.time)
        est = she_moments.MomentEstimate(val, 0.0, "polymer_contour", {"levels": args.levels})
        return {"k": args.k, "levels": args.levels, "t": args.time}, [est]
    lim = polymer.intermediate_disorder_limit(args.k, args.t, args.x, tuple(args.levels))
    est = she_moments.MomentEstimate(
        lim.extrapolated,
        abs(lim.extrapolated - lim.value),
        "polymer_limit",
        {"levels": list(lim.levels), "raw": list(lim.raw)},
    )
    return {"k": args.k, "T": args.t, "X": args.x}, [est]


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="shemom", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=True):
        sp.add_argument("--format", choices=["json", "csv"], default="json")
        sp.add_argument("--output", default=None, help="output path (default stdout)")
        if seed:
            sp.add_argument("--seed", type=int, default=0)

    moment = sub.add_parser("moment", help="heat-equation moment E[Z(T,X)^k]")
    moment.set_defaults(run=run_moment)
    msub = moment.add_subparsers(dest="method", required=True)
    for name, route in she_moments.ROUTES.items():
        sp = msub.add_parser(name.replace("_", "-"))
        sp.add_argument("--k", type=int, required=True)
        sp.add_argument("--t", type=float, required=True)
        sp.add_argument("--x", type=float, default=0.0)
        if route.stochastic:
            sp.add_argument("--samples", type=int, default=100_000)
        common(sp)

    ai = sub.add_parser("airy", help="Airy kernel functionals")
    ai.set_defaults(run=run_airy)
    asub = ai.add_subparsers(dest="method", required=True)
    sp = asub.add_parser("fredholm")
    sp.add_argument("--u", type=float, required=True)
    sp.add_argument("--t", type=float, required=True)
    common(sp, seed=False)
    sp = asub.add_parser("laplace-r")
    sp.add_argument("--c", type=float, nargs="+", required=True)
    common(sp, seed=False)
    sp = asub.add_parser("kernel")
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--y", type=float, required=True)
    sp.add_argument("--form", choices=["divided_difference", "integral"], default="divided_difference")
    common(sp, seed=False)

    sample = sub.add_parser("sample", help="Airy point process Monte Carlo")
    sample.set_defaults(run=run_sample)
    ssub = sample.add_subparsers(dest="method", required=True)
    for name in ("airy", "series", "hk"):
        sp = ssub.add_parser(name)
        if name != "airy":
            sp.add_argument("--k", type=int, required=True)
            sp.add_argument("--t", type=float, required=True)
        sp.add_argument("--matrix-size", type=int, default=400)
        sp.add_argument("--top-points", type=int, default=24)
        sp.add_argument("--replicas", type=int, default=2000)
        common(sp)

    poly = sub.add_parser("polymer", help="semi-discrete polymer moments")
    poly.set_defaults(run=run_polymer)
    psub = poly.add_subparsers(dest="method", required=True)
    sp = psub.add_parser("simulate")
    sp.add_argument("--levels", type=int, required=True)
    sp.add_argument("--time", type=float, required=True)
    sp.add_argument("--steps", type=int, default=2000)
    sp.add_argument("--replicas", type=int, default=4000)
    sp.add_argument("--max-moment", type=int, default=2)
    common(sp)
    sp = psub.add_parser("contour")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--levels", type=int, required=True)
    sp.add_argument("--time", type=float, required=True)
    common(sp, seed=False)
    sp = psub.add_parser("limit")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--x", type=float, default=0.0)
    sp.add_argument("--levels", type=int, nargs="+", default=[8, 16])
    common(sp, seed=False)

    xc = sub.add_parser("xcheck", help="run all applicable methods and cross-validate")
    xc.add_argument("--k", type=int, required=True)
    xc.add_argument("--t", type=float, required=True)
    xc.add_argument("--x", type=float, default=0.0)
    xc.add_argument("--tol", type=float, default=None, help="override quadrature-pair tolerance")
    xc.add_argument("--samples", type=int, default=100_000)
    common(xc)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process (a build takes a few ms).

    ``set_defaults(run=…)`` binds the run_* functions at build time, so a
    run_* function rebound after the first ``main`` call is not the one
    ``main`` runs; ``run_xcheck`` is looked up on every call.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "xcheck":
            payload, code = run_xcheck(args)
        else:
            request, estimates, *caught = args.run(args)  # run_sample adds the warnings it recorded
            payload, code = _payload(request, estimates, getattr(args, "seed", 0), [], True, *caught), 0
        emit_report(payload, args.format, args.output)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError) as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

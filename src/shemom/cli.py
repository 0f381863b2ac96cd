"""Command-line front end: run each method, emit machine-readable estimates, cross-validate.

Exit codes: 0 success (and cross-check pass), 2 cross-check tolerance failure
or an xcheck that is not cross-validated (one route only, k >= 7), 1 usage or
configuration error, or a numeric failure: an overflow, an estimate whose
value or error is not finite, a k <= 3 contour estimate that is not positive
beyond its error bar, or a failed internal consistency or accuracy check (any
RuntimeError).  Nothing is written on exit 1,
so every emitted report holds finite numbers only.  JSON output is
byte-stable for identical arguments and seed, except for the timestamp, which
is isolated under ``metadata`` and excluded from stability guarantees.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import time

import numpy as np

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


def _plain(obj):
    """JSON-safe copy: numpy scalars/arrays to python numbers/lists."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def emit_report(payload: dict, fmt: str, out_path: str | None) -> None:
    """Serialize a report; JSON is sorted-key and newline-terminated, CSV one row per estimate."""
    if "estimates" in payload and not payload["estimates"]:
        raise UsageError("refusing to emit a report with no estimates")
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
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


def _payload(request: dict, estimates: list, seed: int, gaps: list, passed: bool) -> dict:
    """The report every command emits; refuses an estimate whose value or err is not finite."""
    for e in estimates:
        if not (math.isfinite(e.value) and math.isfinite(e.err)):
            raise FloatingPointError(f"{e.method} estimate is not finite (value={e.value}, err={e.err})")
    return {
        "request": request,
        "estimates": [
            {"method": e.method, "value": e.value, "err": e.err, "meta": _plain(e.meta)} for e in estimates
        ],
        "gaps": gaps,
        "pass": passed,
        "seed": seed,
        "version": __version__,
        "metadata": {"timestamp": time.time()},
    }


def _at_origin(req: she_moments.MomentRequest, method: str, args) -> she_moments.MomentEstimate:
    """A residue-sum route run at X = 0, shifted to req.X by reduce_to_origin's factor."""
    factor, origin = she_moments.reduce_to_origin(req)
    k, T = origin.k, origin.T
    if method == "partition":
        est = she_moments.moment_partition(k, T, seed=subseed(args.seed, "partition"))
    elif method == "gaussian_mc":
        est = she_moments.moment_gaussian_mc(k, T, samples=args.samples, seed=subseed(args.seed, "gaussian_mc"))
    else:
        hk, hk_err = airy.moment_from_airy(k, airy.AiryConfig.from_T(T), with_err=True)
        scale = math.factorial(k) * math.exp(-k * T / 24.0)
        value = scale * hk
        err = scale * hk_err + she_moments._ERR_FLOOR_REL * abs(value)
        est = she_moments.MomentEstimate(value, err, "airy", {"hk": hk})
    est.value *= factor
    est.err *= factor
    est.meta["shift_factor"] = factor
    return est


_MC_METHODS = {"gaussian_mc"}


def _quad_tol(k: int, override: float | None) -> float:
    if override is not None:
        return override
    return 1e-6 if k <= 2 else 1e-3


def run_xcheck(args) -> tuple[dict, int]:
    req = she_moments.MomentRequest(args.k, args.t, args.x)
    estimates = []
    if req.k <= 3:
        estimates.append(she_moments.moment_contour(req))
    elif req.k <= 5:
        estimates.append(
            she_moments.moment_contour(req, samples=args.samples, seed=subseed(args.seed, "contour"))
        )
    estimates.append(_at_origin(req, "partition", args))
    if req.k <= 6:
        estimates.append(_at_origin(req, "gaussian_mc", args))
    if req.k <= 4:
        estimates.append(_at_origin(req, "airy", args))
    gaps = []
    # a single route (k >= 7) is reported but cannot pass: nothing was compared
    passed = len(estimates) > 1
    for i in range(len(estimates)):
        for j in range(i + 1, len(estimates)):
            a, b = estimates[i], estimates[j]
            denom = max(abs(a.value), abs(b.value), 1e-300)
            rel_gap = abs(a.value - b.value) / denom
            mc = a.method in _MC_METHODS or b.method in _MC_METHODS or (
                req.k > 3 and "contour" in (a.method, b.method)
            )
            if mc:
                tol = 3.0 * math.sqrt(a.err**2 + b.err**2) / denom
            else:
                tol = _quad_tol(req.k, args.tol)
            ok = bool(rel_gap <= tol)
            passed = passed and ok
            gaps.append(
                {"a": a.method, "b": b.method, "rel_gap": rel_gap, "tol": tol, "pass": ok}
            )
    request = {"k": req.k, "T": req.T, "X": req.X}
    return _payload(request, estimates, args.seed, gaps, passed), 0 if passed else 2


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
    msub = moment.add_subparsers(dest="method", required=True)
    for name in ("contour", "partition", "gaussian-mc"):
        sp = msub.add_parser(name)
        sp.add_argument("--k", type=int, required=True)
        sp.add_argument("--t", type=float, required=True)
        sp.add_argument("--x", type=float, default=0.0)
        sp.add_argument("--samples", type=int, default=100_000)
        common(sp)

    ai = sub.add_parser("airy", help="Airy kernel functionals")
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


def _dispatch(args) -> tuple[dict, int]:
    if args.command == "xcheck":
        return run_xcheck(args)

    if args.command == "moment":
        req = she_moments.MomentRequest(args.k, args.t, args.x)
        if args.method == "contour":
            est = she_moments.moment_contour(req, seed=subseed(args.seed, "contour"))
        else:
            est = _at_origin(req, args.method.replace("-", "_"), args)
        request = {"k": req.k, "T": req.T, "X": req.X}
        return _payload(request, [est], args.seed, [], True), 0

    if args.command == "airy":
        if args.method == "fredholm":
            cfg = airy.AiryConfig.from_T(args.t)
            val = airy.fredholm_multiplicative(args.u, cfg)
            est = she_moments.MomentEstimate(val, 0.0, "fredholm", {"u": args.u, "T": args.t})
            request = {"u": args.u, "T": args.t}
        elif args.method == "laplace-r":
            val, err = airy.laplace_R(args.c, with_err=True)
            est = she_moments.MomentEstimate(val, err, "laplace_r", {"c": list(args.c)})
            request = {"c": list(args.c)}
        else:
            val = airy.airy_kernel(args.x, args.y, form=args.form)
            est = she_moments.MomentEstimate(val, 0.0, f"kernel_{args.form}", {})
            request = {"x": args.x, "y": args.y}
        return _payload(request, [est], 0, [], True), 0

    if args.command == "sample":
        cfg = airy_sampler.EnsembleConfig(
            args.matrix_size, args.top_points, args.replicas, subseed(args.seed, "sample")
        )
        sam = airy_sampler.sample_airy_points(cfg)
        if args.method == "airy":
            top = sam.points[:, 0]
            est = she_moments.MomentEstimate(
                float(top.mean()),
                float(top.std(ddof=1) / math.sqrt(len(top))),
                "sample_airy",
                {"var_a1": float(top.var(ddof=1)), "replicas": cfg.replicas},
            )
            request = {"matrix_size": cfg.matrix_size, "top_points": cfg.top_points}
        elif args.method == "series":
            mc = airy_sampler.series_moment_mc(args.k, args.t, sam)
            est = she_moments.MomentEstimate(
                mc.value,
                mc.stderr,
                "series_mc",
                {
                    "replicas": mc.replicas,
                    # weight calibration: i.i.d. Exp(1) weights reproduce the
                    # moment identities exactly; the printed constant (mean-2
                    # weights) would overshoot by 2^k
                    "weight_convention": "exponential(1)",
                    "weight_mean": 1.0,
                    "printed_weight_mean": 2.0,
                    "printed_scale_deviation": 2.0 ** args.k,
                },
            )
            request = {"k": args.k, "T": args.t}
        else:
            mc = airy_sampler.hk_mc(args.k, args.t, sam)
            est = she_moments.MomentEstimate(mc.value, mc.stderr, "hk_mc", {"replicas": mc.replicas})
            request = {"k": args.k, "T": args.t}
        return _payload(request, [est], args.seed, [], True), 0

    if args.command == "polymer":
        if args.method == "simulate":
            cfg = polymer.PolymerConfig(
                args.levels, args.time, args.steps, args.replicas, subseed(args.seed, "polymer")
            )
            sim = polymer.simulate_polymer(cfg, max_moment=args.max_moment)
            estimates = [
                she_moments.MomentEstimate(
                    float(sim.values[i]), float(sim.stderrs[i]), f"polymer_mc_k{i+1}", {"replicas": args.replicas}
                )
                for i in range(args.max_moment)
            ]
            request = {"levels": args.levels, "t": args.time, "steps": args.steps}
            return _payload(request, estimates, args.seed, [], True), 0
        if args.method == "contour":
            val = polymer.polymer_moment_contour(args.k, args.levels, args.time)
            est = she_moments.MomentEstimate(val, 0.0, "polymer_contour", {"levels": args.levels})
            request = {"k": args.k, "levels": args.levels, "t": args.time}
            return _payload(request, [est], 0, [], True), 0
        lim = polymer.intermediate_disorder_limit(args.k, args.t, args.x, tuple(args.levels))
        est = she_moments.MomentEstimate(
            lim.extrapolated,
            abs(lim.extrapolated - lim.value),
            "polymer_limit",
            {"levels": list(lim.levels), "raw": list(lim.raw)},
        )
        request = {"k": args.k, "T": args.t, "X": args.x}
        return _payload(request, [est], 0, [], True), 0

    raise UsageError(f"unknown command {args.command}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload, code = _dispatch(args)
        emit_report(payload, args.format, args.output)
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError) as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

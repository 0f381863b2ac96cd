"""Compute the stored reference values the benchmark judges estimates against.

Run from the repository root:  python3 perfbench/make_references.py
It writes perfbench/references.json.  Each entry records the value, its
error bar and how it was computed.  Closed forms are used where they exist;
otherwise an independent route, or the same route at refined settings, is
used and cross-checked here against a second route before it is stored.
The computation is untimed and takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

from shemom import airy, polymer, she_moments  # noqa: E402

import grid  # noqa: E402

Z_AGREE = 5.0  # build-time agreement rule between two routes


def agree(a: float, ea: float, b: float, eb: float, what: str) -> None:
    tol = Z_AGREE * math.hypot(ea, eb) + 1e-9 * max(abs(a), abs(b))
    if not abs(a - b) <= tol:
        raise SystemExit(f"reference cross-check failed for {what}: {a!r} vs {b!r} (tol {tol:.3e})")


def gaussian_mc_batched(k: int, T: float, batches: int, samples: int) -> tuple[float, float]:
    """Independent Monte Carlo route, averaged over seeded batches to bound memory."""
    vals, errs = [], []
    for b in range(batches):
        est = she_moments.moment_gaussian_mc(k, T, samples=samples, seed=10_000 + b)
        vals.append(est.value)
        errs.append(est.err)
    return float(np.mean(vals)), float(math.sqrt(sum(e * e for e in errs)) / batches)


def origin_moment(k: int, T: float) -> dict:
    """E[Z(T,0)^k] with an error bar and a note on how it was obtained."""
    if k == 1:
        return {"value": she_moments.heat_kernel(T), "err": 0.0, "how": "heat_kernel closed form"}
    if k == 2:
        return {"value": she_moments.erfc_reduction_oracle(T), "err": 0.0, "how": "erfc_reduction_oracle closed form"}
    if k == 3:
        est = she_moments.moment_contour(she_moments.MomentRequest(3, T), nodes=512)
        part = she_moments.moment_partition(3, T)
        agree(est.value, est.err, part.value, part.err, f"k=3 T={T} contour(512) vs partition")
        return {"value": est.value, "err": est.err, "how": "moment_contour tensor, 512 nodes per axis; checked against moment_partition"}
    est = she_moments.moment_partition(k, T, mc_samples=2_000_000, seed=20_000 + k)
    how = "moment_partition with 2e6 Monte Carlo samples per long partition (10x default)"
    if k <= 6:
        mc, mc_err = gaussian_mc_batched(k, T, batches=20, samples=200_000)
        agree(est.value, est.err, mc, mc_err, f"k={k} T={T} partition vs gaussian_mc(4e6)")
        how += "; checked against moment_gaussian_mc with 4e6 samples"
    else:
        how += "; single route at k > 6, no second route exists"
    return {"value": est.value, "err": est.err, "how": how}


def shifted(entry: dict, k: int, T: float, X: float) -> dict:
    factor = math.exp(-k * X * X / (2.0 * T))
    how = entry["how"] + (f"; times exp(-k X^2 / 2T) = {factor!r}" if X else "")
    return {"value": entry["value"] * factor, "err": entry["err"] * factor, "how": how}


def hk_reference(k: int, T: float) -> dict:
    cfg = airy.AiryConfig.from_T(T)
    default = airy.moment_from_airy(k, cfg)
    refined = 0.0
    for lam in she_moments.enumerate_partitions(k):
        inv_mult = 1.0 / math.prod(math.factorial(m) for m in lam.multiplicities.values())
        c = cfg.C * np.asarray(lam.parts, dtype=float)
        refined += inv_mult * airy.laplace_R(c, order=(3 * airy._R_GH_ORDER[len(c)]) // 2)
    return {"value": refined, "err": abs(refined - default), "how": "moment_from_airy with Gauss-Hermite order x1.5; err = change from default order"}


def polymer_reference(k: int, n: int, t: float) -> dict:
    fine = polymer.polymer_moment_contour(k, n, t, nodes=512)
    coarse = polymer.polymer_moment_contour(k, n, t, nodes=256)
    exact = t ** (n - 1) / math.factorial(n - 1) if k == 1 else polymer.polymer_second_moment_exact(n, t)
    agree(fine, abs(fine - coarse), exact, 0.0, f"polymer k={k} N={n} t={t} contour vs closed form")
    return {"value": fine, "err": abs(fine - coarse), "how": "polymer_moment_contour, 512 nodes; err = change from 256; checked against the closed form"}


def main() -> None:
    origin = {(k, T): origin_moment(k, T) for T in sorted({T for T, _ in grid.COLUMNS}) for k in grid.XCHECK_K}
    for key, entry in origin.items():
        print("origin", key, entry["value"], entry["err"], flush=True)
    refs = {
        "generated_by": "python3 perfbench/make_references.py",
        "moments": {
            grid.moment_key(k, T, X): shifted(origin[k, T], k, T, X) for T, X in grid.COLUMNS for k in grid.XCHECK_K
        },
        "hk": {grid.hk_key(k, T): hk_reference(k, T) for T in grid.HK_T for k in grid.HK_K},
        "polymer": {
            grid.polymer_key(k, n, t): polymer_reference(k, n, t)
            for n in grid.POLYMER_N
            for t in grid.POLYMER_T
            for k in range(1, grid.POLYMER_MAX_MOMENT + 1)
        },
    }
    (BENCH / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print("wrote", BENCH / "references.json")


if __name__ == "__main__":
    main()

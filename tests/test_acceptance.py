"""Acceptance gate: criteria A1-A14, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  Every expected value is produced by an oracle computed here or by an
independent route inside the package; none are hardcoded ground truth.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import trapezoid

from oracles import (
    h_truncated,
    okounkov_numeric,
    okounkov_transform,
    partition_count,
    truncated_generating_check,
)
from shemom import airy, airy_sampler, cli, polymer
from shemom.combinatorics import h_complete
from shemom.she_moments import (
    MomentRequest,
    default_anchors,
    dominant_term_log,
    erfc_reduction_oracle,
    heat_kernel,
    moment_contour,
    moment_partition,
    reduce_to_origin,
)


def report(name: str, passed: bool, detail: str) -> None:
    print(f"{name} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def edge_samples_n800():
    # shared by A9 and A10
    cfg = airy_sampler.EnsembleConfig(matrix_size=800, top_points=24, replicas=10_000, seed=20)
    return airy_sampler.sample_airy_points(cfg)


@pytest.fixture(scope="module")
def edge_samples_n400():
    # A7: T=2, N=400, 10^4 replicas
    cfg = airy_sampler.EnsembleConfig(matrix_size=400, top_points=24, replicas=10_000, seed=21)
    return airy_sampler.sample_airy_points(cfg)


def test_a1_k1_exactness():
    worst = 0.0
    worst_time = 0.0
    for T in (0.5, 1.0, 2.0):
        for X in (0.0, 1.0):
            truth = heat_kernel(T, X)
            t0 = time.time()
            c = moment_contour(MomentRequest(1, T, X))
            t_contour = time.time() - t0
            factor, origin = reduce_to_origin(MomentRequest(1, T, X))
            t0 = time.time()
            p = moment_partition(1, origin.T)
            t_partition = time.time() - t0
            worst = max(
                worst,
                abs(c.value - truth) / truth,
                abs(factor * p.value - truth) / truth,
            )
            worst_time = max(worst_time, t_contour, t_partition)
    report(
        "A1",
        worst < 1e-8 and worst_time < 1.0,
        f"k=1 contour/partition vs heat kernel, worst rel {worst:.2e}, "
        f"worst runtime {worst_time:.2f}s",
    )


def test_a2_k2_triple_agreement():
    t0 = time.time()
    oracle = erfc_reduction_oracle(1.0)
    c = moment_contour(MomentRequest(2, 1.0)).value
    p = moment_partition(2, 1.0).value
    elapsed = time.time() - t0
    gaps = [abs(c - p) / oracle, abs(c - oracle) / oracle, abs(p - oracle) / oracle]
    report(
        "A2",
        max(gaps) < 1e-6 and elapsed < 30.0,
        f"k=2 T=1 contour={c:.9f} partition={p:.9f} erfc-oracle={oracle:.9f}, "
        f"max rel gap {max(gaps):.2e}, {elapsed:.1f}s",
    )


def test_a3_k3_agreement():
    t0 = time.time()
    c = moment_contour(MomentRequest(3, 0.5)).value
    p = moment_partition(3, 0.5).value
    elapsed = time.time() - t0
    gap = abs(c - p) / max(abs(c), abs(p))
    report(
        "A3",
        gap < 1e-3 and elapsed < 300.0,
        f"k=3 T=0.5 contour={c:.8f} partition={p:.8f}, rel gap {gap:.2e}, {elapsed:.1f}s",
    )


def test_a4_contour_invariance():
    worst = 0.0
    ok = True
    cases = [
        MomentRequest(1, 0.5, 0.0),
        MomentRequest(1, 2.0, 1.0),
        MomentRequest(2, 1.0, 0.0),
        MomentRequest(3, 0.5, 0.0),
    ]
    for req in cases:
        base = moment_contour(req)
        for gap in (1.2, 2.0):
            alt = moment_contour(req, anchors=default_anchors(req.k, gap=gap))
            shift = abs(alt.value - base.value)
            allowed = 2.0 * max(base.err, alt.err)
            ok = ok and shift <= allowed
            worst = max(worst, shift / allowed if allowed else 0.0)
    report("A4", ok, f"anchor perturbations, worst shift/(2 x err) = {worst:.3f}")


def test_a5_okounkov_identity():
    t0 = time.time()
    worst = 0.0
    for x in (0.5, 1.0, 2.0):
        for a in (-1.0, 0.0, 1.5):
            for b in (-0.5, 0.0, 2.0):
                closed = okounkov_transform(x, a, b)
                numeric = okounkov_numeric(x, a, b)
                worst = max(worst, abs(numeric - closed) / abs(closed))
    elapsed = time.time() - t0
    report(
        "A5",
        worst < 1e-6 and elapsed < 60.0,
        f"27-point Okounkov grid, worst rel {worst:.2e}, {elapsed:.1f}s",
    )


def test_a6_r_calibration():
    closed = math.exp(1.0 / 12.0) / (2.0 * math.sqrt(math.pi))
    r1 = airy.laplace_R(1.0)
    gap1 = abs(r1 - closed) / closed
    r2 = airy.laplace_R([1.0, 1.0])
    direct = airy.laplace_R_direct([1.0, 1.0])
    gap2 = abs(r2 - direct) / abs(direct)
    report(
        "A6",
        gap1 < 1e-8 and gap2 < 1e-4,
        f"laplace_R(1)={r1:.8f} vs closed {closed:.8f} (rel {gap1:.1e}); "
        f"n=2 vs direct quadrature rel {gap2:.1e}",
    )


def test_a7_fredholm_vs_sampler(edge_samples_n400):
    t0 = time.time()
    T = 2.0
    cfg = airy.AiryConfig.from_T(T)
    ok = True
    details = []
    for u in (0.1, 1.0):
        det = airy.fredholm_multiplicative(u, cfg)
        mc = airy_sampler.conditional_laplace_mc(u, T, edge_samples_n400)
        z = (mc.value - det) / mc.stderr
        ok = ok and abs(z) <= 3.0
        details.append(f"u={u}: det={det:.6f} mc={mc.value:.6f} z={z:+.2f}")
    elapsed = time.time() - t0
    report("A7", ok and elapsed < 600.0, "; ".join(details) + f", {elapsed:.1f}s")


def test_a8_small_u_probe():
    T = 2.0
    u = 1e-4
    cfg = airy.AiryConfig.from_T(T)
    slope = (1.0 - airy.fredholm_multiplicative(u, cfg)) / u
    target = airy.laplace_R(cfg.C)
    gap = abs(slope - target) / target
    report("A8", gap < 1e-3, f"[1 - det(u)]/u = {slope:.6f} vs R(C) = {target:.6f}, rel {gap:.1e}")


def test_a9_random_series(edge_samples_n800):
    ok = True
    details = []
    for T in (0.5, 2.0):
        est = airy_sampler.series_moment_mc(1, T, edge_samples_n800)
        truth = math.exp(T / 24.0) / math.sqrt(2.0 * math.pi * T)
        z = (est.value - truth) / est.stderr
        ok = ok and abs(z) <= 3.0
        details.append(f"T={T}: mc={est.value:.5f} truth={truth:.5f} z={z:+.2f}")
    details.append(
        "calibrated weights i.i.d. Exp(1) (mean 1); printed convention (mean-2 "
        "weights) deviates by factor 2 per weight"
    )
    report("A9", ok, "; ".join(details))


def test_a10_sampler_fidelity(edge_samples_n800):
    top = edge_samples_n800.points[:, 0]
    mean, var = float(top.mean()), float(top.var(ddof=1))
    # oracle recomputed from the Fredholm machinery, not hardcoded
    tw_mean, tw_var = airy.tracy_widom_mean_var()
    ok = abs(mean - tw_mean) < 0.03 and abs(var - tw_var) < 0.05
    report(
        "A10",
        ok,
        f"mean(a1)={mean:.4f} vs Fredholm {tw_mean:.4f}; Var(a1)={var:.4f} vs {tw_var:.4f}",
    )


def test_a11_polymer():
    ok = True
    details = []
    for levels in (1, 2, 3):
        for t in (0.5, 1.0):
            cfg = polymer.PolymerConfig(
                levels=levels, time=t, steps=500, replicas=100_000, seed=31
            )
            sim = polymer.simulate_polymer(cfg, max_moment=1)
            truth = polymer.polymer_moment_contour(1, levels, t)
            if levels == 1:  # no lower level: the top level's mean is exact, with no error to scale by
                gap = abs(sim.values[0] - truth)
                ok = ok and gap <= 1e-12 * truth and sim.stderrs[0] == 0.0
                details.append(f"N=1 t={t}: gap={gap:.1e} err={sim.stderrs[0]:.0e}")
                continue
            z = (sim.values[0] - truth) / sim.stderrs[0]
            ok = ok and abs(z) <= 3.0
            details.append(f"N={levels} t={t}: z={z:+.2f}")
    T = 1.0
    lim1 = polymer.intermediate_disorder_limit(1, T, levels=(25, 50))
    gap1 = abs(lim1.value - heat_kernel(T)) / heat_kernel(T)
    ok = ok and gap1 < 0.02
    details.append(f"disorder k=1 N=50 rel {gap1:.4f}")
    lim2 = polymer.intermediate_disorder_limit(2, T, levels=(8, 16))
    truth2 = erfc_reduction_oracle(T)
    gap2 = abs(lim2.extrapolated - truth2) / truth2
    ok = ok and gap2 < 0.01
    details.append(f"disorder k=2 extrapolated rel {gap2:.4f}")
    report("A11", ok, "; ".join(details))


def test_a12_exact_combinatorics():
    rng = np.random.default_rng(12)
    checks = 0
    ok = True
    for _ in range(20):
        Q = int(rng.integers(1, 5))
        cap = int(rng.integers(1, 4))
        alphabet = [
            Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 9))) for _ in range(Q)
        ]
        ok = ok and truncated_generating_check(Q, cap, 6, alphabet)
        checks += 1
    x = [Fraction(2, 3), Fraction(1, 5), Fraction(3, 4)]
    for cap in (1, 2, 3):
        for n in range(cap + 1):
            ok = ok and h_truncated(n, cap, x) == h_complete(n, x)
    # p(n) against an independent bounded-part DP for n <= 30
    dp = [[0] * 31 for _ in range(31)]
    for m in range(31):
        dp[m][0] = 1
    for m in range(1, 31):
        for n in range(1, 31):
            dp[m][n] = dp[m - 1][n] + (dp[m][n - m] if n >= m else 0)
    for n in range(31):
        ok = ok and partition_count(n) == dp[30][n]
    report("A12", ok, f"{checks} random truncated generating checks; caps; p(n) n<=30")


def test_a13_intermittency():
    T = 4.0
    ok = True
    details = []
    # dominant term vs direct 1-d quadrature of the lambda=(k) integrand on the
    # centered line w = -(k-1)/2 + i y, where the determinant is the scalar 1/k
    for k in (4, 5, 6, 7):
        decay = T * k / 2.0
        const = (T / 2.0) * (k**3 - k) / 12.0
        y = np.linspace(-8.0 / math.sqrt(decay), 8.0 / math.sqrt(decay), 801)
        val = trapezoid(np.exp(-decay * y * y) / k, x=y)
        direct = math.factorial(k) * val * math.exp(const) / (2.0 * math.pi)
        dom = math.exp(dominant_term_log(k, T))
        gap_dom = abs(direct - dom) / dom
        ok = ok and gap_dom < 1e-8
        est = moment_partition(k, T)
        log_gap = abs(math.log(est.value) - math.log(dom))
        ok = ok and log_gap <= math.log(1.05)
        details.append(f"k={k}: log gap {log_gap:.2e}, direct-quad rel {gap_dom:.1e}")
    report("A13", ok, "; ".join(details))


def test_a14_cli_contract(capsys):
    code_pass = cli.main(["xcheck", "--k", "1", "--t", "1", "--x", "0"])
    out1 = capsys.readouterr().out
    code_fail = cli.main(["xcheck", "--k", "1", "--t", "1", "--tol", "1e-15"])
    out_fail = capsys.readouterr().out
    code_usage = cli.main(["xcheck"])
    capsys.readouterr()
    cli.main(["xcheck", "--k", "1", "--t", "1", "--x", "0"])
    out2 = capsys.readouterr().out

    def stable(text):
        payload = json.loads(text)
        payload["metadata"].pop("timestamp")
        return json.dumps(payload, sort_keys=True)

    ok = (
        code_pass == 0
        and code_fail == 2
        and code_usage == 1
        and json.loads(out_fail)["estimates"]
        and stable(out1) == stable(out2)
    )
    report(
        "A14",
        ok,
        f"exit codes (pass={code_pass}, forced-fail={code_fail}, usage={code_usage}); "
        "JSON byte-stable modulo timestamp",
    )

"""Airy function, kernel, Laplace transforms, and Fredholm determinants vs oracles."""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy import special

from oracles import laplace_R_two_part, okounkov_numeric, okounkov_transform, spawned_normals
from shemom import airy
from shemom.airy import (
    AiryConfig,
    _ai_both,
    airy_kernel,
    edge_scale,
    fredholm_multiplicative,
    laplace_R,
    laplace_R_direct,
    laplace_R_mc,
    moment_from_airy,
    tracy_widom_cdf,
    tracy_widom_mean_var,
)
from shemom.combinatorics import enumerate_partitions
from shemom.quadrature import cauchy_pair_det
from shemom.she_moments import MomentRequest, erfc_reduction_oracle, moment_contour


class TestAiryFunction:
    def test_against_mpmath_window(self):
        # 30-digit reference over the whole window, denser where Ai turns
        # from oscillation to decay; errors in the scale of the amplitude
        mpmath = pytest.importorskip("mpmath")
        x = np.concatenate(
            [np.linspace(-600.0, -15.0, 60), np.linspace(-15.0, 30.0, 91)[1:], np.linspace(30.0, 200.0, 21)[1:]]
        )
        with mpmath.workdps(30):
            ai = np.array([float(mpmath.airyai(v)) for v in x])
            aip = np.array([float(mpmath.airyai(v, derivative=1)) for v in x])
        scale = np.maximum(1.0, np.abs(x)) ** 0.25
        got_ai, got_aip = _ai_both(x)
        assert np.max(np.abs(got_ai - ai) * scale) < 1e-11
        assert np.max(np.abs(got_aip - aip) / scale) < 1e-11

    def test_scalar_interface(self):
        ai, aip = _ai_both(0.0)
        assert ai[0] == pytest.approx(
            3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0), rel=1e-14
        )
        assert aip[0] == pytest.approx(
            -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0), rel=1e-14
        )

    def test_wronskian(self):
        # Ai(x) Bi'(x) - Ai'(x) Bi(x) = 1/pi; probe via the scipy Bi
        for x in (-5.0, 0.0, 2.0, 10.0):
            _, _, bi, bip = special.airy(x)
            ai, aip = _ai_both(x)
            w = ai[0] * bip - aip[0] * bi
            assert w == pytest.approx(1.0 / math.pi, rel=1e-10)

    def test_window_enforced(self):
        with pytest.raises(ValueError):
            _ai_both(-1e4)
        with pytest.raises(ValueError):
            _ai_both(1e4)


class TestAiryKernel:
    @pytest.mark.parametrize("x,y", [(0.0, 0.0), (1.5, -3.0), (-6.0, -6.0), (-10.0, 4.0)])
    def test_forms_agree(self, x, y):
        dd = airy_kernel(x, y)
        integral = airy_kernel(x, y, form="integral")
        assert dd == pytest.approx(integral, abs=1e-12)

    def test_diagonal_limit_continuous(self):
        exact = airy_kernel(1.0, 1.0)
        near = airy_kernel(1.0, 1.0 + 1e-9)
        assert near == pytest.approx(exact, rel=1e-6)

    def test_symmetry(self):
        assert airy_kernel(0.3, -1.2) == pytest.approx(airy_kernel(-1.2, 0.3), rel=1e-13)

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            airy_kernel(0.0, 0.0, form="bogus")


class TestOkounkov:
    def test_grid_identity(self):
        for x in (0.5, 1.0, 2.0):
            for a in (-1.0, 0.0, 1.5):
                for b in (-0.5, 0.0, 2.0):
                    closed = okounkov_transform(x, a, b)
                    numeric = okounkov_numeric(x, a, b)
                    assert numeric == pytest.approx(closed, rel=1e-6)

    def test_requires_positive_x(self):
        with pytest.raises(ValueError):
            okounkov_transform(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            okounkov_numeric(-1.0, 0.0, 0.0)


class TestLaplaceR:
    def test_n1_closed_form(self):
        assert laplace_R(1.0) == pytest.approx(
            math.exp(1.0 / 12.0) / (2.0 * math.sqrt(math.pi)), rel=1e-12
        )

    def test_n1_vs_direct(self):
        for c in (0.6, 1.0, 1.5):
            assert laplace_R_direct(c) == pytest.approx(laplace_R(c), rel=1e-8)

    def test_n2_vs_direct(self):
        got = laplace_R([1.0, 1.0])
        direct = laplace_R_direct([1.0, 1.0])
        assert got == pytest.approx(direct, rel=1e-8)

    def test_symmetric_in_arguments(self):
        assert laplace_R([0.7, 1.3]) == pytest.approx(laplace_R([1.3, 0.7]), rel=1e-10)

    def test_error_estimate(self):
        val, err = laplace_R([1.0, 0.8], with_err=True)
        assert err >= 0.0
        assert err < 1e-6 * abs(val)

    @pytest.mark.parametrize("T", [0.5, 1.0, 2.0])
    def test_two_parts_within_error_bar(self, T):
        # every two-part term of the residue sum for k <= 8, against the closed form, at the bar itself:
        # where order halving changes nothing, the round-off term alone must cover the error
        C = edge_scale(T)
        for lam in (lam for k in range(2, 9) for lam in enumerate_partitions(k) if lam.length == 2):
            c = C * np.asarray(lam.parts, dtype=float)
            val, err = laplace_R(c, with_err=True)
            assert abs(val - laplace_R_two_part(*c)) <= err, lam.parts

    @pytest.mark.parametrize("c", [[20.5], [30.0, 20.0], [13.0, 13.0, 13.0, 13.0]])
    def test_overflow_refused_by_name(self, c):
        # e^{sum c^3/12} beyond the largest double: both evaluators name R, c and the exponent
        for R in (laplace_R, lambda c: laplace_R_mc(c, 1000, np.random.default_rng(0))):
            with pytest.raises(FloatingPointError, match=r"R overflowed at c = \[.*\]: e\^\(sum c\^3/12\) = e\^"):
                R(c)

    def test_guards(self):
        with pytest.raises(ValueError):
            laplace_R([1.0, -1.0])
        with pytest.raises(ValueError):
            laplace_R([1.0] * 5)
        with pytest.raises(ValueError):
            laplace_R_direct([1.0, 1.0, 1.0])

    @pytest.mark.parametrize("c", [[1.0, math.nan], [math.inf], [1.0, 0.0]])
    def test_direct_refuses_bad_c(self, c):
        with pytest.raises(ValueError, match="c_i must be positive and finite"):
            laplace_R_direct(c)


class TestLaplaceRMC:
    @pytest.mark.parametrize("samples", [0, 1])
    def test_refuses_too_few_samples(self, samples):
        with pytest.raises(ValueError, match="samples"):
            laplace_R_mc([1.0, 0.8], samples, np.random.default_rng(0))

    @pytest.mark.parametrize("c", [[1.0, -1.0], [1.0, math.nan], [math.inf, 1.0], [1.0, 0.0], [-2.0]])
    def test_refuses_bad_c(self, c):
        with pytest.raises(ValueError, match="all c_i must be positive and finite"):
            laplace_R_mc(c, 1000, np.random.default_rng(0))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_difference_factor_reproduces_covariance(self, n):
        # Cov(Z_i - Z_n) for Z_i independent N(0, 1/(2 c_i)), at unequal parts
        c = np.random.default_rng(n).uniform(0.3, 4.0, n)
        diagonal, below = airy._difference_factor(c)
        L = np.diag(diagonal) + np.tril(np.broadcast_to(below, (n - 1, n - 1)), -1)
        cov = np.diag(0.5 / c[:-1]) + 0.5 / c[-1]
        np.testing.assert_allclose(L @ L.T, cov, rtol=1e-14)
        np.testing.assert_allclose(L, np.linalg.cholesky(cov), rtol=1e-13)

    @pytest.mark.parametrize("n", [2, 5, 8])
    @pytest.mark.parametrize("samples", [1000, 2 * airy._MC_CHUNK + 5, 200_000])
    def test_matches_serial_route_for_any_worker_count(self, monkeypatch, n, samples):
        c = np.linspace(0.6, 1.8, n)
        # the serial route: each chunk's normals from its own spawned child, the differences
        # D_i = L[i, i] G_i + sum_{k<i} L[i, k] G_k by one cumulative sum, every determinant in one call
        g = spawned_normals(np.random.default_rng(11), samples, n - 1)
        diagonal, below = airy._difference_factor(c)
        d = diagonal[:, None] * g
        d[1:] += np.cumsum(below[:-1, None] * g[:-1], axis=0)
        dets = cauchy_pair_det([*d, 0.0], c)
        pref = math.exp(float(np.sum(c**3) / 12.0)) / float(np.prod(2.0 * math.sqrt(math.pi) * np.sqrt(c)))
        ref = (pref * float(np.mean(dets)), pref * float(np.std(dets, ddof=1) / math.sqrt(samples)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more workers than cores, switching often: shared buffers would show
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(airy, "_usable_cores", lambda w=workers: w)
                rng = np.random.default_rng(11)
                assert laplace_R_mc(c, samples, rng) == ref
                # one child per chunk: the routes' next partition spawns fresh streams from the same generator
                assert rng.bit_generator.seed_seq.n_children_spawned == -(-samples // airy._MC_CHUNK)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("T", [0.5, 2.0])
    @pytest.mark.parametrize("parts", [(2, 1), (1, 1, 1), (2, 1, 1, 1)])
    def test_agrees_with_gauss_hermite_R(self, parts, T):
        # a stream fault, such as every chunk reusing one child, would shrink the standard error
        c = edge_scale(T) * np.asarray(parts, dtype=float)
        value, se = laplace_R_mc(c, 200_000, np.random.default_rng(np.random.SeedSequence(entropy=7)))
        # at twice the default order the rule's own error is below 0.1 se; at the
        # default order it reaches 1.5 se for (2, 1, 1, 1) at T = 0.5
        truth = laplace_R(c, order=2 * airy._R_GH_ORDER[len(c)])
        assert abs(value - truth) <= 4.0 * se, (value, se, truth)
        if len(c) == 2:
            assert abs(value - laplace_R_two_part(*c)) <= 4.0 * se

    def test_failing_chunk_ends_the_call(self):
        # in a child process, so that a deadlock fails the test instead of hanging the suite at exit
        script = textwrap.dedent(
            """
            import itertools
            import numpy as np
            from shemom import airy

            calls = itertools.count(1)
            det = airy.cauchy_pair_det

            def failing_det(*args, **kwargs):
                if next(calls) == 2:
                    raise ArithmeticError("second chunk")
                return det(*args, **kwargs)

            airy.cauchy_pair_det = failing_det
            airy._usable_cores = lambda: 3
            try:
                airy.laplace_R_mc([1.0, 0.8, 0.6], 4 * airy._MC_CHUNK + 1, np.random.default_rng(0))  # 5 chunks
            except ArithmeticError as exc:
                print(exc)
            """
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=20, env=env)
        assert (done.returncode, done.stdout, done.stderr) == (0, "second chunk\n", "")


class TestMomentFromAiry:
    def test_k1(self):
        cfg = AiryConfig.from_T(1.0)
        assert moment_from_airy(1, cfg) == pytest.approx(
            math.exp(1.0 / 24.0) / math.sqrt(2.0 * math.pi), rel=1e-10
        )

    def test_k2_vs_erfc_oracle(self):
        T = 1.0
        cfg = AiryConfig.from_T(T)
        truth = math.exp(2.0 * T / 24.0) * erfc_reduction_oracle(T) / 2.0
        assert moment_from_airy(2, cfg) == pytest.approx(truth, rel=1e-7)

    def test_k3_vs_contour(self):
        T = 1.0
        cfg = AiryConfig.from_T(T)
        truth = math.exp(3.0 * T / 24.0) * moment_contour(MomentRequest(3, T)).value / 6.0
        assert moment_from_airy(3, cfg) == pytest.approx(truth, rel=1e-4)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            moment_from_airy(5, AiryConfig.from_T(1.0))


class TestAiryConfig:
    def test_from_T(self):
        cfg = AiryConfig.from_T(2.0)
        assert cfg.C == pytest.approx(1.0)

    def test_invariant(self):
        with pytest.raises(ValueError):
            AiryConfig.from_T(-1.0)
        for T in (math.inf, math.nan):
            with pytest.raises(ValueError, match="T must be positive and finite"):
                AiryConfig.from_T(T)


class TestFredholm:
    def test_small_u_expansion(self):
        cfg = AiryConfig.from_T(1.0)
        C = cfg.C
        for u in (1e-4, 1e-3):
            det = fredholm_multiplicative(u, cfg)
            second = laplace_R(2.0 * C) + 0.5 * laplace_R([C, C])
            approx = 1.0 - u * laplace_R(C) + u * u * second
            assert abs(det - approx) < 5.0 * u**3

    def test_monotone_decreasing_in_u(self):
        cfg = AiryConfig.from_T(2.0)
        vals = [fredholm_multiplicative(u, cfg) for u in (0.1, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v < 1.0 for v in vals)

    def test_config_guards(self):
        cfg = AiryConfig.from_T(1.0)
        with pytest.raises(ValueError):
            fredholm_multiplicative(-1.0, cfg)

    @pytest.mark.parametrize(
        "u,T,converged",
        [
            (0.1, 2.0, 0.9711177275),
            (1.0, 2.0, 0.7906900995),
            (10.0, 2.0, 0.2897556987),
            (1e3, 2.0, 4.301891575e-5),
            (1.0, 0.5, 0.6219147639),
            (1.0, 0.05, 0.2167034292),
        ],
    )
    def test_left_cutoff_converged(self, u, T, converged):
        # converged: width-1 panels from x = -200 (-300 at T = 0.05), where u e^{Cx} is below 1e-38.  A cutoff
        # at -10 - 2 log(1/u)+/C was off by 4.8e-5 at (1, 2), 5% at (1e3, 2) and 23% at (1, 0.05)
        assert fredholm_multiplicative(u, AiryConfig.from_T(T)) == pytest.approx(converged, rel=1e-9)


class TestTracyWidom:
    def test_cdf_monotone(self):
        s = np.linspace(-5.0, 3.0, 17)
        F = [tracy_widom_cdf(v) for v in s]
        assert all(a < b for a, b in zip(F, F[1:]))
        assert F[0] < 1e-3
        assert F[-1] > 0.999

    def test_mean_var_published(self):
        # GUE Tracy-Widom mean and variance (Bornemann, Math. Comp. 2010)
        mean, var = tracy_widom_mean_var()
        assert abs(mean - (-1.7710868074116)) < 1e-10
        assert abs(var - 0.8131947928330) < 1e-10

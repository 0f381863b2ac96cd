"""Airy function, kernel, Laplace transforms, and Fredholm determinants vs oracles."""

import math

import numpy as np
import pytest
from scipy import special

from shemom.airy import (
    AiryConfig,
    airy_ai,
    airy_ai_prime,
    airy_kernel,
    fredholm_multiplicative,
    laplace_R,
    laplace_R_direct,
    moment_from_airy,
    okounkov_numeric,
    okounkov_transform,
    tracy_widom_cdf,
    tracy_widom_mean_var,
)
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
        assert np.max(np.abs(airy_ai(x) - ai) * scale) < 1e-11
        assert np.max(np.abs(airy_ai_prime(x) - aip) / scale) < 1e-11

    def test_scalar_interface(self):
        assert isinstance(airy_ai(0.0), float)
        assert airy_ai(0.0) == pytest.approx(
            3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0), rel=1e-14
        )
        assert airy_ai_prime(0.0) == pytest.approx(
            -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0), rel=1e-14
        )

    def test_wronskian(self):
        # Ai(x) Bi'(x) - Ai'(x) Bi(x) = 1/pi; probe via the scipy Bi
        for x in (-5.0, 0.0, 2.0, 10.0):
            _, _, bi, bip = special.airy(x)
            w = airy_ai(x) * bip - airy_ai_prime(x) * bi
            assert w == pytest.approx(1.0 / math.pi, rel=1e-10)

    def test_window_enforced(self):
        with pytest.raises(ValueError):
            airy_ai(-1e4)
        with pytest.raises(ValueError):
            airy_ai(1e4)


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

    def test_guards(self):
        with pytest.raises(ValueError):
            laplace_R([1.0, -1.0])
        with pytest.raises(ValueError):
            laplace_R([1.0] * 5)
        with pytest.raises(ValueError):
            laplace_R_direct([1.0, 1.0, 1.0])


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
            AiryConfig(1.0, 1.0)
        with pytest.raises(ValueError):
            AiryConfig.from_T(-1.0)


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

"""Polymer moments: contour vs closed forms vs simulation, and the disorder limit."""

import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import second_moment_closed_form
from shemom import polymer
from shemom.polymer import (
    MAX_LEVELS,
    PolymerConfig,
    intermediate_disorder_limit,
    polymer_moment_contour,
    polymer_second_moment_exact,
    scaling_constant,
    simulate_polymer,
)
from shemom.she_moments import MomentRequest, erfc_reduction_oracle, heat_kernel, moment_contour


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PolymerConfig(levels=0, time=1.0)
        with pytest.raises(ValueError):
            PolymerConfig(levels=MAX_LEVELS + 1, time=1.0)
        with pytest.raises(ValueError):
            PolymerConfig(levels=1, time=-1.0)
        with pytest.raises(ValueError):
            PolymerConfig(levels=1, time=1.0, steps=5)

    @pytest.mark.parametrize("time", [math.inf, math.nan])
    def test_time_must_be_finite(self, time):
        with pytest.raises(ValueError, match="time must be positive and finite"):
            PolymerConfig(levels=1, time=time)

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: PolymerConfig(levels=1, time=1.0, replicas=1), "at least 2 replicas"),
            (lambda: simulate_polymer(PolymerConfig(levels=1, time=1.0), max_moment=0), "max_moment must be >= 1"),
            (lambda: polymer_moment_contour(0, 3, 1.0), "moment order k must be >= 1"),
            (lambda: polymer_moment_contour(2, 0, 1.0), "levels must be in"),
            (lambda: polymer_moment_contour(2, MAX_LEVELS + 1, 1.0), "levels must be in"),
            # these once returned 0.0: the trapezoid sum over no nodes
            (lambda: polymer_moment_contour(2, 3, 1.0, nodes=0), "nodes must be a positive integer"),
            (lambda: polymer_moment_contour(2, 3, 1.0, nodes=-4), "nodes must be a positive integer"),
            (lambda: polymer_moment_contour(2, 3, 1.0, nodes=64.0), "nodes must be a positive integer"),
        ],
        ids=["replicas=1", "max_moment=0", "contour k=0", "contour levels=0", "contour levels=65", "nodes=0", "nodes=-4", "nodes=64.0"],
    )
    def test_guards_refuse_by_name(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize(
        "field,value",
        [("levels", 2.5), ("levels", True), ("steps", 100.5), ("steps", np.float64(100.0)), ("replicas", 1000.5), ("replicas", False)],
    )
    def test_counts_must_be_integers(self, field, value):
        # steps = 100.5 was blamed on coarsen; the other floats failed inside numpy
        # with "'float' object cannot be interpreted as an integer"
        fields = {"levels": 2, "time": 1.0, "steps": 100, "replicas": 1000, field: value}
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
            PolymerConfig(**fields)

    @pytest.mark.parametrize("max_moment", [2.5, 2.0, True])
    def test_max_moment_must_be_an_integer(self, max_moment):
        cfg = PolymerConfig(levels=2, time=1.0, steps=20, replicas=10)
        with pytest.raises(ValueError, match=re.escape(f"max_moment must be an integer, got {max_moment!r}")):
            simulate_polymer(cfg, max_moment=max_moment)

    def test_numpy_integers_accepted(self):
        cfg = PolymerConfig(levels=np.int64(2), time=1.0, steps=np.int32(20), replicas=np.int64(10))
        assert simulate_polymer(cfg, max_moment=np.int64(2)).values.shape == (2,)


class TestContourMoments:
    @pytest.mark.parametrize("levels,t", [(1, 1.0), (3, 2.0), (10, 3.5), (30, 6.0)])
    def test_k1_exact(self, levels, t):
        truth = t ** (levels - 1) / math.factorial(levels - 1)
        assert polymer_moment_contour(1, levels, t) == pytest.approx(truth, rel=1e-12)

    @pytest.mark.parametrize("levels,t", [(1, 1.0), (2, 1.5), (5, 2.0), (12, 3.0), (25, 5.0)])
    def test_k2_vs_closed_form(self, levels, t):
        got = polymer_moment_contour(2, levels, t)
        exact = polymer_second_moment_exact(levels, t)
        assert got == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("levels,t", [(24, 1.0), (28, 1.0), (32, 1.0), (40, 6.0), (64, math.sqrt(128.0))])
    def test_k2_closed_form_at_large_levels(self, levels, t):
        # the closed form cancels to many digits here (a 60-digit e^t once gave -3.9e-3 at (24, 1) and negative
        # values at (28, 1)); the oracle sizes its precision by the cancellation, the series has none to size
        assert polymer_second_moment_exact(levels, t) == pytest.approx(second_moment_closed_form(levels, t), rel=1e-14)

    def test_k2_closed_form_at_time_zero(self):
        # E[Zt(0, N)^2] = 1{N = 1}
        assert [polymer_second_moment_exact(n, 0.0) for n in (1, 2, 3)] == [1.0, 0.0, 0.0]

    def test_k2_n1_is_exponential(self):
        # Zt(t, 1) = e^{B_t - t/2}, so E[Zt^2] = e^t
        assert polymer_second_moment_exact(1, 1.3) == pytest.approx(math.exp(1.3), rel=1e-12)

    @pytest.mark.parametrize("levels", [1, 2, 3, 5, 8, 16, 32, 48, 64])
    def test_k2_series_matches_closed_form(self, levels):
        # the closed form in exact rationals against the float64 series, over the whole range of a double;
        # each overflows exactly where the other does
        for t in (1e-3, 0.3, 3.0, 10.0, 30.0, 100.0, 300.0, 500.0, 650.0, 700.0, 710.0):
            try:
                want = second_moment_closed_form(levels, t)
            except OverflowError:
                with pytest.raises(OverflowError):
                    polymer_second_moment_exact(levels, t)
                continue
            assert polymer_second_moment_exact(levels, t) == pytest.approx(want, rel=1e-14, abs=0), t

    def test_k2_series_overflows_at_once_at_huge_t(self):
        # e^t overflows first, so the series does not run its t + 12 sqrt(t + 1) + 40 terms
        with pytest.raises(OverflowError):
            polymer_second_moment_exact(2, 1e300)

    @settings(max_examples=200, deadline=None)
    @given(levels=st.integers(1, MAX_LEVELS), t=st.floats(0.0, 50.0))
    def test_k2_series_above_jensen_bound(self, levels, t):
        # E[Zt^2] >= E[Zt]^2 = (t^{N-1}/(N-1)!)^2, the series' term with no loop, so equality only up to rounding
        bound = (t ** (levels - 1) / math.factorial(levels - 1)) ** 2
        assume(bound == 0.0 or bound > 1e-250)  # the terms before a subnormal result are subnormal themselves
        assert polymer_second_moment_exact(levels, t) >= bound * (1.0 - 1e-14)
        assert polymer_second_moment_exact(1, t) == pytest.approx(math.exp(t), rel=1e-15)

    @pytest.mark.parametrize(
        "levels,t,message",
        [
            (0, 1.0, "levels must be in [1, 64]"),
            (65, 1.0, "levels must be in [1, 64]"),
            (2.5, 1.0, "levels must be an integer, got 2.5"),
            (True, 1.0, "levels must be an integer, got True"),
            (3, -1.0, "t must be non-negative and finite"),
            (3, math.nan, "t must be non-negative and finite"),
            (3, math.inf, "t must be non-negative and finite"),
        ],
    )
    def test_k2_series_refuses_bad_input_by_name(self, levels, t, message):
        # (0, 1) raised "factorial() not defined for negative values", (65, 1) and (3, -1) returned values,
        # (2.5, 1) raised a TypeError and (3, nan) "cannot convert NaN to integer ratio"
        with pytest.raises(ValueError, match=re.escape(message)):
            polymer_second_moment_exact(levels, t)

    def test_k3_node_refinement(self):
        a = polymer_moment_contour(3, 5, 2.0, nodes=192)
        b = polymer_moment_contour(3, 5, 2.0, nodes=320)
        assert a == pytest.approx(b, rel=1e-12)

    def test_radius_guards(self):
        with pytest.raises(ValueError):
            polymer_moment_contour(2, 2, 1.0, radii=np.array([2.0, 1.5]))
        with pytest.raises(ValueError):
            polymer_moment_contour(2, 2, 1.0, radii=np.array([4.0, 2.5, 1.0]))
        with pytest.raises(ValueError):
            polymer_moment_contour(4, 2, 1.0)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
    def test_time_guard(self, t):
        with pytest.raises(ValueError, match="t must be positive and finite"):
            polymer_moment_contour(2, 3, t)


class TestSimulation:
    def test_mean_exact_n1(self, monkeypatch):
        # with no lower level the top level's moments are exact: E[Zt(t, 1)^k] = e^{k(k-1)t/2},
        # with no normal drawn and a standard error of exactly 0, for any step count and coarsening
        class NoDraws:
            def standard_normal(self, out):
                assert out.size == 0

        monkeypatch.setattr(polymer, "_stream_pair", lambda *a: [NoDraws(), NoDraws()])
        t = 1.3
        for steps, coarsens in ((10, (1, 2)), (500, (1, 2)), (501, (1,))):
            for coarsen in coarsens:
                cfg = PolymerConfig(levels=1, time=t, steps=steps, replicas=20_001, seed=2)
                sim = simulate_polymer(cfg, max_moment=4, coarsen=coarsen)
                exact = [math.exp(k * (k - 1) * t / 2.0) for k in range(1, 5)]
                np.testing.assert_allclose(sim.values, exact, rtol=1e-12, atol=0)
                assert np.array_equal(sim.stderrs, np.zeros(4))

    @pytest.mark.parametrize("levels", [2, 3])
    def test_top_level_moments_are_conditional(self, levels):
        # one pair's lower levels fixed, its top level redrawn 200 000 times: the reported
        # moments are the pair's mean E[top^k | lower levels], for every k <= 4
        t, steps, seed, draws = 0.4, 20, 21, 200_000
        sim = simulate_polymer(PolymerConfig(levels, t, steps, replicas=2, seed=seed), max_moment=4)
        h = t / steps
        full, half = (polymer._drift_flow(levels, s) for s in (h, h / 2.0))
        # the pair's lower increments as the simulator draws them: one chunk, streams of (seed, 0)
        sums, diffs = (np.random.Generator(np.random.SFC64(q)) for q in np.random.SeedSequence((seed, 0)).spawn(2))
        increments = []
        for _ in range(steps // 2):
            s = sums.standard_normal((levels - 1, 1)) * math.sqrt(h / 2.0)
            d = diffs.standard_normal((levels - 1, 1)) * math.sqrt(h / 2.0)
            increments += [s + d, s - d]
        rng = np.random.default_rng(8)
        z = np.zeros((2, levels, draws))  # the + path, then the - path
        z[:, 0] = 1.0
        for step, g in enumerate(increments):
            z = (half if step == 0 else full) @ z
            z[:, :-1] *= np.exp(np.stack([g, -g]) - h / 2.0)
            z[:, -1] *= np.exp(rng.standard_normal((2, draws)) * math.sqrt(h) - h / 2.0)
        top = (half @ z)[:, -1]
        for k in range(1, 5):
            per_draw = (top[0] ** k + top[1] ** k) / 2.0
            stderr = per_draw.std(ddof=1) / math.sqrt(draws)
            assert abs(sim.values[k - 1] - per_draw.mean()) <= 4.0 * stderr, k

    def test_against_contour_n3(self):
        cfg = PolymerConfig(levels=3, time=1.0, steps=400, replicas=20_000, seed=4)
        sim = simulate_polymer(cfg, max_moment=2)
        for k in (1, 2):
            truth = polymer_moment_contour(k, 3, 1.0)
            assert abs(sim.values[k - 1] - truth) <= 4.0 * sim.stderrs[k - 1]

    def test_mean_exact_at_any_step_count(self):
        # the exact drift flow keeps E[Zt] = t^{N-1}/(N-1)!; an Euler drift
        # would be low by prod_{j<N-1} (1 - j/steps) = 0.72 here
        cfg = PolymerConfig(levels=4, time=1.0, steps=10, replicas=20_000, seed=3)
        sim = simulate_polymer(cfg, max_moment=1)
        assert abs(sim.values[0] - 1.0 / 6.0) <= 4.0 * sim.stderrs[0]

    def test_antithetic_pair(self, monkeypatch):
        # the - path of a pair runs on -dB: negating every normal swaps the pair's two paths,
        # which leaves the pair's mean and its spread as they were
        cfg = PolymerConfig(levels=2, time=1.3, steps=40, replicas=2, seed=5)
        sim = simulate_polymer(cfg, max_moment=3)

        class Negated:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, out):
                self.rng.standard_normal(out=out)
                np.negative(out, out=out)

        stream_pair = polymer._stream_pair
        monkeypatch.setattr(polymer, "_stream_pair", lambda *a: [Negated(rng) for rng in stream_pair(*a)])
        mirrored = simulate_polymer(cfg, max_moment=3)
        np.testing.assert_allclose(mirrored.values, sim.values, rtol=1e-13)
        np.testing.assert_allclose(mirrored.stderrs, sim.stderrs, rtol=1e-12)
        assert np.all(np.isfinite(sim.stderrs)) and np.all(sim.stderrs > 0)

    def test_stderr_calibrated(self):
        # k = 1 has an exact mean, so z is pure noise: its spread over 200
        # seeds reads 0.96-1.10 with the error taken over pairs, 0.52-0.59 with
        # it taken over paths as if they were independent (five seed blocks);
        # 40 seeds would scatter the correct spread over 0.76-1.31
        truth = polymer_moment_contour(1, 2, 0.5)
        zs = []
        for seed in range(200):
            sim = simulate_polymer(PolymerConfig(levels=2, time=0.5, steps=20, replicas=400, seed=seed), max_moment=1)
            zs.append((sim.values[0] - truth) / sim.stderrs[0])
        assert 0.7 <= np.std(zs, ddof=1) <= 1.3

    def test_reproducible(self):
        cfg = PolymerConfig(levels=2, time=1.0, steps=100, replicas=500, seed=7)
        a = simulate_polymer(cfg)
        b = simulate_polymer(cfg)
        np.testing.assert_array_equal(a.values, b.values)

    def test_coarsen_shares_increments(self):
        # at N = 2 the lower level is exact at any step, so a coarse run on the fine run's own
        # increments differs from it by the top level's time-step error alone: under a tenth of
        # the standard error here (0.004-0.07), where a run on other paths differs by about one
        cfg = PolymerConfig(levels=2, time=1.0, steps=100, replicas=2_000, seed=9)
        fine = simulate_polymer(cfg, max_moment=2)
        coarse = simulate_polymer(cfg, max_moment=2, coarsen=2)
        assert np.all(np.abs(coarse.values - fine.values) <= 0.1 * fine.stderrs)

    @pytest.mark.parametrize("steps,coarsen,share", [(100, 2, 0.5)])
    def test_coarse_draw_count(self, monkeypatch, steps, coarsen, share):
        # coarsen = 2 needs only the sum stream: half the fine run's normals
        drawn = {}

        class Counted:
            def __init__(self, rng, stream):
                self.rng, self.stream = rng, stream

            def standard_normal(self, out):
                drawn[self.stream] = drawn.get(self.stream, 0) + out.size
                return self.rng.standard_normal(out=out)

        stream_pair = polymer._stream_pair
        monkeypatch.setattr(
            polymer, "_stream_pair", lambda *a: [Counted(rng, i) for i, rng in enumerate(stream_pair(*a))]
        )
        cfg = PolymerConfig(levels=3, time=1.0, steps=steps, replicas=2_001, seed=9)
        simulate_polymer(cfg)
        fine = dict(drawn)
        # the two lower levels only: the top level is never drawn
        assert fine == {0: (steps + 1) // 2 * 2 * 1_001, 1: steps // 2 * 2 * 1_001}
        drawn.clear()
        simulate_polymer(cfg, coarsen=coarsen)
        assert sum(drawn.values()) == share * sum(fine.values())
        assert drawn.get(1, 0) == (0 if share < 1 else fine[1])

    def test_coarsen_must_divide(self):
        # a non-positive coarsen once returned [1, 1] +- [0, 0] (or raised ZeroDivisionError)
        cfg = PolymerConfig(levels=3, time=1.0, steps=100, replicas=10, seed=0)
        for coarsen in (3, 4, 5, 0, -1, -100, 2.0, True):
            with pytest.raises(ValueError, match="coarsen"):
                simulate_polymer(cfg, coarsen=coarsen)

    @pytest.mark.parametrize(
        "levels,steps,replicas",
        [
            (1, 11, 7),  # all steps in one draw block, odd step and path counts, four chunks of one pair
            (1, 501, 20_050),  # six chunks (5 x 1_671 + 1_670 pairs)
            (3, 641, 5_600),  # six chunks (4 x 467 + 2 x 466 pairs), a partial last block
            (8, 64, 300),  # many levels, a partial last block, six chunks of 25 pairs
            (8, 1_000, 8_000),  # six chunks of 667 and 666 pairs, within the 1_251-pair cap
            (8, 2_000, 8_000),  # twelve chunks (4 x 334 + 8 x 333 pairs): six would exceed the 626-pair cap
            (1, 500, 30_000),  # the benchmark's shape: six chunks of 2_500 pairs
        ],
    )
    def test_bit_identical_to_per_step_loop(self, levels, steps, replicas):
        cfg = PolymerConfig(levels, 1.3, steps, replicas, seed=11)
        sim = simulate_polymer(cfg, max_moment=3)
        values, stderrs = _per_step_reference(cfg, max_moment=3)
        assert np.array_equal(sim.values, values)
        assert np.array_equal(sim.stderrs, stderrs)

    @pytest.mark.parametrize(
        "levels,time,steps,replicas,max_moment,longest",
        [
            (3, 1.3, 21, 9, 4, 256),  # five chunks of one pair; k = 3, 4 take the lower sums of the Horner sum
            (2, 30.0, 20, 400, 4, 256),  # segments of 7 steps: a_4 = 9 a step
            (4, 25.0, 33, 2_000, 3, 256),  # one segment of 28 steps, then 5
            (2, 1.3, 64, 300, 1, 256),  # M_1 alone
            (3, 1.3, 64, 300, 3, 5),  # segments of 5 steps, where the cap binds before 64/a_K
            (1, 1.3, 64, 300, 3, 5),  # no lower level: the sums only grow, and are rescaled every 5 steps
        ],
    )
    def test_bit_identical_moments_and_segments(self, monkeypatch, levels, time, steps, replicas, max_moment, longest):
        # a small budget: blocks of a few steps, whose length follows the worker count and cuts the segments
        monkeypatch.setattr(polymer, "_BUFFER_DOUBLES", 12_000)
        monkeypatch.setattr(polymer, "_SEGMENT", longest)
        cfg = PolymerConfig(levels, time, steps, replicas, seed=17)
        values, stderrs = _per_step_reference(cfg, max_moment=max_moment)
        assert np.all(np.isfinite(values))
        assert np.all(stderrs > 0) if levels > 1 else not stderrs.any()  # N = 1 is exact
        for workers in (1, 2, 3):
            monkeypatch.setattr(polymer, "_usable_cores", lambda w=workers: w)
            sim = simulate_polymer(cfg, max_moment=max_moment)
            assert np.array_equal(sim.values, values)
            assert np.array_equal(sim.stderrs, stderrs)

    def test_memory_does_not_grow_with_steps(self, monkeypatch):
        # the buffers come out of the budget and the moment tables stop at _SEGMENT + 1 columns,
        # so ten times the steps take no more memory
        monkeypatch.setattr(polymer, "_BUFFER_DOUBLES", 12_000)
        peaks = []
        for steps in (1_000, 10_000):
            cfg = PolymerConfig(2, 1.0, steps, replicas=2, seed=1)
            tracemalloc.start()
            try:
                simulate_polymer(cfg, max_moment=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 4096
        assert peaks[1] <= 1.5 * 8 * 12_000

    @pytest.mark.parametrize(
        "levels,steps,replicas,coarsen",
        [
            (1, 501, 20_050, 1),  # six chunks (5 x 1_671 + 1_670 pairs)
            (3, 641, 5_600, 1),  # six chunks (4 x 467 + 2 x 466 pairs)
            (2, 500, 20_010, 2),  # six chunks (3 x 1_668 + 3 x 1_667 pairs)
            (2, 500, 20_011, 1),  # odd: the last path's mirror is dropped
            (2, 505, 20_010, 1),
        ],
    )
    def test_independent_of_worker_count(self, monkeypatch, levels, steps, replicas, coarsen):
        cfg = PolymerConfig(levels, 1.3, steps, replicas, seed=13)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more workers than cores, switching often: shared buffers would show
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(polymer, "_usable_cores", lambda w=workers: w)
                runs.append(simulate_polymer(cfg, max_moment=3, coarsen=coarsen))
        finally:
            sys.setswitchinterval(interval)
        for run in runs[1:]:
            assert np.array_equal(runs[0].values, run.values)
            assert np.array_equal(runs[0].stderrs, run.stderrs)


def _per_step_reference(config: PolymerConfig, max_moment: int):
    """The simulation one step at a time: one (N - 1, pairs) draw per step pair and stream, same chunks.

    The chunks are six, or the least multiple of six that keeps each within
    the draw budget, of equal length up to one pair, longer ones first; each
    draws from two SFC64 streams spawned from (seed, first path).  A step
    pair takes S from the first and D from the second and runs the
    increments (S +- D) sqrt(t/steps/2) of the lower levels 1..N-1; an odd
    step count's last step takes S sqrt(t/steps) alone.  The top level is
    never drawn: a path carries M_1 = E[top | lower levels] and, for j >= 2,
    u_j = M_j e^{-a_j k}, a_j = j(j-1)h/2, at offset k of a segment of
    steps, and a step with drift c from the lower levels adds e^{-a_j k}
    sum_{r<j} C(j, r) c^{j-r} M_r to u_j (from all the sums before the step),
    and c to M_1.
    """
    n, t, fine, paths = config.levels, config.time, config.steps, config.replicas
    lower = n - 1
    h = t / fine
    # exp(hD), the exact flow of dZt_l = Zt_{l-1} dt, and its half step
    full, half = (
        np.array([[s**(l - m) / math.factorial(l - m) if l >= m else 0.0 for m in range(n)] for l in range(n)])
        for s in (h, h / 2.0)
    )
    rates = [j * (j - 1) * h / 2.0 for j in range(max_moment + 1)]
    # at most _SEGMENT steps, and at most 64/a_K, so that no factor leaves [e^-64, e^64]
    longest = polymer._SEGMENT if rates[-1] * polymer._SEGMENT <= 64.0 else max(1, int(64.0 / rates[-1]))
    segment = min(fine, longest)
    scales = [np.exp(rate * np.arange(segment + 1)) for rate in rates]
    weights = [np.exp(-rate * np.arange(segment + 1)) for rate in rates]
    pairs = (paths + 1) // 2
    cap = polymer._BUFFER_DOUBLES // max(1, fine // 50) // (2 * n) + 1
    count = min(pairs, 6 * math.ceil(pairs / (6 * cap)))
    plus, minus = [], []
    done = 0
    for i in range(count):
        c = pairs // count + (i < pairs % count)
        sums, diffs = (
            np.random.Generator(np.random.SFC64(seq))
            for seq in np.random.SeedSequence((config.seed, 2 * done)).spawn(2)
        )
        z = np.zeros((2, lower, c))  # the + paths, then the - paths
        z[:, :1] = 1.0
        m = [None] + [np.full((2, c), float(n == 1)) for _ in range(max_moment)]  # M_1, then u_2..u_K
        increments = []  # each less h/2
        for _ in range(fine // 2):
            s = sums.standard_normal((lower, c)) * math.sqrt(t / fine / 2.0) - h / 2.0
            d = diffs.standard_normal((lower, c)) * math.sqrt(t / fine / 2.0)
            increments += [s + d, s - d]
        if fine % 2:
            increments.append(sums.standard_normal((lower, c)) * math.sqrt(t / fine) - h / 2.0)
        for step, g in enumerate(increments):
            flow = half if step == 0 else full
            k = step % segment
            drift = flow[lower, :lower] @ z
            after = m[1] + drift
            new = [None, after]
            for j in range(2, max_moment + 1):
                p = m[1] + after if j == 2 else m[1] * (j - 1) + after
                for r in range(2, j):
                    p = p * drift + m[r] * (math.comb(j, r) * scales[r][k])
                new.append(m[j] + p * drift * weights[j][k])
                if k + 1 == segment:
                    new[j] = new[j] * scales[j][segment]
            m = new
            growth = np.stack([np.exp(g), np.exp(-h - g)])
            z = (flow[:lower, :lower] @ z) * growth
        c_f = half[lower, :lower] @ z
        moments = [None, m[1]] + [m[j] * scales[j][fine % segment] for j in range(2, max_moment + 1)]
        tops = []
        for k in range(1, max_moment + 1):
            # E[(c_f + top)^k] by Horner's rule in c_f
            v = moments[1] * k + c_f
            for r in range(2, k + 1):
                v = v * c_f + (moments[r] * math.comb(k, r) if r < k else moments[k])
            tops.append(v)
        plus.append(np.stack([v[0] for v in tops], axis=1))
        minus.append(np.stack([v[1] for v in tops], axis=1))
        done += c
    plus, minus = np.concatenate(plus), np.concatenate(minus)[: paths - pairs]
    first = plus[0]
    means = first + ((plus - first).sum(axis=0) + (minus - first).sum(axis=0)) / paths
    # one unit per pair, and an odd count's last path alone; one pair falls back to its two paths
    units = plus - means
    if pairs > 1:
        units[: len(minus)] += minus - means
    else:
        units = np.concatenate([units, minus - means])
    return means, np.sqrt(len(units) / (len(units) - 1) * (units**2).sum(axis=0)) / paths


class TestScalingConstant:
    def test_k1_limit_is_stirling_exact(self):
        # t^{N-1}/(N-1)! * e^{t/2} / C = e^{-1/(12N) + O(N^-3)} / sqrt(2 pi T)
        T = 1.0
        for n in (4, 16, 50):
            t = math.sqrt(n * T)
            log_ratio = (
                (n - 1) * math.log(t) - math.lgamma(n) + t / 2.0 - scaling_constant(n, T)
            )
            predicted = -1.0 / (12.0 * n) - 0.5 * math.log(2.0 * math.pi * T)
            assert log_ratio == pytest.approx(predicted, abs=1.0 / n**3)

    def test_guards(self):
        with pytest.raises(ValueError):
            scaling_constant(0, 1.0)
        with pytest.raises(ValueError, match="levels must be an integer"):
            scaling_constant(2.5, 1.0)
        with pytest.raises(ValueError):
            scaling_constant(1, -1.0)
        for T in (math.inf, math.nan):
            with pytest.raises(ValueError, match="T must be positive and finite"):
                scaling_constant(1, T)

    @pytest.mark.parametrize("X", [math.nan, math.inf, -math.inf])
    def test_x_must_be_finite(self, X):
        with pytest.raises(ValueError, match="X must be finite"):
            scaling_constant(8, 1.0, X)


class TestDisorderLimit:
    def test_k1_converges(self):
        T = 1.0
        lim = intermediate_disorder_limit(1, T, levels=(25, 50))
        assert lim.value == pytest.approx(heat_kernel(T), rel=2e-2)
        assert lim.extrapolated == pytest.approx(heat_kernel(T), rel=1e-4)

    def test_k2_extrapolates_to_she(self):
        T = 1.0
        lim = intermediate_disorder_limit(2, T, levels=(8, 16))
        assert lim.extrapolated == pytest.approx(erfc_reduction_oracle(T), rel=1e-2)

    def test_k3_extrapolates_to_she(self):
        T = 1.0
        truth = moment_contour(MomentRequest(3, T)).value
        lim = intermediate_disorder_limit(3, T, levels=(8, 16))
        assert lim.extrapolated == pytest.approx(truth, rel=2e-2)

    def test_nonzero_x(self):
        T, X = 1.0, 0.7
        lim = intermediate_disorder_limit(1, T, X, levels=(16, 32))
        # X != 0 converges only at rate 1/sqrt(N); sqrt-Richardson leaves O(1/N)
        assert lim.extrapolated == pytest.approx(heat_kernel(T, X), rel=2e-2)

    @pytest.mark.parametrize("X", [math.nan, math.inf, -math.inf])
    def test_x_must_be_finite(self, X):
        with pytest.raises(ValueError, match="X must be finite"):
            intermediate_disorder_limit(2, 1.0, X)

    @pytest.mark.parametrize("X", [-100.0, -math.sqrt(8.0)])
    def test_x_at_or_below_minus_sqrt_nt_refused(self, X):
        # t = sqrt(NT) + X <= 0 at the smallest N was refused as "t must be positive and finite", a t not given
        message = f"X must be finite and exceed -sqrt(N T) = -2.82843 at N = 8, got X = {X:g}"
        with pytest.raises(ValueError, match=re.escape(message)):
            intermediate_disorder_limit(1, 1.0, X)

    def test_levels_must_increase(self):
        with pytest.raises(ValueError):
            intermediate_disorder_limit(1, 1.0, levels=(8,))
        with pytest.raises(ValueError):
            intermediate_disorder_limit(1, 1.0, levels=(16, 8))

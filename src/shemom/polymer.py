"""Semi-discrete directed polymer: simulation, residue moments, intermediate-disorder limit.

The partition function Z(t, N) integrates e^(path energy) over up-right paths
through N Brownian environments.  Throughout we work with the drift-compensated
version Zt(t, N) = Z(t, N) e^{-t/2}, which satisfies the Ito hierarchy

    dZt_1 = Zt_1 dB_1,        dZt_k = Zt_{k-1} dt + Zt_k dB_k,

with Zt_k(0) = 1{k=1}, so E[Zt(t, N)] = t^{N-1}/(N-1)! exactly.
``simulate_polymer`` integrates it by a split step (Strang 1968) that
alternates the exact noise multiply with the exact flow of the drift, so its
mean is exact at any step count, on antithetic pairs of paths (+dB, -dB)
that share one column of normals; ``coarsen`` reruns the same paths at a
longer step to measure the time-step error.  Its pairs run in six equal
chunks (or a multiple of six) on the usable cores, and its results are the
same for any core count.  Each chunk draws from two SFC64 generators, whose
normals cost about a fifth less than those of numpy's default PCG64, as
do the chunks of the residue-sum Monte Carlo; the GUE edge sampler, where
draws are a small part of the work, keeps PCG64.  The two streams give
each pair of fine steps (2j, 2j+1) a sum S_j and a difference D_j, and the
steps take (S_j +- D_j)/sqrt(2): an orthogonal map, so the increments stay
i.i.d. N(0, 1) in law.  A fine run draws one normal per (step, level, pair of
paths), as one stream would; a run with an even ``coarsen`` needs only the
sums, sqrt(2) times their total over a coarse step, and draws half as many.

Integer moments admit nested contour integrals over circles around the origin
with radii separated by more than one; under the scaling t = sqrt(NT) + X and
the constant C(N, T, X), the normalized moments converge (at rate 1/N) to the
moments of the stochastic heat equation with delta initial data.
"""

from __future__ import annotations

import decimal
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chunks import _equal_chunks, _run_chunks, _usable_cores
from .quadrature import check_nested, contour_cross, pairwise_tensor_sum

__all__ = [
    "PolymerConfig",
    "PolymerMoments",
    "simulate_polymer",
    "polymer_moment_contour",
    "polymer_second_moment_exact",
    "scaling_constant",
    "intermediate_disorder_limit",
]

MAX_LEVELS = 64
_BUFFER_DOUBLES = 200_000  # normals per draw buffer; also sets the replica chunk


@dataclass(frozen=True)
class PolymerConfig:
    """Simulation parameters for the compensated polymer hierarchy."""

    levels: int  # N
    time: float  # t
    steps: int = 2000
    replicas: int = 4000
    seed: int = 0

    def __post_init__(self):
        for name in ("levels", "steps", "replicas"):
            _check_integer(name, getattr(self, name))
        if not 1 <= self.levels <= MAX_LEVELS:
            raise ValueError(f"levels must be in [1, {MAX_LEVELS}]")
        if not (math.isfinite(self.time) and self.time > 0):
            raise ValueError("time must be positive and finite")
        if self.steps < 10:
            raise ValueError("steps must be >= 10")
        if self.replicas < 2:
            raise ValueError("need at least 2 replicas for a standard error")


def _check_integer(name: str, value) -> None:
    # a float or a bool would otherwise pass the range checks and fail later inside numpy, or blame another field
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class PolymerMoments:
    """Monte Carlo moments of Zt(t, N): values[k-1] estimates E[Zt^k]."""

    values: np.ndarray
    stderrs: np.ndarray
    config: PolymerConfig


def simulate_polymer(config: PolymerConfig, max_moment: int = 3, coarsen: int = 1) -> PolymerMoments:
    """Antithetic split-step simulation of the compensated hierarchy.

    The split step (Strang) alternates the exact flows of the two parts of
    the hierarchy: half a drift step, then per step of length h the noise
    multiply and a full drift step, except that the last drift step is a
    half step.  The noise multiplies level l by exp(dB_l - h/2), which keeps
    the state positive; the drift flow exp(hD) is the lower-triangular
    Toeplitz matrix of h^j/j!, so E[Zt] = t^{N-1}/(N-1)! for any step count.
    At N = 1 there is no drift and the top level is exact in distribution.

    Each column of normals drives an antithetic pair of paths, one with
    increments +dB and one with -dB.  The top level is nondecreasing in every
    increment, so the two paths of a pair are negatively correlated and a
    path costs half a draw.  The mean is over paths; the standard error is
    over the independent units, the pairs (an odd count's last path, whose
    mirror is discarded, is a unit of its own; a single pair falls back to the
    spread of its two paths, which overstates the error).

    Pairs run in equal chunks, six of them or a multiple of six, each within
    the draw budget below, so one, two or three workers are evenly loaded.
    Each chunk has its own two SFC64 generators, the sum stream and the
    difference stream, spawned from the seed sequence (seed, first path), so
    the chunk rule must not, and does not, read the worker count.  A chunk's
    state is one (2, levels, pairs) array: the + paths, then the - paths.
    Each pair of fine steps (2j, 2j+1) takes a sum S_j from the first stream
    and a difference D_j from the second, and its increments are
    (S_j + D_j)/sqrt(2) and (S_j - D_j)/sqrt(2) times sqrt(t/steps); with an
    odd step count the last step stands alone and takes sqrt(t/steps) S only.
    Each generator fills a buffer for a block of whole step pairs at a time
    in (pair, level, path) order, so a run draws exactly the normals, in the
    same order, that one (levels, pairs) draw per pair and stream would,
    whatever the block size.  A fine run draws steps * levels * pairs
    normals: ceil(steps/2) rows from the sum stream, floor(steps/2) from the
    difference stream.  The chunks run at the same time on a thread pool, one
    worker per usable core (``taskset`` limits them) up to the chunk count;
    each writes its own rows of the result, so values and errors are
    bit-identical for any worker count.  The caller allocates one buffer set
    per worker, and the +- multipliers, the draws and the fine increments of
    all workers together take at most ``_BUFFER_DOUBLES`` doubles (at least
    one block's worth each: one coarse step for an even ``coarsen``, two for
    an odd one).  Up to ``coarsen`` = 2 a block draws as many rows as it has
    - multipliers, so the draws land in the - half of the multiplier buffer
    and the multipliers are written over them, and a block takes two rows
    of the budget per step, not three.

    ``coarsen`` > 1 runs steps/coarsen steps on the same paths: each coarse
    increment is the sum of the coarsen fine increments of its pair and
    level, so the coarse-minus-fine gap is the time-step error alone (at
    N = 1, where the scheme is exact, the two runs agree to round-off).  An
    even ``coarsen`` covers whole step pairs, whose increments sum to
    sqrt(2) S_j sqrt(t/steps), so it draws only from the sum stream, half
    the normals of the fine run; an odd one builds the fine increments from
    S and D and sums them in groups, drawing all of them.
    """
    _check_integer("max_moment", max_moment)
    if max_moment < 1:
        raise ValueError("max_moment must be >= 1")
    _check_integer("coarsen", coarsen)
    if coarsen < 1 or config.steps % coarsen:
        raise ValueError("coarsen must be a positive integer that divides steps")
    n, t, paths = config.levels, config.time, config.replicas
    fine = config.steps
    coarse_steps = fine // coarsen
    h = t / fine * coarsen
    step_scale = math.sqrt(t / fine)  # a lone step's S
    pair_scale = math.sqrt(t / fine / 2.0)  # S and D of a step pair
    full, half = _drift_flow(n, h), _drift_flow(n, h / 2.0)
    pairs = (paths + 1) // 2
    vals = np.empty((2, pairs, max_moment))  # top level^k of the + and the - paths
    # 6 = lcm(1, 2, 3): one, two or three workers get equal shares
    chunks = _equal_chunks(pairs, 6, _BUFFER_DOUBLES // max(1, fine // 50) // (2 * n) + 1)
    chunk = len(chunks[0])
    workers = min(_usable_cores(), len(chunks))
    odd = coarsen % 2
    unit = 1 + odd  # coarse steps per block unit: whole step pairs and whole coarse steps
    draw_rows = coarsen if odd else coarsen // 2  # per coarse step: S and D, or S alone for an even coarsen
    # up to coarsen = 2 a block's draws are as many rows as its - multipliers, and are written over by them
    spill = coarsen > 2
    # per coarse step and (level, pair): the +- multipliers, and any draws and fine increments that do not fit in them
    per_step = 2 + spill * (draw_rows + odd * coarsen)
    # the chunks in flight share one budget: each worker's buffers take 1/workers of it
    block = min(coarse_steps, unit * max(1, _BUFFER_DOUBLES // workers // (per_step * n * chunk) // unit))
    sizes = (
        2 * block * n * chunk,  # the +- multipliers, (+-, step, level, pair)
        spill * block * draw_rows * n * chunk,  # the draws, D before S so that one multiply scales both
        spill * odd * block * coarsen * n * chunk,  # the fine increments
        2 * 2 * n * chunk,  # the state and its drifted copy, (+-, level, pair)
    )
    buffer_sets = [tuple(np.empty(size) for size in sizes) for _ in range(workers)]

    def run_chunk(rows: range, mult_buf, draw_buf, inc_buf, state) -> None:
        c = len(rows)
        sum_rng, diff_rng = _chunk_rngs(config.seed, 2 * rows.start)
        mults = mult_buf[: 2 * block * n * c].reshape(2, block, n, c)
        z, drifted = state[: 2 * 2 * n * c].reshape(2, 2, n, c)
        z.fill(0.0)
        z[:, 0] = 1.0
        src = drifted if n > 1 else z  # at N = 1 the flow is the identity
        flow = half
        left = fine
        while left:
            span = min(left, block * coarsen)  # fine steps
            b = span // coarsen
            both = span // 2  # step pairs; the last block of an odd step count ends on a lone step
            mult = mults[:, :b]
            plus = mult[0]
            count = (1 + odd) * both + span % 2
            draws = draw_buf[: count * n * c].reshape(count, n, c) if spill else mult[1]
            d, s = draws[: odd * both], draws[odd * both :]
            sum_rng.standard_normal(out=s)
            if odd:
                diff_rng.standard_normal(out=d)
                inc = inc_buf[: span * n * c].reshape(span, n, c) if spill else plus
                # the fine increments less their h/2, which a coarse step's sum turns into its own h/2
                shift = h / coarsen / 2.0
                draws[: 2 * both] *= pair_scale
                s[:both] -= shift
                np.add(s[:both], d, out=inc[0 : 2 * both : 2])
                np.subtract(s[:both], d, out=inc[1 : 2 * both : 2])
                if span % 2:  # the lone last step takes S only
                    np.multiply(s[both], step_scale, out=inc[-1])
                    inc[-1] -= shift
                if spill:
                    group = inc.reshape(b, coarsen, n, c)
                    np.add(group[:, 0], group[:, 1], out=plus)
                    for j in range(2, coarsen):
                        plus += group[:, j]
            else:
                group = s.reshape(b, coarsen // 2, n, c)
                g = group[:, 0]
                for j in range(1, coarsen // 2):
                    g += group[:, j]
                np.multiply(g, 2.0 * pair_scale, out=plus)
                plus -= h / 2.0
            np.subtract(-h, plus, out=mult[1])
            np.exp(mult, out=mult)
            for i in range(b):
                if n > 1:
                    np.matmul(flow, z, out=drifted)
                np.multiply(src, mult[:, i], out=z)
                flow = full
            left -= span
        top = half[-1] @ z
        for k in range(1, max_moment + 1):
            vals[:, rows.start : rows.stop, k - 1] = top**k

    _run_chunks(run_chunk, chunks, buffer_sets)
    plus, minus = vals[0], vals[1, : paths - pairs]
    means = (plus.sum(axis=0) + minus.sum(axis=0)) / paths
    units = plus - means  # each unit's summed residual
    if pairs > 1:
        units[: len(minus)] += minus - means
    else:
        units = np.concatenate([units, minus - means])
    count = len(units)
    errs = np.sqrt(count / (count - 1) * (units**2).sum(axis=0)) / paths
    return PolymerMoments(means, errs, config)


def _chunk_rngs(seed: int, first_path: int) -> list[np.random.Generator]:
    # the chunk's sum stream and difference stream
    return [np.random.Generator(np.random.SFC64(seq)) for seq in np.random.SeedSequence((seed, first_path)).spawn(2)]


def _drift_flow(levels: int, h: float) -> np.ndarray:
    # exp(hD) for the drift dZt_l = Zt_{l-1} dt: entry (l, l - j) is h^j/j!
    flow = np.zeros((levels, levels))
    for j in range(levels):
        flow[np.arange(j, levels), np.arange(levels - j)] = h**j / math.factorial(j)
    return flow


def _default_radii(k: int, levels: int, t: float) -> np.ndarray:
    # decreasing radii with gaps > 1 so the z_A contour encloses z_B + 1 for A < B;
    # centered near the saddle radius (N-1)/t of e^{tz} z^{-N} to avoid cancellation
    saddle = max((levels - 1) / t, 0.4)
    base = max(0.4, saddle - 0.7 * (k - 1))
    return base + 1.4 * np.arange(k - 1, -1, -1)


def polymer_moment_contour(
    k: int,
    levels: int,
    t: float,
    nodes: int = 256,
    radii: np.ndarray | None = None,
) -> float:
    """E[Zt(t, N)^k] by nested circle contours.

    Trapezoid quadrature in the angle is spectrally accurate for the analytic
    periodic integrand; the pairwise factor prod_{A<B} (z_A - z_B)/(z_A - z_B - 1)
    is pole-free on the chosen circles.
    """
    if not 1 <= k <= 3:
        raise ValueError("contour moments support k <= 3")
    if not 1 <= levels <= MAX_LEVELS:
        raise ValueError(f"levels must be in [1, {MAX_LEVELS}]")
    if not (math.isfinite(t) and t > 0):
        raise ValueError("t must be positive and finite")
    if not (isinstance(nodes, numbers.Integral) and nodes >= 1):
        raise ValueError(f"nodes must be a positive integer, got {nodes!r}")
    if radii is None:
        radii = _default_radii(k, levels, t)
    radii = check_nested(radii, k, "radii")
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    rings = [r * np.exp(1j * theta) for r in radii]
    # dz/(2 pi i) = z dtheta/(2 pi) on a circle, absorbed into per-axis weights
    wts = [np.exp(t * z) * z ** (1 - levels) / nodes for z in rings]
    val = complex(pairwise_tensor_sum(wts, contour_cross(rings)))
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise RuntimeError(f"contour moment has spurious imaginary part {val.imag:.3e}")
    return float(val.real)


def polymer_second_moment_exact(levels: int, t: float) -> float:
    """Closed form of E[Zt(t, N)^2] from the two residues of the nested contour.

    The z_1 integral picks up the pole at z_1 = z_2 + 1 and the order-N pole at
    the origin; both reduce to finite sums over coefficients of (1+z)^(-M).
    """
    n = levels
    # the alternating binomial sums cancel heavily for larger N, so evaluate
    # them in exact rational arithmetic (the float t is itself a rational)
    tq = Fraction(t)
    first = (tq ** (n - 1) / math.factorial(n - 1)) ** 2

    def coeff(m: int, order: int) -> int:
        # [z^m] (1+z)^(-order)
        return (-1) ** m * math.comb(order + m - 1, m)

    shifted = sum(
        (2 * tq) ** j / math.factorial(j) * coeff(n - 1 - j, n) for j in range(n)
    )
    origin = -sum(
        (tq**i / math.factorial(i))
        * sum(tq**j / math.factorial(j) * coeff(n - 1 - j, n - i) for j in range(n))
        for i in range(n)
    )
    # e^t to 60 digits: the e^t * shifted piece cancels against the rest to
    # many leading digits for larger N, so float(e^t) is not precise enough
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        et = Fraction(decimal.Decimal(t).exp())
    return float(first + origin + et * shifted)


def scaling_constant(levels: int, T: float, X: float = 0.0) -> float:
    """log C(N, T, X), the normalization linking polymer and heat-equation moments."""
    n = levels
    if n < 1:
        raise ValueError("levels must be >= 1")
    if not (math.isfinite(T) and T > 0):
        raise ValueError("T must be positive and finite")
    if not math.isfinite(X):
        raise ValueError("X must be finite")
    t = math.sqrt(n * T) + X
    return n + t / 2.0 + X * math.sqrt(n / T) + 0.5 * n * math.log(T / n)


@dataclass(frozen=True)
class DisorderLimit:
    value: float  # normalized moment at the largest N
    extrapolated: float  # Richardson limit assuming 1/N error decay
    levels: tuple[int, ...]
    raw: tuple[float, ...]


def intermediate_disorder_limit(
    k: int, T: float, X: float = 0.0, levels: tuple[int, ...] = (8, 16)
) -> DisorderLimit:
    """Normalized polymer moments e^{kt/2} E[Zt^k] / C^k at t = sqrt(NT) + X.

    Converges to E[Z(T, X)^k] of the heat equation at rate 1/N for X = 0
    (the k = 1 case has exactly the Stirling error e^{-1/(12N)}) but only
    1/sqrt(N) for X != 0, where the normalization constant leaves an
    uncancelled X/sqrt(NT) term in the exponent.  The Richardson step cancels
    the leading term at the appropriate rate using the two largest N values.
    """
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing with at least two entries")
    raw = []
    for n in levels:
        log_c = scaling_constant(n, T, X)  # refuses a bad T or X by name, before t = sqrt(NT) + X
        t = math.sqrt(n * T) + X
        mom = polymer_moment_contour(k, n, t)
        log_ratio = math.log(mom) + k * t / 2.0 - k * log_c
        raw.append(math.exp(log_ratio))
    n1, n2 = levels[-2], levels[-1]
    v1, v2 = raw[-2], raw[-1]
    rate = 1.0 if X == 0.0 else 0.5
    extrapolated = v2 + (v2 - v1) / ((n2 / n1) ** rate - 1.0)
    return DisorderLimit(raw[-1], extrapolated, tuple(levels), tuple(raw))

"""Monte Carlo over the Airy point process via the edge of tridiagonal GUE ensembles.

The top eigenvalues of an N x N GUE matrix, centered at 2 sqrt(N) and scaled by
N^(1/6), converge to the Airy point process.  Sampling uses the symmetric
tridiagonal beta=2 ensemble (diagonal N(0,1), off-diagonal chi with decreasing
degrees of freedom; Dumitriu & Edelman, J. Math. Phys. 2002).

Its top and bottom eigenvectors live in the leading rows, so each matrix takes
its top m and bottom m eigenvalues from one dsterf call on the leading
n_eff x n_eff block and then proves them on the full matrix.  T has the law of
-S T S, S = diag((-1)^i), so the negated bottom m are a second sample of the
top m: replica 2j is matrix j's top and replica 2j + 1 its negated bottom (an
odd count drops the last bottom).  The two edges of one matrix are
asymptotically independent (Bianchi, Debbah & Najim, Electron. Commun. Probab.
2010); the standard errors count a matrix as one unit all the same (_mean).
The block ends where an eigenvector at the m-th Airy zero a_m has decayed as
much as over 9 N^(1/3) rows past its turning point in the linear band edge of
the N -> oo limit (_window): 214 rows at (N, m) = (400, 24) and 281 at
(800, 24).  A Sturm count at lambda_j -/+ delta must find exactly j and j - 1
eigenvalues above, for every j, on (diag, off) for the top and on the
equally distributed (-diag, off) for the negated bottom.  That places the full
matrix's j-th eigenvalue within delta = 1e-11 of lambda_j (unscaled) and
leaves no eigenvalue the block missed.  The count stops at the row past which
Gershgorin's bound proves every pivot negative (_sturm_above), about 40% and
53% of the rows at N = 800 and 400.  A matrix that fails either count is redone
by dsterf on the full matrix, both edges, as is every matrix when n_eff >= N.

Block b of _DRAW_BLOCK matrices fills its diagonals and off-diagonals, row by
row, from two SFC64 streams spawned from SeedSequence((seed, b, 1)), and the
blocks run in equal chunks of at most _CHUNK matrices, a multiple of the usable
cores of them, one worker thread per core.  The draws and ``dsterf``, the one
eigenvalue routine, release the GIL; dsterf is called through scipy's Cython
LAPACK table by ctypes, bound on the first sampling call so that importing this
module loads no scipy.  The Sturm count is elementwise per matrix, so the
points depend on neither the replica count nor the chunk size or worker count.

Functionals estimated here:
  * series_moment_mc  -- moments of S = sum_p E_p e^{C a_p} with i.i.d. Exp(1)
    weights E_p; E[S^k] = k! E[h_k(e^{C a})] = e^{kT/24} E[Z(T,0)^k].
  * hk_mc             -- E[h_k(e^{C a_1}, e^{C a_2}, ...)] directly.
  * conditional_laplace_mc -- E prod_p (1 + u e^{C a_p})^{-1}, matching the
    multiplicative Fredholm determinant.
"""

from __future__ import annotations

import ctypes
import functools
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .airy import edge_scale
from .chunks import _equal_chunks, _run_chunks, _stream_pair, _usable_cores
from .combinatorics import h_complete

__all__ = [
    "EnsembleConfig",
    "AirySampleSet",
    "MCEstimate",
    "sample_airy_points",
    "series_moment_mc",
    "hk_mc",
    "conditional_laplace_mc",
]


@dataclass(frozen=True)
class EnsembleConfig:
    """Finite-N approximation parameters for the Airy point process."""

    matrix_size: int = 800
    top_points: int = 24
    replicas: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.matrix_size < 50:
            raise ValueError("matrix_size must be >= 50 for a meaningful edge limit")
        if not 1 <= self.top_points <= self.matrix_size:
            raise ValueError("top_points must be in [1, matrix_size]")
        if self.replicas < 2:
            raise ValueError("at least 2 replicas for an error bar")


@dataclass(frozen=True)
class AirySampleSet:
    """Scaled edge samples: points[r, j] is the (j+1)-th highest point of replica r.

    Drawn by sample_airy_points, replicas 2j and 2j + 1 are the two edges of
    matrix j.  ``window`` is the leading block's row count n_eff (None when the
    points were not drawn by sample_airy_points) and ``full_matrix_fallbacks``
    the number of matrices whose block failed the certificate and were redone
    on the full matrix.
    """

    config: EnsembleConfig
    points: np.ndarray = field(repr=False)
    window: int | None = None
    full_matrix_fallbacks: int = 0

    def __post_init__(self):
        r, m = self.points.shape
        if r != self.config.replicas or m != self.config.top_points:
            raise ValueError("sample array shape does not match the configuration")
        if np.any(np.diff(self.points, axis=1) > 0):
            raise ValueError("points must be sorted decreasing within each replica")


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    replicas: int


# the block's decay, in scaled rows of the limit's linear band edge (_window).  About 2e-5 of
# the top edges fall back to the full matrix: 1 of 40 000 at (n, m) = (400, 24) (seeds 1000-1019,
# 2000 replicas each) and 1 of the 2000 of `sample airy --matrix-size 800 --seed 3` at (800, 24).
# A margin of 7 left 149 and 178 of those 2000 at n = 400 and 800
_WINDOW_MARGIN = 9.0
_CERT_TOL = 1e-11  # delta: absolute, on the unscaled eigenvalues
_CHUNK = 128  # most matrices per chunk; bounds the Sturm count's memory
_DRAW_BLOCK = 25  # matrices per pair of draw streams, part of the random stream; 400 replicas are 2 chunks of 100


def _bind_dsterf():
    """LAPACK dsterf from scipy.linalg.cython_lapack's table, as a ctypes function: the call drops the GIL."""
    from scipy.linalg import cython_lapack

    capsule = cython_lapack.__pyx_capi__["dsterf"]
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    signature = name.decode()
    # the table spells double as the typedef d of cython_lapack.pxd, mangled
    if not re.fullmatch(r"void \(int \*, (double|\w*cython_lapack_d) \*, \1 \*, int \*\)", signature):
        raise ImportError(f"scipy.linalg.cython_lapack dsterf has signature {signature!r}, not (int*, d*, d*, int*)")
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )(capsule, name)
    int_p = ctypes.POINTER(ctypes.c_int)
    return ctypes.CFUNCTYPE(None, int_p, ctypes.c_void_p, ctypes.c_void_p, int_p)(pointer)


@functools.cache
def _dsterf_handle():
    """The bound dsterf, made on the first call; a refused signature is raised again on the next."""
    return _bind_dsterf()


def _dsterf(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, int]:
    """Eigenvalues (increasing) of the tridiagonal (d, e) and LAPACK's info, as lapack.dsterf gives them.

    dsterf overwrites its arguments, so it runs on copies and leaves d and e unchanged.
    """
    d = np.array(d, dtype=np.float64)
    e = np.array(e, dtype=np.float64)
    if d.ndim != 1 or e.shape != (max(len(d) - 1, 0),):
        raise ValueError("dsterf needs a diagonal of length n and an off-diagonal of length n - 1")
    n, info = ctypes.c_int(len(d)), ctypes.c_int()
    _dsterf_handle()(ctypes.byref(n), d.ctypes.data, e.ctypes.data, ctypes.byref(info))
    return d, info.value


def _draw(seed: int, first_block: int, diag: np.ndarray, off: np.ndarray) -> None:
    """Rows of diag ~ N(0, 1) and off ~ sqrt(Gamma(n - i)) = chi_{2(n - i)} / sqrt(2), from block first_block on."""
    dof = np.arange(diag.shape[1] - 1, 0, -1, dtype=float)
    for i in range(0, len(diag), _DRAW_BLOCK):
        normal, gamma = _stream_pair(seed, first_block + i // _DRAW_BLOCK, 1)
        normal.standard_normal(out=diag[i : i + _DRAW_BLOCK])
        gamma.standard_gamma(dof, out=off[i : i + _DRAW_BLOCK])
    np.sqrt(off, out=off)


def _window(n: int, m: int) -> int:
    """Rows n_eff of the leading block that holds the top m eigenvalues.

    Row w's band edge 2 sqrt(n - w) lies V(w) = n^(1/6) (2 sqrt(n) - 2 sqrt(n - w))
    below the spectral edge in the edge scaling, and x = w / n^(1/3) is the scaled
    row.  An eigenvector at the m-th Airy zero a_m decays past its turning point
    V = |a_m| like exp(-int sqrt(V - |a_m|) dx) (WKB).  With N = n^(2/3),
    s = sqrt(1 - w / n) and s_0 = 1 - |a_m| / (2N) at the turning point, the
    exponent is (2N)^(3/2) t^(3/2) (2/3 s_0 - 2/5 t) for t = s_0 - s >= 0, and
    the block ends where it reaches (2/3) _WINDOW_MARGIN^(3/2): the decay over
    _WINDOW_MARGIN scaled rows of the linear band edge of the n -> oo limit.
    """
    from scipy.special import ai_zeros

    N = n ** (2.0 / 3.0)
    s_0 = 1.0 - abs(ai_zeros(m)[0][-1]) / (2.0 * N)
    t = np.clip(s_0 - np.sqrt(1.0 - np.arange(n + 1) / n), 0.0, None)
    decay = (2.0 * N) ** 1.5 * t**1.5 * (2.0 / 3.0 * s_0 - 0.4 * t)
    reached = np.flatnonzero(decay >= 2.0 / 3.0 * _WINDOW_MARGIN**1.5)
    return int(reached[0]) if len(reached) else n


def _sturm_above(diag: np.ndarray, off: np.ndarray, shifts: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Eigenvalues above each shift: counts[r, s] for the tridiagonal (diag[r], off[r]).

    The LDL^T pivot recurrence q_i = d_i - x - e_{i-1}^2 / q_{i-1} runs over
    the rows, for all matrices and shifts at once; the negative pivots count
    the eigenvalues below x.  A zero pivot makes the next one -inf, which
    counts as LAPACK's -pivmin substitution does.

    The pass stops early when Gershgorin settles the remaining rows.  If every
    row i >= r has d_i + |e_{i-1}| + |e_i| < x - slack and q_{r-1} < -|e_{r-1}|,
    then q_i <= d_i - x + |e_{i-1}| < -|e_i| for every i >= r, by induction, so
    each of those rows counts once below x.  The slack, 1e-9 of the entries'
    and shifts' magnitude, is far above the recurrence's round-off, so the
    rounded pivots obey the same bound and the counts equal the full pass's.
    The pass runs to the stop row, one past the last row of the chunk whose
    Gershgorin upper edge reaches its matrix's smallest shift minus the slack,
    and on from there until the pivot condition holds.  scratch is a (chunk, n)
    array with at least as many rows as diag; it is overwritten.
    """
    n = diag.shape[1]
    slack = 1e-9 * (
        1.0
        + np.abs(shifts).max()
        + max(diag.max(), -diag.min())
        + 4.0 * max(off.max(initial=0.0), -off.min(initial=0.0))
    )
    flat = scratch.reshape(-1)[: diag.size]
    edge = flat.reshape(diag.shape)  # edge[r, i] = d_i + |e_{i-1}| + |e_i| - (min_s x_rs - slack)
    edge[:, 0] = 0.0
    np.abs(off, out=edge[:, 1:])
    np.add(flat[:-1], flat[1:], out=flat[:-1])  # a row's last entry adds the next row's leading 0
    edge += diag
    edge -= (shifts.min(axis=1) - slack)[:, None]
    reached = np.flatnonzero(~(edge.max(axis=0) < 0.0))  # ~(... < 0) keeps a nan row
    stop = reached[-1] + 1 if len(reached) else 0

    q = diag[:, :1] - shifts
    below = (q < 0).astype(np.intp)
    with np.errstate(divide="ignore"):
        for i in range(1, n):
            if i >= stop and np.all(q < -np.abs(off[:, i - 1, None])):
                return i - below  # the n - i rows not run are all below
            q = diag[:, i, None] - shifts - off[:, i - 1, None] ** 2 / q
            below += q < 0
    return n - below


def _edges(vals: np.ndarray, m: int, out: np.ndarray) -> None:
    """A matrix's two replicas from its increasing eigenvalues: the top m and the bottom m negated, each decreasing."""
    out[0] = vals[-m:][::-1]
    np.negative(vals[:m], out=out[1])


def _certified_edges(
    diag: np.ndarray, off: np.ndarray, window: int, m: int, scratch: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both edges of each leading block (_edges), and whether the full matrix confirms both.

    The negated bottom m are the top m of (-diag, off), so they are certified
    as a top, on diag negated in place.  Negation is exact, so diag is left
    unchanged.
    """
    edges = np.empty((len(diag), 2, m))
    ok = np.empty(len(diag), dtype=bool)
    for i in range(len(diag)):
        vals, info = _dsterf(diag[i, :window], off[i, : window - 1])
        _edges(vals, m, edges[i])
        ok[i] = info == 0
    rank = np.arange(1, m + 1)
    for side in (0, 1):  # the top on diag, then the negated bottom on -diag
        top = edges[:, side]
        above = _sturm_above(diag, off, np.hstack([top - _CERT_TOL, top + _CERT_TOL]), scratch)
        ok &= np.all(above[:, :m] == rank, axis=1) & np.all(above[:, m:] == rank - 1, axis=1)
        np.negative(diag, out=diag)
    return edges, ok


def sample_airy_points(config: EnsembleConfig) -> AirySampleSet:
    """Draw scaled GUE edge samples; replica r is reproducible from (seed, r // 2) alone.

    ceil(replicas / 2) matrices give two replicas each, top then negated
    bottom; an odd count's last matrix is certified on both edges all the
    same, so its top is the one any longer sample has.  Each chunk draws its
    matrices, certifies them, redoes its own fallbacks and writes its own
    rows of the result, so the points are bit-identical for any worker
    count.  dsterf is bound here, before the chunks start.
    """
    _dsterf_handle()
    n = config.matrix_size
    m = config.top_points
    replicas = config.replicas
    scale = n ** (1.0 / 6.0)
    center = 2.0 * math.sqrt(n)
    window = _window(n, m)
    matrices = (replicas + 1) // 2
    out = np.empty((replicas, m))
    failed = np.zeros(matrices, dtype=bool)
    blocks = math.ceil(matrices / _DRAW_BLOCK)
    workers = min(_usable_cores(), blocks)
    # a multiple of the worker count of equal chunks of whole blocks, so every worker runs as many chunks
    chunks = _equal_chunks(blocks, workers, _CHUNK // _DRAW_BLOCK)
    chunk = len(chunks[0]) * _DRAW_BLOCK
    buffer_sets = [(np.empty((chunk, n)), np.empty((chunk, n - 1)), np.empty((chunk, n))) for _ in range(workers)]

    def run_chunk(block_range: range, diag_buf, off_buf, scratch) -> None:
        rows = range(block_range.start * _DRAW_BLOCK, min(block_range.stop * _DRAW_BLOCK, matrices))
        diag, off = diag_buf[: len(rows)], off_buf[: len(rows)]
        _draw(config.seed, block_range.start, diag, off)
        if window < n:
            edges, ok = _certified_edges(diag, off, window, m, scratch)
            failed[rows.start : rows.stop] = ~ok
        else:
            edges, ok = np.empty((len(rows), 2, m)), np.zeros(len(rows), dtype=bool)
        for i in np.flatnonzero(~ok):
            vals, info = _dsterf(diag[i], off[i])
            if info != 0:
                raise np.linalg.LinAlgError(f"dsterf did not converge on matrix {rows[i]} (info = {info})")
            _edges(vals, m, edges[i])
        first, stop = 2 * rows.start, min(2 * rows.stop, replicas)
        out[first:stop] = scale * (edges.reshape(-1, m)[: stop - first] - center)

    _run_chunks(run_chunk, chunks, buffer_sets)
    return AirySampleSet(config, out, window, int(np.count_nonzero(failed)))


def _hk(k: int, T: float, sample: AirySampleSet) -> np.ndarray:
    """h_k(e^{C a_1}, e^{C a_2}, ...) per replica, with a truncation-bias warning when the cut matters.

    The discarded points sit below the m-th one, so their total contribution to
    sum e^{C a_p} is controlled by the smallest retained term.
    """
    ex = np.exp(edge_scale(T) * sample.points)
    tail = ex[:, -1].mean()
    if tail > 1e-3 * max(ex[:, 0].mean(), 1e-300) * k:
        warnings.warn(
            f"truncation at {sample.config.top_points} points may bias the estimate "
            f"(smallest retained weight {tail:.3e}); increase top_points",
            RuntimeWarning,
        )
    return h_complete(k, ex.T)  # elementwise over the columns


def _mean(vals: np.ndarray) -> MCEstimate:
    """Mean over replicas, with the standard error over matrices: rows 2j and 2j + 1 are one unit.

    The error is that of the units' summed residuals (an odd count's last row
    is a unit of its own), so it holds whatever the correlation of a matrix's
    two edges and is the row formula's in expectation when they are
    independent.  A single matrix falls back to the spread of its two rows.
    """
    resid = vals - vals.mean()
    units = resid[::2].copy()
    units[: len(vals) // 2] += resid[1::2]
    if len(units) < 2:
        units = resid
    count = len(units)
    stderr = math.sqrt(count / (count - 1) * float((units**2).sum())) / len(vals)
    return MCEstimate(float(vals.mean()), stderr, len(vals))


def series_moment_mc(k: int, T: float, sample: AirySampleSet) -> MCEstimate:
    """E[S^k] for S = sum_p E_p e^{C a_p}, E_p i.i.d. Exp(1); equals e^{kT/24} E[Z(T,0)^k].

    Each replica contributes E[S^k | points] = k! h_k(e^{C a}) (Rao-Blackwell):
    the mean of S^k over fresh weights, with a smaller variance and no draws.
    """
    if not 1 <= k <= 2:
        raise ValueError("series_moment_mc supports k in {1, 2}; variance explodes beyond")
    return _mean(math.factorial(k) * _hk(k, T, sample))


def hk_mc(k: int, T: float, sample: AirySampleSet) -> MCEstimate:
    """E[h_k(e^{C a_1}, e^{C a_2}, ...)], the partition-summed Laplace functional."""
    if not 1 <= k <= 3:
        raise ValueError("hk_mc supports k <= 3")
    return _mean(_hk(k, T, sample))


def conditional_laplace_mc(u: float, T: float, sample: AirySampleSet) -> MCEstimate:
    """E prod_p (1 + u e^{C a_p})^{-1}; the sampling counterpart of the Fredholm determinant."""
    if not (math.isfinite(u) and u > 0):
        raise ValueError("u must be positive and finite")
    return _mean(np.exp(-np.log1p(u * np.exp(edge_scale(T) * sample.points)).sum(axis=1)))

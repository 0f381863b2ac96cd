"""Truncation of vertical lines, Gauss rules, the nested-contour sum and the Cauchy-determinant kernel."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class QuadratureError(RuntimeError):
    """A quadrature rule failed its own check."""


def default_halfwidth(decay_rate: float, tol: float = 1e-12) -> float:
    """Truncation halfwidth for integrands with envelope exp(-decay_rate * y^2 / 2)."""
    if decay_rate <= 0:
        raise ValueError("decay_rate must be positive")
    return math.sqrt(2.0 * math.log(1.0 / tol) / decay_rate) + 3.0


@dataclass(frozen=True)
class GaussHermiteRule:
    """Nodes and weights for int f(x) exp(-x^2) dx."""

    order: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def gauss_hermite(n: int) -> GaussHermiteRule:
    if not 1 <= n <= 200:
        raise ValueError("Gauss-Hermite order must be in [1, 200]")
    nodes, weights = np.polynomial.hermite.hermgauss(n)
    if not np.all(weights > 0):
        raise QuadratureError("Gauss-Hermite weight computation failed")
    return GaussHermiteRule(n, nodes, weights)


def gauss_legendre_panels(a: float, b: float, panel_width: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on [a, b] with panels of roughly panel_width."""
    if b <= a:
        raise ValueError("need b > a")
    npanels = max(1, int(math.ceil((b - a) / panel_width)))
    x0, w0 = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, npanels + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + half[:, None] * x0[None, :]).ravel()
    weights = (half[:, None] * w0[None, :]).ravel()
    return nodes, weights


def check_nested(positions, k: int, name: str) -> np.ndarray:
    """Check for k contour positions, each exceeding the next by more than 1; return them as floats.

    On such contours the pair factor of the nested-contour integrand has no pole.
    """
    p = np.asarray(positions, dtype=float)
    if p.shape != (k,) or not np.all(p[:-1] - p[1:] > 1.0):
        raise ValueError(f"need {k} {name} decreasing by more than 1, got {np.atleast_1d(p).tolist()}")
    return p


def contour_cross(za, zb):
    """(z_a - z_b) / (z_a - z_b - 1), the pair factor of the nested-contour integrand; broadcasts."""
    d = za - zb
    return d / (d - 1.0)


def nested_contour_sum(zs: Sequence[np.ndarray], ws: Sequence[np.ndarray]) -> complex:
    """sum over the tensor grid of prod_a ws[a] prod_{a<b} contour_cross(zs[a], zs[b]), for k = len(zs) <= 3.

    zs[a] are the nodes of axis a and ws[a] their weights, each already holding
    the quadrature weight times the route's exponential.  The grid is summed
    by matrix products; no k-dimensional array is built.
    """
    k = len(zs)
    if not 1 <= k <= 3 or len(ws) != k:
        raise ValueError("nested_contour_sum needs 1 to 3 axes, one weight vector per node vector")
    if k == 1:
        return complex(np.sum(ws[0]))
    c01 = contour_cross(zs[0][:, None], zs[1][None, :])
    if k == 2:
        return complex(ws[0] @ c01 @ ws[1])
    c02 = contour_cross(zs[0][:, None], zs[2][None, :])
    c12 = contour_cross(zs[1][:, None], zs[2][None, :])
    return complex(np.sum(ws[0][:, None] * c02 * ((c01 * ws[1]) @ (c12 * ws[2]))))


def cauchy_pair_det(ys: Sequence[np.ndarray], parts) -> np.ndarray:
    """det[1/(a_i - b_j)] for a_i = i y_i + p_i/2, b_j = i y_j - p_j/2, in closed form.

    Cauchy's formula makes the determinant real and positive:
    prod_i 1/p_i * prod_{i<j} (d^2 + ((p_i - p_j)/2)^2) / (d^2 + ((p_i + p_j)/2)^2)
    with d = y_i - y_j.  The ys[i] broadcast against each other, so sparse
    meshgrid axes build each pair factor on its own plane.
    """
    parts = np.asarray(parts, dtype=float)
    shape = np.broadcast_shapes(*(np.shape(y) for y in ys))
    out = np.full(shape, 1.0 / float(np.prod(parts)))
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            d2 = (ys[i] - ys[j]) ** 2
            out *= (d2 + 0.25 * (parts[i] - parts[j]) ** 2) / (d2 + 0.25 * (parts[i] + parts[j]) ** 2)
    return out


def gauss_hermite_cauchy(scales, parts, order: int) -> float:
    """int prod_j exp(-scales_j^2 y_j^2) cauchy_pair_det(y, parts) dy by tensor Gauss-Hermite."""
    rule = gauss_hermite(order)
    ys = np.meshgrid(*(rule.nodes / s for s in scales), indexing="ij", sparse=True)
    weights = np.meshgrid(*(rule.weights / s for s in scales), indexing="ij", sparse=True)
    integrand = cauchy_pair_det(ys, parts)
    for w in weights:
        integrand *= w
    return float(np.sum(integrand))

"""Tensor-product Gauss-Legendre rules on boxes, with a doubled-order estimate.

Two rules live here.  The single-box rule (order 32, doubled to 64 for the
error estimate) integrates smooth geometric pairings.  The composite rule
splits each axis into panels of a requested width and is what the mollifier
oracle uses to resolve tubes whose cross section is a width-eps Gaussian; a
fixed-order global rule cannot see those.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureNotConverged, UnboundedDomain

DEFAULT_ORDER = 32
DEFAULT_REL_TOL = 1e-8
DEFAULT_ABS_TOL = 1e-12

MAX_PANELS_PER_AXIS = 400
EVAL_CHUNK = 200_000


@dataclass(frozen=True)
class QuadratureOptions:
    order: int = DEFAULT_ORDER
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL


def as_box(box) -> np.ndarray:
    """Validate a (k, 2) array of [lo, hi] bounds: not None, finite, lo <= hi."""
    if box is None:
        raise UnboundedDomain("no bounded box to sample or integrate over")
    b = np.asarray(box, dtype=float)
    if b.ndim == 1 and b.shape[0] == 2:
        b = b[None, :]
    if b.ndim != 2 or b.shape[1] != 2:
        raise ValueError(f"expected a (k, 2) bounds array, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise UnboundedDomain("integration box has non-finite bounds")
    if np.any(b[:, 0] > b[:, 1]):
        raise ValueError("box has lo > hi")
    return b


def intersect_boxes(a, b) -> np.ndarray | None:
    """Intersection of two boxes, or None when empty.  None inputs pass through."""
    if a is None:
        return None if b is None else as_box(b)
    if b is None:
        return as_box(a)
    a, b = as_box(a), as_box(b)
    lo = np.maximum(a[:, 0], b[:, 0])
    hi = np.minimum(a[:, 1], b[:, 1])
    if np.any(lo > hi):
        return None
    return np.stack([lo, hi], axis=1)


@lru_cache(maxsize=None)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _axis_nodes(lo: float, hi: float, order: int):
    x, w = _leggauss(order)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * x, half * w


def tensor_rule(box, order: int):
    """Points (N, k) and weights (N,) for one Gauss-Legendre box rule."""
    b = as_box(box)
    k = b.shape[0]
    if k == 0:
        return np.zeros((1, 0)), np.ones(1)
    axes = [_axis_nodes(lo, hi, order) for lo, hi in b]
    return _tensorize(axes, k)


def composite_rule(box, panel_width, order: int = 12):
    """Composite rule with panels roughly ``panel_width`` wide.

    ``panel_width`` is a scalar or a per-axis array; tube integrands are thin
    only across their core, so per-axis widths keep the node count sane.
    """
    b = as_box(box)
    k = b.shape[0]
    if k == 0:
        return np.zeros((1, 0)), np.ones(1)
    widths = np.broadcast_to(np.asarray(panel_width, dtype=float), (k,))
    if np.any(widths <= 0.0):
        raise ValueError("panel width must be positive")
    axes = []
    for (lo, hi), pw in zip(b, widths):
        width = hi - lo
        panels = min(MAX_PANELS_PER_AXIS, max(1, int(np.ceil(width / pw))))
        edges = np.linspace(lo, hi, panels + 1)
        xs, ws = [], []
        for i in range(panels):
            x, w = _axis_nodes(edges[i], edges[i + 1], order)
            xs.append(x)
            ws.append(w)
        axes.append((np.concatenate(xs), np.concatenate(ws)))
    return _tensorize(axes, k)


def _tensorize(axes, k: int):
    grids = np.meshgrid(*[x for x, _ in axes], indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(points.shape[0])
    # accumulate per-axis weights onto the flattened tensor grid
    shape = [len(x) for x, _ in axes]
    for i, (_, w) in enumerate(axes):
        expand = np.ones(k, dtype=int)
        expand[i] = shape[i]
        weights = weights * np.broadcast_to(
            w.reshape(expand), shape).ravel()
    return points, weights


def weighted_sum(f_many, points: np.ndarray, weights: np.ndarray) -> complex:
    """sum_i w_i f(p_i), evaluating f in chunks to bound peak memory."""
    total = 0.0 + 0.0j
    for start in range(0, points.shape[0], EVAL_CHUNK):
        sl = slice(start, start + EVAL_CHUNK)
        total += complex(np.sum(np.asarray(f_many(points[sl])) * weights[sl]))
    return total


MAX_ORDER = 512


def integrate(f_many, box, options: QuadratureOptions | None = None):
    """Integrate over a box; returns (value, error_estimate).

    The value comes from a doubled-order rule and the estimate is the
    difference against the previous order.  Orders keep doubling from the
    base until the estimate meets tolerance or MAX_ORDER is reached;
    enforcement of the final estimate is the caller's decision, see
    ``ensure_converged``.
    """
    opts = options or QuadratureOptions()
    b = as_box(box)
    order = opts.order
    p, w = tensor_rule(b, order)
    value = weighted_sum(f_many, p, w)
    while True:
        order *= 2
        p, w = tensor_rule(b, order)
        refined = weighted_sum(f_many, p, w)
        estimate = abs(refined - value)
        value = refined
        if estimate <= opts.rel_tol * abs(value) + opts.abs_tol or order >= MAX_ORDER:
            return value, estimate


def ensure_converged(value: complex, estimate: float,
                     options: QuadratureOptions | None = None) -> None:
    opts = options or QuadratureOptions()
    if estimate > opts.rel_tol * abs(value) + opts.abs_tol:
        raise QuadratureNotConverged(
            f"quadrature estimate {estimate:.3g} exceeds tolerance for value "
            f"{abs(value):.6g}")

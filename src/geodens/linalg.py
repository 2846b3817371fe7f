"""Kernels on frames and the determinant powers under everything else.

A frame is its matrix: tangent and normal frames are (n, k) arrays of column
vectors, conormal frames are (q, n) arrays of covector rows, and a stack of
frames adds a leading axis.  All ambient spaces here are R^n at desk scale
(n <= 10), so every routine is dense and direct: slogdet, lstsq, pinv, svd.
Degrees are complex throughout; |det|^degree is computed as
exp(degree * ln|det|).
"""
from __future__ import annotations

import cmath

import numpy as np

from .errors import (
    ConormalMismatch,
    DegenerateCovectors,
    RankDeficient,
    SingularFrame,
    SpanMismatch,
)

SINGULAR_TOL = 1e-12    # relative to the Hadamard bound of the matrix
RANK_TOL = 1e-9         # relative singular value cutoff for rank decisions
SPAN_TOL = 1e-9         # relative residual for span membership
ANNIHILATE_TOL = 1e-9   # relative to max|nu| max|t|: above this is not "annihilates"


def _log_hadamard(m: np.ndarray) -> float:
    # log of prod_i ||row_i||, the natural scale of det for these entries
    norms = np.linalg.norm(m, axis=1)
    if np.any(norms == 0.0):
        return -np.inf
    return float(np.sum(np.log(norms)))


def det_abs_pow(matrix, degree) -> complex:
    """|det M|^degree for a square matrix M and complex degree.

    Computed as exp(degree * ln|det M|).  A matrix is treated as singular when
    |det| <= SINGULAR_TOL * (Hadamard bound); then the result is 0 for
    Re(degree) > 0 and SingularFrame is raised otherwise (including degree 0:
    0^0 on a degenerate frame is not a meaningful density value).
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    a = complex(degree)
    if m.shape[0] == 0:
        # empty frame on a zero-dimensional space, det is 1 by convention
        return 1.0 + 0.0j
    sign, logabs = np.linalg.slogdet(m)
    if sign == 0.0 or logabs <= np.log(SINGULAR_TOL) + _log_hadamard(m):
        if a.real > 0.0:
            return 0.0 + 0.0j
        raise SingularFrame(
            f"singular frame matrix (log|det| = {logabs:.3g}) with degree {a}")
    return cmath.exp(a * logabs)


def _as_columns(frame) -> np.ndarray:
    a = np.asarray(frame, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d column matrix")
    return a


def change_of_basis(source, target) -> np.ndarray:
    """Matrix B with target = source @ B, both frames spanning the same subspace.

    Raises SpanMismatch when the counts differ or the residual of the
    least-squares solve exceeds SPAN_TOL relative to the target.
    """
    s = _as_columns(source)
    t = _as_columns(target)
    if s.shape[0] != t.shape[0]:
        raise ValueError("frames live in different ambient dimensions")
    if s.shape[1] != t.shape[1]:
        raise SpanMismatch(
            f"frame sizes differ ({s.shape[1]} vs {t.shape[1]})")
    if s.shape[1] == 0:
        return np.zeros((0, 0))
    b, *_ = np.linalg.lstsq(s, t, rcond=None)
    resid = np.linalg.norm(s @ b - t)
    if resid > SPAN_TOL * max(1.0, np.linalg.norm(t)):
        raise SpanMismatch(
            f"target frame is not in the span of the source (residual {resid:.3g})")
    return b


def dual_normal_frame(covectors, tangent=None) -> np.ndarray:
    """Normal vectors n_j (columns) with nu_i(n_j) = delta_ij, minimum-norm choice.

    ``covectors`` are q rows in R^n.  When a tangent frame is supplied the
    covectors must annihilate it, |nu_i(t_j)| <= ANNIHILATE_TOL max|nu| max|t|,
    otherwise ConormalMismatch is raised.
    """
    nu = np.atleast_2d(np.asarray(covectors, dtype=float))
    q, n = nu.shape
    if q == 0:
        return np.zeros((n, 0))
    sv = np.linalg.svd(nu, compute_uv=False)
    if sv[-1] <= RANK_TOL * sv[0] or sv[0] == 0.0:
        raise DegenerateCovectors(
            f"covector family of {q} rows is rank deficient")
    if tangent is not None:
        t = _as_columns(tangent)
        if t.shape[1] and np.abs(nu @ t).max() > \
                ANNIHILATE_TOL * np.abs(nu).max() * np.abs(t).max():
            raise ConormalMismatch("covectors do not annihilate the tangent frame")
    # min-norm solution of nu @ N = I_q
    return np.linalg.lstsq(nu, np.eye(q), rcond=None)[0]


def frame_factors(tangents, rows, degree, solver) -> np.ndarray:
    """|det [t | solver(nu, t)]|^degree for each distinct frame of a batch.

    ``tangents`` (m, n, k) and conormal ``rows`` (m, q, n) hold one frame per
    node, or one for every node when m is 1 on either side; the solver and the
    determinant run once per distinct frame.  They are float64 for a real degree.
    """
    out = np.empty(max(len(tangents), len(rows)), dtype=complex)
    for i in range(len(out)):
        # i % 1 == 0: a stack of one frame serves every node
        t, nu = tangents[i % len(tangents)], rows[i % len(rows)]
        out[i] = det_abs_pow(np.hstack([t, solver(nu, t)]), degree)
    return out if complex(degree).imag else out.real.copy()


def complete_to_ambient(tangent) -> np.ndarray:
    """Orthonormal columns spanning the orthogonal complement of a tangent frame,
    or of each frame in an (..., n, k) stack."""
    t = np.asarray(tangent, dtype=float)
    n, k = t.shape[-2:]
    if k == 0:
        return np.broadcast_to(np.eye(n), t.shape[:-2] + (n, n)).copy()
    u, sv, _ = np.linalg.svd(t, full_matrices=True)
    if np.any(sv[..., -1] <= RANK_TOL * sv[..., 0]):
        raise RankDeficient("tangent frame is rank deficient")
    return u[..., k:]

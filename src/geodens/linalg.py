"""Kernels on frames and the determinant powers under everything else.

A frame is its matrix: tangent and normal frames are (n, k) arrays of column
vectors, conormal frames are (q, n) arrays of covector rows, and a stack of
frames adds a leading axis.  All ambient spaces here are R^n at desk scale
(n <= 10), so every routine is dense and direct: slogdet, lstsq, pinv, svd.
Degrees are complex throughout; |det|^degree is computed as
exp(degree * ln|det|).  Each rule is written once, on stacks of frames.
"""
from __future__ import annotations

import numpy as np

from .errors import (
    AmbientMismatch,
    ConormalMismatch,
    DegenerateCovectors,
    FrameShapeMismatch,
    RankDeficient,
    SingularFrame,
    SpanMismatch,
)

SINGULAR_TOL = 1e-12    # relative to the Hadamard bound of the matrix
RANK_TOL = 1e-9         # relative singular value cutoff for rank decisions
SPAN_TOL = 1e-9         # relative residual for span membership
ANNIHILATE_TOL = 1e-9   # |nu_i(t_j)| / (|nu_i| |t_j|) above this is not "annihilates"


def _det_abs_pows(mats: np.ndarray, degree) -> np.ndarray:
    """|det M|^degree, complex, for each matrix of an (m, d, d) stack."""
    a = complex(degree)
    sign, logabs = np.linalg.slogdet(mats)
    with np.errstate(divide="ignore"):
        # log of prod_j ||column_j||: scaling a column scales it as it scales |det|
        log_hadamard = np.sum(np.log(np.linalg.norm(mats, axis=1)), axis=1)
    singular = (sign == 0.0) | (logabs <= np.log(SINGULAR_TOL) + log_hadamard)
    if singular.any() and a.real <= 0.0:
        raise SingularFrame(f"singular frame matrix (log|det| = "
                            f"{logabs[np.argmax(singular)]:.3g}) with degree {a}")
    return np.where(singular, 0.0, np.exp(a * np.where(singular, 0.0, logabs)))


def det_abs_pow(matrix, degree) -> complex:
    """|det M|^degree for a square matrix M and complex degree.

    Computed as exp(degree * ln|det M|).  A matrix is treated as singular when
    |det| <= SINGULAR_TOL * prod_j |column_j| (Hadamard); then the result is 0 for
    Re(degree) > 0 and SingularFrame is raised otherwise (including degree 0:
    0^0 on a degenerate frame is not a meaningful density value).  The rule of
    ``frame_factors`` on a stack of one; the empty frame has det 1.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise FrameShapeMismatch(f"expected a square matrix, got shape {m.shape}")
    return complex(_det_abs_pows(m[None], degree)[0])


def _as_columns(frame) -> np.ndarray:
    a = np.asarray(frame, dtype=float)
    if a.ndim != 2:
        raise FrameShapeMismatch(f"expected a 2-d column matrix, got shape {a.shape}")
    return a


def change_of_basis(source, target) -> np.ndarray:
    """Matrix B with target = source @ B, both frames spanning the same subspace.

    Raises SpanMismatch when the counts differ or the residual of the
    least-squares solve exceeds SPAN_TOL relative to the target.
    """
    s = _as_columns(source)
    t = _as_columns(target)
    if s.shape[0] != t.shape[0]:
        raise AmbientMismatch("frames live in different ambient dimensions")
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


def unit_rows(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit length, zero rows kept, and the lengths they had."""
    lengths = np.linalg.norm(stack, axis=-1, keepdims=True)
    return stack / np.where(lengths > 0.0, lengths, 1.0), lengths[..., 0]


def unit_columns(t: np.ndarray) -> np.ndarray:
    """Columns of (..., n, k) frames as unit (..., k, n) rows: no length decides on them."""
    return unit_rows(np.swapaxes(t, -1, -2))[0]


def leaks(unit: np.ndarray, unit_t: np.ndarray) -> np.ndarray:
    """Per frame of unit rows (m, q, n) and unit tangents (m, k, n): some |nu_i(t_j)| > tol."""
    return np.abs(unit @ np.swapaxes(unit_t, 1, 2)).max(axis=(1, 2), initial=0.0) > ANNIHILATE_TOL


def _dual_normals(nu: np.ndarray, t: np.ndarray | None) -> np.ndarray:
    """Minimum-norm dual normals (m, n, q) of an (m, q, n) stack of covector rows,
    checked against (m, n, k) tangents when given: one SVD of the unit rows for
    the rank test and the pseudo-inverse, one annihilation test."""
    m, q, n = nu.shape
    if q == 0:
        return np.zeros((m, n, 0))
    unit, lengths = unit_rows(nu)
    u, sv, vt = np.linalg.svd(unit, full_matrices=False)
    if np.any(sv[:, -1] <= RANK_TOL * sv[:, 0]):
        raise DegenerateCovectors(f"covector family of {q} rows is rank deficient")
    if t is not None and np.any(leaks(unit, unit_columns(t))):
        raise ConormalMismatch("covectors do not annihilate the tangent frame")
    # nu = L unit, L = diag(row lengths): V S^-1 U^T L^-1 solves nu N = I with least norm
    return np.swapaxes(vt, 1, 2) @ (np.swapaxes(u, 1, 2) / sv[:, :, None] / lengths[:, None, :])


def dual_normal_frame(covectors, tangent=None) -> np.ndarray:
    """Normal vectors n_j (columns) with nu_i(n_j) = delta_ij, minimum-norm choice.

    ``covectors`` are q rows in R^n.  When a tangent frame is supplied the covectors
    must annihilate it, |nu_i(t_j)| <= ANNIHILATE_TOL |nu_i| |t_j|, or ConormalMismatch
    is raised.  ``frame_factors``'s default solver on a stack of one.
    """
    nu = np.atleast_2d(np.asarray(covectors, dtype=float))
    t = None if tangent is None else _as_columns(tangent)[None]
    return _dual_normals(nu[None], t)[0]


def frame_factors(tangents, rows, degree, solver=None) -> np.ndarray:
    """|det [t | n]|^degree for each distinct frame of a batch.

    ``tangents`` (m, n, k) and conormal ``rows`` (m, q, n) hold one frame per
    node, or one for every node when m is 1 on either side.  n is a caller's
    one-frame ``solver(nu, t)``, run once per distinct frame, or else the
    minimum-norm dual normals of the whole stack at once; the determinants
    run as one stack.  The result is float64 for a real degree.
    """
    m = max(len(tangents), len(rows))
    t = np.broadcast_to(tangents, (m,) + tangents.shape[1:])
    nu = np.broadcast_to(rows, (m,) + rows.shape[1:])
    if solver is None:
        normals = _dual_normals(nu, t)
    else:
        normals = np.empty((m, t.shape[1], nu.shape[1]))
        for i, frame in enumerate(zip(nu, t)):
            normals[i] = solver(*frame)
    out = _det_abs_pows(np.concatenate([t, normals], axis=2), degree)
    return out if complex(degree).imag else out.real.copy()


def complete_to_ambient(tangent) -> np.ndarray:
    """Orthonormal columns spanning the orthogonal complement of a tangent frame,
    or of each frame in an (..., n, k) stack, from one SVD of the unit columns."""
    t = np.asarray(tangent, dtype=float)
    n, k = t.shape[-2:]
    if k == 0:
        return np.broadcast_to(np.eye(n), t.shape[:-2] + (n, n)).copy()
    u, sv, _ = np.linalg.svd(np.swapaxes(unit_columns(t), -1, -2), full_matrices=True)
    if np.any(sv[..., -1] <= RANK_TOL * sv[..., 0]):
        raise RankDeficient("tangent frame is rank deficient")
    return u[..., k:]

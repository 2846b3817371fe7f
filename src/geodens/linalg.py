"""Frames, density values, and the determinant-power kernels under everything else.

All ambient spaces here are R^n at desk scale (n <= 10), so every routine is
dense and direct: slogdet, lstsq, pinv, svd.  Degrees are complex throughout;
|det|^degree is computed as exp(degree * ln|det|).
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Union

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
ANNIHILATE_TOL = 1e-9   # |nu_i(t_j)| above this is not "annihilates"


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


@dataclass(frozen=True)
class Frame:
    """An ordered, independent family of vectors or covectors in R^n.

    Tangent and normal frames store their vectors as columns of an (n, m)
    matrix; covector frames store rows of an (m, n) matrix, so that
    ``covectors @ vectors`` is the natural pairing.
    """

    matrix: np.ndarray
    kind: str  # "tangent" | "normal" | "covector"

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("frame matrix must be 2-d")
        if self.kind not in ("tangent", "normal", "covector"):
            raise ValueError(f"unknown frame kind {self.kind!r}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if self.count:
            sv = np.linalg.svd(self.matrix, compute_uv=False)
            if sv[-1] <= RANK_TOL * sv[0]:
                raise RankDeficient(
                    f"{self.kind} frame of {self.count} vectors has rank "
                    f"{int(np.sum(sv > RANK_TOL * sv[0]))}")

    @classmethod
    def tangent(cls, vectors) -> "Frame":
        return cls(_columns_from(vectors), "tangent")

    @classmethod
    def normal(cls, vectors) -> "Frame":
        return cls(_columns_from(vectors), "normal")

    @classmethod
    def covector(cls, rows) -> "Frame":
        return cls(np.atleast_2d(np.asarray(rows, dtype=float)), "covector")

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[1] if self.kind == "covector" else self.matrix.shape[0]

    @property
    def count(self) -> int:
        return self.matrix.shape[0] if self.kind == "covector" else self.matrix.shape[1]

    @property
    def columns(self) -> np.ndarray:
        """Coefficient vectors as columns, regardless of kind."""
        return self.matrix.T if self.kind == "covector" else self.matrix


def _columns_from(vectors) -> np.ndarray:
    a = np.asarray(vectors, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    elif a.ndim == 2:
        # rows in, columns out
        a = a.T
    else:
        raise ValueError("expected a vector or a sequence of vectors")
    return a


FrameLike = Union[Frame, np.ndarray, list, tuple]


def _as_columns(frame: FrameLike) -> np.ndarray:
    if isinstance(frame, Frame):
        return frame.columns
    a = np.asarray(frame, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a Frame or a 2-d column matrix")
    return a


def change_of_basis(source: FrameLike, target: FrameLike) -> np.ndarray:
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


def dual_normal_frame(covectors: FrameLike, tangent: FrameLike | None = None) -> np.ndarray:
    """Normal vectors n_j (columns) with nu_i(n_j) = delta_ij, minimum-norm choice.

    ``covectors`` are q rows in R^n.  When a tangent frame is supplied the
    covectors must annihilate it (|nu_i(t_j)| <= ANNIHILATE_TOL), otherwise
    ConormalMismatch is raised.
    """
    nu = np.atleast_2d(np.asarray(
        covectors.matrix if isinstance(covectors, Frame) else covectors, dtype=float))
    q, n = nu.shape
    if q == 0:
        return np.zeros((n, 0))
    sv = np.linalg.svd(nu, compute_uv=False)
    if sv[-1] <= RANK_TOL * sv[0] or sv[0] == 0.0:
        raise DegenerateCovectors(
            f"covector family of {q} rows is rank deficient")
    if tangent is not None:
        t = _as_columns(tangent)
        if t.shape[1] and np.max(np.abs(nu @ t)) > ANNIHILATE_TOL:
            raise ConormalMismatch("covectors do not annihilate the tangent frame")
    # min-norm solution of nu @ N = I_q
    return np.linalg.lstsq(nu, np.eye(q), rcond=None)[0]


def complete_to_ambient(tangent: FrameLike) -> np.ndarray:
    """Orthonormal columns spanning the orthogonal complement of a tangent frame."""
    t = _as_columns(tangent)
    n, k = t.shape
    if k == 0:
        return np.eye(n)
    u, sv, _ = np.linalg.svd(t, full_matrices=True)
    if sv[-1] <= RANK_TOL * sv[0]:
        raise RankDeficient("tangent frame is rank deficient")
    return u[:, k:]


@dataclass(frozen=True)
class DensityValue:
    """Value of an alpha-density against one frame.

    Transforms by |det B|^degree under frame change: if ``other = frame @ B``
    then the value against ``other`` is value * |det B|^degree.
    """

    value: complex
    degree: complex
    frame: Frame

    def in_frame(self, other: Frame) -> "DensityValue":
        b = change_of_basis(self.frame, other)
        return DensityValue(self.value * det_abs_pow(b, self.degree), self.degree, other)

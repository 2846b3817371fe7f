"""Ambient densities on R^n and their restriction to a core.

An ambient alpha-density is a coefficient field against the standard frame;
its value against any other frame e = (standard) @ B is coeff * |det B|^alpha.
Restriction to a k-dimensional core splits the value across a tangent frame
and a chosen transverse normal frame: the restricted value against (t, n) is
coeff(x) * |det [t | n]|^alpha.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import linalg
from .fields import ScalarField, as_field
from .geometry import Submanifold, frames_at
from .linalg import DensityValue, Frame
from .quadrature import as_box


@dataclass(frozen=True, eq=False)
class AmbientDensity:
    """A smooth complex alpha-density on the ambient space."""

    degree: complex
    coeff: ScalarField
    support: np.ndarray | None = None     # (n, 2) truncation hint, ambient coords
    resolution_hint: float | None = None  # finest length scale, guides the oracle

    @classmethod
    def make(cls, degree, coeff, support=None, resolution_hint=None,
             params: Mapping[str, float] | None = None) -> "AmbientDensity":
        return cls(complex(degree), as_field(coeff, "x", params),
                   None if support is None else as_box(support), resolution_hint)

    def coefficient_at(self, x) -> complex:
        return self.coeff(x)

    def value_in_frame(self, x, frame) -> complex:
        """Density value against an explicit ambient frame (columns)."""
        b = frame.columns if isinstance(frame, Frame) else np.asarray(frame, dtype=float)
        return self.coeff(x) * linalg.det_abs_pow(b, self.degree)


def restrict(phi: AmbientDensity, core: Submanifold, u, normal=None) -> DensityValue:
    """Restrict an ambient density to a core at chart coordinates u.

    The value refers to the pair (chart tangent frame at u, normal frame n);
    by default n is the minimum-norm dual of the core's conormal frame.
    Returns a DensityValue whose frame is the combined ambient frame [t | n],
    so the usual |det B|^alpha transformation rule applies to it directly.
    """
    sample = frames_at(core, u)
    t = sample.tangent.matrix
    if normal is None:
        nmat = linalg.dual_normal_frame(sample.conormal, t)
    else:
        nmat = normal.columns if isinstance(normal, Frame) else \
            np.asarray(normal, dtype=float)
        if nmat.ndim == 1:
            nmat = nmat[:, None]
    full = np.hstack([t, nmat])
    value = phi.coeff(sample.point) * linalg.det_abs_pow(full, phi.degree)
    return DensityValue(value, phi.degree, Frame(full, "tangent"))


"""Ambient densities on R^n and their restriction to a core.

An ambient alpha-density is a coefficient field against the standard frame;
its value against any other frame e = (standard) @ B is coeff * |det B|^alpha.
Restriction to a k-dimensional core is the pullback (Hormander, ALPDO I,
section 6.1): it splits the value across a tangent frame and a chosen
transverse normal frame, so the restricted value against (t, n) is
coeff(x) * |det [t | n]|^alpha.  ``restrict`` computes it on a whole batch of
chart coordinates at once; a pairing is a state coefficient times it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import linalg
from .fields import ScalarField, as_field
from .geometry import Submanifold, frames_many
from .quadrature import Grid, as_box


@dataclass(frozen=True, eq=False)
class AmbientDensity:
    """A smooth complex alpha-density on the ambient space."""

    degree: complex
    coeff: ScalarField
    support: np.ndarray | None = None     # (n, 2) truncation hint, ambient coords
    resolution_hint: float | np.ndarray | None = None  # panel width, or one per axis

    @classmethod
    def make(cls, degree, coeff, support=None, resolution_hint=None,
             params: Mapping[str, float] | None = None) -> "AmbientDensity":
        return cls(complex(degree), as_field(coeff, "x", params),
                   None if support is None else as_box(support), resolution_hint)


def restrict(phi: AmbientDensity, core: Submanifold, coords, conormal=None,
             solver=None) -> np.ndarray:
    """f(psi(u)) |det [t(u) | solver(nu(u), t(u))]|^degree at chart coordinates
    (N, k), values (N,), or on a quadrature Grid, values in its ``dims``.

    The rows nu are the core's own conormal rows, or ``conormal.rows_many`` of
    them; ``solver`` None means their minimum-norm dual normals, and an explicit
    normal frame n is the constant solver ``lambda nu, t: n``.  The frame factor
    runs once per distinct frame, and a real degree with a real coefficient
    gives float64 values.
    """
    points, tangents, rows = frames_many(core, coords)
    if conormal is not None:
        rows = conormal.rows_many(coords, rows)
    factors = linalg.frame_factors(tangents, rows, phi.degree, solver)
    dims = coords.dims if isinstance(coords, Grid) else (len(coords),)
    value = phi.coeff.eval_many(points) * factors.reshape(dims if len(factors) > 1 else ())
    return np.broadcast_to(value, dims)

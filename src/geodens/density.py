"""Ambient densities on R^n and their restriction to a core.

An ambient alpha-density is a coefficient field against the standard frame;
its value against any other frame e = (standard) @ B is coeff * |det B|^alpha.
Restriction to a k-dimensional core is the pullback (Hormander, ALPDO I,
section 6.1): it splits the value across a tangent frame and a chosen
transverse normal frame, so the restricted value against (t, n) is
coeff(x) * |det [t | n]|^alpha.  ``restrict`` returns it as a field of chart
coordinates, which a pairing multiplies by the state coefficient: on an affine core
an expression test is pulled back, f(x0 + T u) times the one frame factor, so its
factors read few axes; chart cores and callable tests evaluate it as one array.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import exprlang, linalg
from .exprlang import ZERO
from .fields import BatchField, ExprField, ScalarField, as_field
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


def restrict(phi: AmbientDensity, core: Submanifold, conormal=None,
             solver=None) -> ScalarField:
    """f(psi(u)) |det [t(u) | solver(nu(u), t(u))]|^degree as a field of chart coordinates.

    The rows nu are the core's own conormal rows, or ``conormal.rows_many`` of
    them; ``solver`` None means their minimum-norm dual normals, and an explicit
    normal frame n is the constant solver ``lambda nu, t: n``.  On an affine core
    with one frame, a test expression that names no chart coordinate pulls back: f with
    x -> x0 + T u, times the frame factor.  Else the field evaluates the formula on each
    batch, the frame factor once per distinct frame, in float64 where all is real.
    """
    def frame_factors(coords):
        points, tangents, rows = frames_many(core, coords)
        rows = rows if conormal is None else conormal.rows_many(coords, rows)
        return points, linalg.frame_factors(tangents, rows, phi.degree, solver)

    def values(coords):
        points, factors = frame_factors(coords)
        dims = coords.dims if isinstance(coords, Grid) else (len(coords),)
        value = phi.coeff.eval_many(points) * factors.reshape(dims if len(factors) > 1 else ())
        return np.broadcast_to(value, dims)

    f, us = phi.coeff, {f"u{j + 1}" for j in range(core.dim)}
    if core.is_affine and isinstance(f, ExprField) and not us & (
            f.params.keys() | exprlang.reads(f.re_expr) | exprlang.reads(f.im_expr or ZERO)):
        _, factors = frame_factors(np.zeros((2, core.dim)))  # one: frames and rows constant
        if len(factors) == 1:  # the parameters keep the names they bind
            x = {f"{f.prefix}{i + 1}": e for i, e in enumerate(exprlang.affine(
                core.form.base, core.form.tangent, "u")) if f"{f.prefix}{i + 1}" not in f.params}
            pulled = [None if e is None else exprlang.subst(e, x) for e in (f.re_expr, f.im_expr)]
            return ExprField(*pulled, "u", f.params).scaled(factors[0])
    return BatchField(values)

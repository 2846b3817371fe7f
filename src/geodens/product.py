"""Transverse products of geometric states and the partial inner product.

Two states of degrees alpha, beta on transversally intersecting cores C, D
multiply to a state of degree alpha + beta on E = C ∩ D.  At a point x of E
the coefficient is assembled from frames alone:

    1. tangent frames s of E, a of C, b of D; conormal rows nu_C, nu_D
    2. the pairing's frame factor F(t, nu, p) = |det [t | n]|^p, n the dual
       normals of (nu, t), for (a, nu_C), (b, nu_D) and the stacked
       family (s, [nu_C; nu_D]); a node with the previous node's inputs
       reuses its three factors
    3. coefficient g1(u_C) g2(u_D) F(a, nu_C, -alpha) F(b, nu_D, -beta)
       F(s, [nu_C; nu_D], alpha + beta)

against the convention (chart frame of E, concatenated (nu_C, nu_D)).  This
is g1 g2 |det M1|^alpha |det M2|^beta for the changes of basis
[s | n_E] = [a | n_C] M1 = [b | n_D] M2, since |det M1| is
|det [s | n_E]| / |det [a | n_C]|, and likewise for M2.  The
stacked conormal family losing rank is exactly failure of transversality.

When alpha + beta = 1 the conormal power of the product is trivial and the
coefficient integrates over E to a number: the partial inner product.  For
unit-coefficient lines at angle phi in the plane it returns 1/|sin phi|, for
the planes z=0, y=0 in R^3 with Gaussian coefficients it returns sqrt(pi/2).
"""
from __future__ import annotations

import numpy as np

from . import linalg, quadrature
from .errors import (
    AmbientMismatch,
    DegenerateCovectors,
    DimensionMismatch,
    TransversalityFailure,
)
from .fields import FuncField
from .geometry import Submanifold, _frames, core_coords, frames_many
from .quadrature import Grid, QuadratureOptions, intersect_boxes
from .states import (
    ConormalFamily,
    GeometricState,
    NormalSolver,
    PairingResult,
    _check_degree_sum,
)


def _check_dims(theta1: GeometricState, theta2: GeometricState,
                core_e: Submanifold) -> None:
    c, d = theta1.core, theta2.core
    n = c.ambient.dim
    if d.ambient.dim != n or core_e.ambient.dim != n:
        raise AmbientMismatch("cores live in different ambient spaces")
    expected = c.dim + d.dim - n
    if core_e.dim != expected:
        raise DimensionMismatch(
            f"intersection core has dimension {core_e.dim}, transversality "
            f"requires {expected}")


def _stacked(rows_c: np.ndarray, rows_d: np.ndarray) -> np.ndarray:
    # (m, q_C + q_D, n), m being 1 only when both factors' rows are constant
    m = max(len(rows_c), len(rows_d))
    return np.concatenate([np.repeat(r, m // len(r), axis=0) for r in (rows_c, rows_d)],
                          axis=1)


def product_at_point(theta1: GeometricState, theta2: GeometricState,
                     core_e: Submanifold, w,
                     dual_solver: NormalSolver | None = None) -> complex:
    """Coefficient of the transverse product at E-chart coordinates w.

    ``core_e`` keeps the last call's frames a, b, s, rows nu_C, nu_D, degrees,
    solver and frame factors; a call with the same read-only arrays or equal
    ones reuses the factors, as every node after the first does on flat cores.
    """
    w = np.asarray(w, dtype=float).reshape(1, core_e.dim)
    x, s, _ = frames_many(core_e, w)
    u_c, u_d = core_coords((theta1.core, theta2.core), x)
    t_c, own_c = _frames(theta1.core, u_c)
    t_d, own_d = _frames(theta2.core, u_d)
    nu_c, nu_d = theta1.conormal.rows_many(u_c, own_c), theta2.conormal.rows_many(u_d, own_d)
    arrays = (t_c, nu_c, t_d, nu_d, s)
    rest = (theta1.degree, theta2.degree, dual_solver)
    last = core_e._cache.get("product")
    if last is None or last[1] != rest or not all(
            a is b or np.array_equal(a, b) for a, b in zip(arrays, last[0])):
        f_c = linalg.frame_factors(t_c, nu_c, -theta1.degree, dual_solver)[0]
        f_d = linalg.frame_factors(t_d, nu_d, -theta2.degree, dual_solver)[0]
        try:
            f_e = linalg.frame_factors(s, _stacked(nu_c, nu_d),
                                       theta1.degree + theta2.degree, dual_solver)[0]
        except DegenerateCovectors as exc:
            raise TransversalityFailure(
                f"{theta1.core.name!r} and {theta2.core.name!r} are not "
                f"transverse at {x[0]}: stacked conormals lose rank") from exc
        # a writeable input is copied, so that changing it later cannot match
        kept = tuple(a if not a.flags.writeable else a.copy() for a in arrays)
        last = core_e._cache["product"] = (kept, rest, (f_c, f_d, f_e))
    f_c, f_d, f_e = last[2]
    return complex(theta1.coeff(u_c[0]) * theta2.coeff(u_d[0]) * f_c * f_d * f_e)


def product(theta1: GeometricState, theta2: GeometricState,
            core_e: Submanifold, support=None) -> GeometricState:
    """The product state on E, its coefficient evaluated on demand."""
    _check_dims(theta1, theta2, core_e)

    def stacked_rows(coords, own_rows):
        x = core_e.points_at(coords.points() if isinstance(coords, Grid) else coords)
        return _stacked(*(theta.conormal.rows_many(u) for theta, u in
                          zip((theta1, theta2), core_coords((theta1.core, theta2.core), x))))

    coeff = FuncField(lambda w: product_at_point(theta1, theta2, core_e, w))
    family = ConormalFamily(stacked_rows)
    return GeometricState(core_e, theta1.degree + theta2.degree, coeff,
                          family, None if support is None else quadrature.as_box(support))


def inner_product(theta1: GeometricState, theta2: GeometricState,
                  core_e: Submanifold, support=None,
                  options: QuadratureOptions | None = None,
                  dual_solver: NormalSolver | None = None) -> PairingResult:
    """Partial inner product: integrate the product coefficient over E.

    Needs theta1.degree + theta2.degree = 1 so that the product is a plain
    measure on E with a trivial conormal factor.  |value|^2 is the transition
    probability between half-density states.  With neither ``support`` nor
    a chart domain on E there is no box, and UnboundedDomain is raised.
    """
    _check_degree_sum(theta1.degree, theta2.degree, "partial inner product")
    _check_dims(theta1, theta2, core_e)
    if core_e.dim == 0:
        value = product_at_point(theta1, theta2, core_e, np.zeros(0), dual_solver)
        return PairingResult(value, 0.0)
    box = intersect_boxes(core_e.domain, support)
    if box is None:
        return PairingResult(0.0 + 0.0j, 0.0)

    # fail fast on a non-transverse configuration before spending quadrature
    product_at_point(theta1, theta2, core_e, box.mean(axis=1), dual_solver)

    def integrand(grid: Grid) -> np.ndarray:
        return np.array([product_at_point(theta1, theta2, core_e, w, dual_solver)
                         for w in grid.points()], dtype=complex)

    return PairingResult(*quadrature.integrate(integrand, box, options))

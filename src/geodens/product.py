"""Transverse products of geometric states and the partial inner product.

Two states of degrees alpha, beta on transversally intersecting cores C, D
multiply to a state of degree alpha + beta on E = C ∩ D.  At a point x of E
the coefficient is assembled from frames alone:

    1. tangent frames s of E, a of C, b of D; conormal rows nu_C, nu_D
    2. dual normals n_C of (nu_C, a), n_D of (nu_D, b), and n_E of the
       stacked family (nu_C; nu_D) along E
    3. full ambient frames w* = [s | n_E], w1 = [a | n_C], w2 = [b | n_D]
    4. change-of-basis matrices w* = w1 @ M1 = w2 @ M2
    5. coefficient g1(u_C) g2(u_D) |det M1|^alpha |det M2|^beta

against the convention (chart frame of E, concatenated (nu_C, nu_D)).  The
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
    DegenerateCovectors,
    DegreeMismatch,
    DimensionMismatch,
    NonCompactIntersection,
    NotOnBothCores,
    TransversalityFailure,
)
from .fields import FuncField
from .geometry import ON_CORE_TOL, Submanifold, chart_invert, frames_at
from .quadrature import QuadratureOptions, intersect_boxes
from .states import ConormalFamily, GeometricState, NormalSolver, PairingResult


def _check_dims(theta1: GeometricState, theta2: GeometricState,
                core_e: Submanifold) -> None:
    c, d = theta1.core, theta2.core
    n = c.ambient.dim
    if d.ambient.dim != n or core_e.ambient.dim != n:
        raise ValueError("cores live in different ambient spaces")
    expected = c.dim + d.dim - n
    if core_e.dim != expected:
        raise DimensionMismatch(
            f"intersection core has dimension {core_e.dim}, transversality "
            f"requires {expected}")


def _core_coords(core: Submanifold, x, picture: str):
    u, resid = chart_invert(core, x)
    if resid > ON_CORE_TOL:
        raise NotOnBothCores(
            f"point {x} is {resid:.3g} away from {picture} core {core.name!r}")
    return u


def product_at_point(theta1: GeometricState, theta2: GeometricState,
                     core_e: Submanifold, w,
                     dual_solver: NormalSolver | None = None) -> complex:
    """Coefficient of the transverse product at E-chart coordinates w."""
    solver = dual_solver or linalg.dual_normal_frame
    w = np.asarray(w, dtype=float).ravel()
    e_sample = frames_at(core_e, w)
    x, s = e_sample.point, e_sample.tangent.matrix

    u_c = _core_coords(theta1.core, x, "first")
    u_d = _core_coords(theta2.core, x, "second")
    a = theta1.core.jacobian_at(u_c)
    b = theta2.core.jacobian_at(u_d)
    nu_c = theta1.conormal.rows_at(u_c)
    nu_d = theta2.conormal.rows_at(u_d)

    n_c = solver(nu_c, a)
    n_d = solver(nu_d, b)
    stacked = np.vstack([nu_c, nu_d])
    try:
        n_e = solver(stacked, s)
    except DegenerateCovectors as exc:
        raise TransversalityFailure(
            f"{theta1.core.name!r} and {theta2.core.name!r} are not "
            f"transverse at {x}: stacked conormals lose rank") from exc

    w_star = np.hstack([s, n_e])
    w1 = np.hstack([a, n_c])
    w2 = np.hstack([b, n_d])
    m1 = linalg.change_of_basis(w1, w_star)
    m2 = linalg.change_of_basis(w2, w_star)
    return (theta1.coeff(u_c) * theta2.coeff(u_d)
            * linalg.det_abs_pow(m1, theta1.degree)
            * linalg.det_abs_pow(m2, theta2.degree))


def product(theta1: GeometricState, theta2: GeometricState,
            core_e: Submanifold, support=None) -> GeometricState:
    """The product state on E, its coefficient evaluated on demand."""
    _check_dims(theta1, theta2, core_e)

    def stacked_rows(w):
        x = core_e.point_at(w)
        return np.vstack([theta1.conormal.rows_at(_core_coords(theta1.core, x, "first")),
                          theta2.conormal.rows_at(_core_coords(theta2.core, x, "second"))])

    coeff = FuncField(lambda w: product_at_point(theta1, theta2, core_e, w))
    family = ConormalFamily(stacked_rows, provenance="concatenated")
    return GeometricState(core_e, theta1.degree + theta2.degree, coeff,
                          family, None if support is None else quadrature.as_box(support))


def inner_product(theta1: GeometricState, theta2: GeometricState,
                  core_e: Submanifold, support=None,
                  options: QuadratureOptions | None = None,
                  dual_solver: NormalSolver | None = None) -> PairingResult:
    """Partial inner product: integrate the product coefficient over E.

    Needs theta1.degree + theta2.degree = 1 so that the product is a plain
    measure on E with a trivial conormal factor.  |value|^2 is the transition
    probability between half-density states.
    """
    if abs(theta1.degree + theta2.degree - 1.0) > 1e-12:
        raise DegreeMismatch(
            f"partial inner product needs degrees summing to 1, got "
            f"{theta1.degree} + {theta2.degree}")
    _check_dims(theta1, theta2, core_e)
    opts = options or QuadratureOptions()

    if core_e.dim == 0:
        value = product_at_point(theta1, theta2, core_e, np.zeros(0), dual_solver)
        return PairingResult(value, 0.0)

    if core_e.domain is None and support is None:
        raise NonCompactIntersection(
            f"intersection core {core_e.name!r} has no bounded integration box")
    box = intersect_boxes(core_e.domain, support)
    if box is None:
        return PairingResult(0.0 + 0.0j, 0.0)

    # fail fast on a non-transverse configuration before spending quadrature
    product_at_point(theta1, theta2, core_e, box.mean(axis=1), dual_solver)

    def integrand(coords: np.ndarray) -> np.ndarray:
        return np.array([product_at_point(theta1, theta2, core_e, w, dual_solver)
                         for w in coords], dtype=complex)

    value, estimate = quadrature.integrate(integrand, box, opts)
    quadrature.ensure_converged(value, estimate, opts)
    return PairingResult(value, estimate)

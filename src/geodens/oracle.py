"""Mollification oracle: smooth tube densities that converge to a state.

This is the independent route used to cross-check the geometric calculus.
A state on an affine core is replaced by an honest smooth ambient density

    f_eps(x) = g_hat(v(x)) * prod_j delta_eps(nu_hat_j . (x - x0))

where v are orthonormalized tangent coordinates, nu_hat an orthonormal
conormal frame, and delta_eps the unit-mass Gaussian of width eps.  The
coefficient g_hat carries the frame conversion factors, so smooth pairings
of tubes converge (in exact arithmetic, often equal on the nose for flat
data) to the geometric pairings as eps -> 0.

Nothing here calls the geometric integration path: tube pairings run on a
composite panel rule sized by the tube width.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exprlang, linalg, quadrature
from .density import AmbientDensity
from .errors import (
    DegreeMismatch,
    InvalidEps,
    NonAffineCore,
    NonConvergent,
    UnboundedDomain,
)
from .exprlang import BinOp, Call, Neg, Num, Var
from .fields import ExprField
from .geometry import Submanifold
from .product import inner_product
from .quadrature import QuadratureOptions, intersect_boxes
from .states import GeometricState, PairingResult, pair_with_test

ORACLE_ORDER = 12
TRUNCATION_WIDTHS = 8.0  # keep 8 eps of every Gaussian tail
DEFAULT_EPS = (0.2, 0.1, 0.05)


@dataclass(frozen=True, eq=False)
class TubeDensity(AmbientDensity):
    """A smooth ambient density mollifying a specific state."""

    axis_hints: np.ndarray | None = None  # per-axis resolution, eps across the core


def _linear_expr(coeffs, origin) -> exprlang.Expr:
    terms = []
    for i, c in enumerate(coeffs):
        c = float(c)
        if c == 0.0:
            continue
        base: exprlang.Expr = Var(f"x{i + 1}")
        if float(origin[i]) != 0.0:
            base = BinOp("-", base, Num(float(origin[i])))
        terms.append(base if c == 1.0 else BinOp("*", Num(c), base))
    if not terms:
        return Num(0.0)
    out = terms[0]
    for t in terms[1:]:
        out = BinOp("+", out, t)
    return out


def _gaussian_expr(arg: exprlang.Expr, eps: float) -> exprlang.Expr:
    c0 = 1.0 / math.sqrt(2.0 * math.pi * eps * eps)
    inv = 1.0 / (2.0 * eps * eps)
    return BinOp("*", Num(c0),
                 Call("exp", Neg(BinOp("*", Num(inv), BinOp("^", arg, Num(2.0))))))


def _times_expr(field: ExprField, factor: exprlang.Expr) -> ExprField:
    re = BinOp("*", field.re_expr, factor)
    im = None if field.im_expr is None else BinOp("*", field.im_expr, factor)
    return ExprField(re, im, field.prefix, field.params)


def mollify(state: GeometricState, eps: float) -> TubeDensity:
    """Gaussian tube of width eps around an affine core, as a real density.

    Requires an affine core, an expression-backed coefficient, and a bounded
    state support (the truncation box widens it by 8 eps in every normal
    direction).  The tube has the same degree as the state.
    """
    core = state.core
    if not core.is_affine:
        raise NonAffineCore(
            f"mollification needs an affine core, {core.name!r} is a chart")
    if not isinstance(state.coeff, ExprField):
        raise ValueError("mollification needs an expression-backed coefficient")
    if eps <= 0.0:
        raise InvalidEps("tube width must be positive")
    if core.dim and state.support is None:
        raise UnboundedDomain("mollification needs a bounded state support")

    n, k = core.ambient.dim, core.dim
    x0, t = core.form.base, core.form.tangent
    if k:
        q_mat, r_mat = np.linalg.qr(t)
        proj = np.linalg.pinv(t)  # u(x) = proj @ (x - x0) for points near the core
        tangent_factor = linalg.det_abs_pow(np.linalg.inv(r_mat), state.degree)
    else:
        q_mat = np.zeros((n, 0))
        proj = np.zeros((0, n))
        tangent_factor = 1.0 + 0.0j
    nu_hat = linalg.complete_to_ambient(q_mat if k else np.zeros((n, 0))).T
    nu_decl = state.conormal.rows_at(np.zeros(k))
    if nu_hat.shape[0]:
        # nu_hat = b_nu @ nu_decl; SpanMismatch if the declared family is not conormal
        b_nu = linalg.change_of_basis(nu_decl.T, nu_hat.T).T
        conormal_factor = linalg.det_abs_pow(b_nu, 1.0 - state.degree)
    else:
        conormal_factor = 1.0 + 0.0j

    coord_exprs = {f"u{i + 1}": _linear_expr(proj[i], x0) for i in range(k)}
    field = ExprField(
        exprlang.subst(state.coeff.re_expr, coord_exprs),
        None if state.coeff.im_expr is None
        else exprlang.subst(state.coeff.im_expr, coord_exprs),
        "x", state.coeff.params).scaled(tangent_factor * conormal_factor)
    for j in range(nu_hat.shape[0]):
        field = _times_expr(field, _gaussian_expr(_linear_expr(nu_hat[j], x0), eps))

    support = _tube_box(core, state.support, nu_hat, eps)
    # only axes the conormal frame actually crosses are sharp at scale eps
    crossed = np.sum(np.abs(nu_hat), axis=0) > 1e-9 if nu_hat.size else np.zeros(n, bool)
    axis_hints = np.where(crossed, eps, 1.0)
    return TubeDensity(state.degree, field, support, eps, axis_hints)


def _tube_box(core: Submanifold, chart_box, nu_hat: np.ndarray, eps: float) -> np.ndarray:
    n, k = core.ambient.dim, core.dim
    x0, t = core.form.base, core.form.tangent
    if k:
        corners = np.array([[box_row[i] for box_row, i in zip(chart_box, bits)]
                            for bits in np.ndindex(*(2,) * k)])
        images = x0 + corners @ t.T
    else:
        images = x0[None, :]
    margin = TRUNCATION_WIDTHS * eps * np.sum(np.abs(nu_hat), axis=0) if nu_hat.size \
        else np.zeros(n)
    return np.stack([images.min(axis=0) - margin, images.max(axis=0) + margin], axis=1)


def smooth_pair(phi1: AmbientDensity, phi2: AmbientDensity,
                box=None, order: int = ORACLE_ORDER) -> complex:
    """Integral of the coefficient product of two complementary densities.

    The integration box defaults to the intersection of the support hints;
    panels follow the finest resolution hint so Gaussian tubes are resolved.
    """
    if abs(phi1.degree + phi2.degree - 1.0) > 1e-12:
        raise DegreeMismatch(
            f"smooth pairing needs degrees summing to 1, got "
            f"{phi1.degree} + {phi2.degree}")
    if box is None:
        if phi1.support is None and phi2.support is None:
            raise UnboundedDomain("smooth pairing has no bounded box")
        box = intersect_boxes(phi1.support, phi2.support)
        if box is None:
            return 0.0 + 0.0j
    box = quadrature.as_box(box)
    panel = np.minimum(_axis_panels(phi1, box), _axis_panels(phi2, box))
    points, weights = quadrature.composite_rule(box, panel, order)
    return quadrature.weighted_sum(
        lambda p: phi1.coeff.eval_many(p) * phi2.coeff.eval_many(p),
        points, weights)


def _axis_panels(phi: AmbientDensity, box: np.ndarray) -> np.ndarray:
    hints = getattr(phi, "axis_hints", None)
    if hints is not None:
        return np.asarray(hints, dtype=float)
    scale = phi.resolution_hint if phi.resolution_hint else 1.0
    return np.full(box.shape[0], scale)


def integrate_coefficient(phi: AmbientDensity, box=None,
                          order: int = ORACLE_ORDER) -> complex:
    """Plain integral of a density coefficient, for mass checks."""
    if box is None:
        if phi.support is None:
            raise UnboundedDomain("no bounded box to integrate over")
        box = phi.support
    box = quadrature.as_box(box)
    points, weights = quadrature.composite_rule(box, _axis_panels(phi, box), order)
    return quadrature.weighted_sum(lambda p: phi.coeff.eval_many(p), points, weights)


@dataclass(frozen=True)
class ConvergenceReport:
    geometric: complex
    eps: tuple[float, ...]
    oracle: tuple[complex, ...]
    errors: tuple[float, ...]
    rel_errors: tuple[float, ...]
    empirical_orders: tuple[float | None, ...]
    floor: float
    final_rel_error: float


def _check_eps(eps_list) -> tuple[float, ...]:
    eps = tuple(float(e) for e in eps_list)
    if len(eps) < 2:
        raise InvalidEps(f"an eps sweep needs at least two values, got {list(eps)}")
    if not all(0.0 < e < math.inf for e in eps):
        raise InvalidEps(f"eps values must be positive and finite, got {list(eps)}")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise InvalidEps(f"eps list must be strictly decreasing, got {list(eps)}")
    return eps


def converge_check(geometric: complex, eps_list, oracle_values,
                   final_rel_tol: float = 1e-2, floor_rel: float = 1e-8,
                   floor_abs: float = 1e-14) -> ConvergenceReport:
    """Assert oracle values approach the geometric value as eps decreases.

    Errors at or below the noise floor count as converged (flat cases are
    exact for every eps, leaving only quadrature noise); above the floor
    each error must strictly decrease.  The last error must also be within
    ``final_rel_tol`` relatively.  Raises NonConvergent otherwise.
    """
    eps = _check_eps(eps_list)
    vals = tuple(complex(v) for v in oracle_values)
    if len(eps) != len(vals):
        raise ValueError("need one oracle value per eps value")
    scale = abs(geometric)
    floor = floor_rel * scale + floor_abs
    errors = tuple(abs(v - geometric) for v in vals)
    rel = tuple(e / scale if scale else math.inf for e in errors)
    for i in range(len(errors) - 1):
        if errors[i + 1] > floor and errors[i + 1] >= errors[i]:
            raise NonConvergent(
                f"oracle error grew from {errors[i]:.3g} (eps={eps[i]}) to "
                f"{errors[i + 1]:.3g} (eps={eps[i + 1]})")
    final_rel = errors[-1] / scale if scale else (0.0 if errors[-1] <= floor else math.inf)
    if errors[-1] > floor and final_rel > final_rel_tol:
        raise NonConvergent(
            f"final oracle error {errors[-1]:.3g} is {final_rel:.3g} of the "
            f"geometric value, tolerance {final_rel_tol:.3g}")
    orders = []
    for i in range(len(errors) - 1):
        if errors[i] > floor and errors[i + 1] > floor:
            orders.append(math.log(errors[i] / errors[i + 1]) / math.log(eps[i] / eps[i + 1]))
        else:
            orders.append(None)
    return ConvergenceReport(geometric, eps, vals, errors, rel, tuple(orders),
                             floor, final_rel)


def compare_pairing(state: GeometricState, test: AmbientDensity,
                    eps_list=DEFAULT_EPS, options: QuadratureOptions | None = None,
                    final_rel_tol: float = 1e-2) -> ConvergenceReport:
    """Geometric pairing vs mollified pairings across an eps sweep."""
    _check_eps(eps_list)
    geometric = pair_with_test(state, test, options=options).value
    oracle_values = [smooth_pair(mollify(state, e), test) for e in eps_list]
    return converge_check(geometric, eps_list, oracle_values, final_rel_tol)


def compare_inner(state1: GeometricState, state2: GeometricState,
                  core_e: Submanifold, eps_list=DEFAULT_EPS, support=None,
                  options: QuadratureOptions | None = None,
                  final_rel_tol: float = 1e-2) -> ConvergenceReport:
    """Geometric partial inner product vs mollified tube pairings."""
    _check_eps(eps_list)
    geometric = inner_product(state1, state2, core_e, support=support,
                              options=options).value
    oracle_values = [smooth_pair(mollify(state1, e), mollify(state2, e))
                     for e in eps_list]
    return converge_check(geometric, eps_list, oracle_values, final_rel_tol)

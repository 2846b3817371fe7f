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
composite panel rule sized by the tube width, and reach it as the factors of
each coefficient, contracted one axis at a time and never multiplied out; a
pairing whose products along the first axis fit ``EVAL_CHUNK`` evaluates each
factor once.  An eps sweep builds one tube per state, whose Gaussians read
1/sqrt(2 pi eps^2) and 1/(2 eps^2) as parameters, and binds them once per eps.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import exprlang, linalg, quadrature
from .density import AmbientDensity
from .errors import (InvalidEps, NonAffineCore, NonConvergent, NonExpressionCoefficient,
                     UnboundedDomain)
from .exprlang import ZERO, BinOp, Call, Neg, Num, Var, mul
from .fields import ExprField
from .geometry import Submanifold
from .product import inner_product
from .quadrature import QuadratureOptions, intersect_boxes
from .states import GeometricState, _check_degree_sum, pair_with_test

ORACLE_ORDER = 12
TRUNCATION_WIDTHS = 8.0  # keep 8 eps of every Gaussian tail
# Panels are 2 tube widths wide: along axis i a tube Gaussian has deviation
# eps / |nu_hat[:, i]|, and smooth_pair takes the smaller width of two densities,
# so a panel spans at most 2 sqrt(2) < 3 deviations of a product of two tubes.
# The order-12 rule is at round-off up to 3 deviations (oracle values on 2 and
# 3 eps panels match eps panels to 4.5e-16) and loses digits at 4 (1.9e-12).
PANEL_WIDTHS = 2.0
DEFAULT_EPS = (0.2, 0.1, 0.05)
FINAL_REL_TOL = 1e-2  # converge_check: largest relative error of the last oracle value
FLOOR_REL = 1e-8      # and its noise floor, FLOOR_REL |geometric| + FLOOR_ABS
FLOOR_ABS = 1e-14


def _gaussian_expr(arg: exprlang.Expr, peak: str, rate: str) -> exprlang.Expr:
    # peak * exp(-(rate * arg^2)), with peak = 1/sqrt(2 pi eps^2) and rate = 1/(2 eps^2)
    return mul(Var(peak), Call("exp", Neg(mul(Var(rate), BinOp("^", arg, Num(2.0))))))


def _unread(field: ExprField, *names: str) -> list[str]:
    # parameter names the field neither reads nor binds, so no tube constant captures one
    taken = field.params.keys() | exprlang.reads(field.re_expr)
    taken |= exprlang.reads(field.im_expr or ZERO)
    out = []
    for name in names:
        while name in taken:
            name += "_"
        out.append(name)
    return out


def mollify(state: GeometricState, eps: float) -> AmbientDensity:
    """Gaussian tube of width eps around an affine core, as a real density.

    Requires an affine core, an expression-backed coefficient, a finite
    positive eps, and a bounded state support (the truncation box widens it
    by 8 eps in every normal direction).  The tube has the state's degree and
    a resolution hint of PANEL_WIDTHS tube widths, at most 1, on each axis.
    """
    (tube,) = _tubes(state, [eps])
    return tube


def _tubes(state: GeometricState, eps_list) -> list[AmbientDensity]:
    """``mollify(state, eps)`` for each eps, from one tube per state: the coordinate
    substitution, frame factors, conormal check and Gaussians are built once, with the
    two eps constants as parameters, so the factor groups split and compile once."""
    core = state.core
    if not core.is_affine:
        raise NonAffineCore(
            f"mollification needs an affine core, {core.name!r} is a chart")
    if not isinstance(state.coeff, ExprField):
        raise NonExpressionCoefficient("mollification needs an expression-backed coefficient")
    for eps in eps_list:
        if not (0.0 < eps < math.inf and eps * eps > 0.0):  # the tube's rate divides by eps^2
            raise InvalidEps(f"tube width and its square must be positive and finite, got {eps}")
    if core.dim and state.support is None:
        raise UnboundedDomain("mollification needs a bounded state support")

    k = core.dim
    x0, t = core.form.base, core.form.tangent
    # t is (n, 0) on a point core, nu_hat (0, n) on a full-space one; empty frames give 1
    q_mat, r_mat = np.linalg.qr(t)
    proj = np.linalg.pinv(t)  # u(x) = proj @ (x - x0) for points near the core
    tangent_factor = linalg.det_abs_pow(np.linalg.inv(r_mat), state.degree)
    nu_hat = linalg.complete_to_ambient(q_mat).T
    # nu_hat = b_nu @ nu_decl; SpanMismatch if the declared family is not conormal
    b_nu = linalg.change_of_basis(state.conormal.rows_at(np.zeros(k)).T, nu_hat.T).T
    conormal_factor = linalg.det_abs_pow(b_nu, 1.0 - state.degree)

    coeff = state.coeff
    peak, rate = _unread(coeff, "tube_peak", "tube_rate")
    # u = proj @ (x - x0) and the tubes' nu_hat @ (x - x0), as b + A x
    coord_exprs = dict(zip([f"u{i + 1}" for i in range(k)],
                           exprlang.affine(-proj @ x0, proj, "x")))
    field = ExprField(
        exprlang.subst(coeff.re_expr, coord_exprs),
        None if coeff.im_expr is None else exprlang.subst(coeff.im_expr, coord_exprs),
        "x", coeff.params | dict.fromkeys((peak, rate), math.nan),
    ).scaled(tangent_factor * conormal_factor)
    for arg in exprlang.affine(-nu_hat @ x0, nu_hat, "x"):
        tube = _gaussian_expr(arg, peak, rate)
        field = ExprField(mul(field.re_expr, tube),
                          None if field.im_expr is None else mul(field.im_expr, tube),
                          "x", field.params)

    # the box is the support's image widened by 8 tube widths across the core; the
    # tube is eps / reach wide along each axis, and one it does not cross gets 1
    corners = np.array(list(itertools.product(*state.support))) if k else np.zeros((1, 0))
    images = x0 + corners @ t.T
    lo, hi = images.min(axis=0), images.max(axis=0)
    across, reach = np.sum(np.abs(nu_hat), axis=0), np.linalg.norm(nu_hat, axis=0)
    out = []
    for eps in eps_list:
        constants = {peak: 1.0 / math.sqrt(2.0 * math.pi * eps * eps),
                     rate: 1.0 / (2.0 * eps * eps)}
        margin = TRUNCATION_WIDTHS * eps * across
        box = np.stack([lo - margin, hi + margin], axis=1)
        hint = np.where(reach > 1e-9, PANEL_WIDTHS * eps / np.maximum(reach, 1e-9), 1.0)
        out.append(AmbientDensity(state.degree, field.with_params(constants), box,
                                  np.minimum(hint, 1.0)))
    return out


def smooth_pair(phi1: AmbientDensity, phi2: AmbientDensity) -> complex:
    """Integral of the coefficient product of two complementary densities.

    The integration box is the intersection of the support hints; panels
    follow the finest resolution hint so Gaussian tubes are resolved.  The
    coefficients' factors go to ``weighted_sum`` with the axes each reads.
    """
    _check_degree_sum(phi1.degree, phi2.degree, "smooth pairing")
    box = intersect_boxes(phi1.support, phi2.support)
    if box is None:
        return 0.0 + 0.0j
    panel = np.minimum(_axis_panels(phi1, box), _axis_panels(phi2, box))
    grid, weights = quadrature.composite_rule(box, panel, ORACLE_ORDER)
    return quadrature.weighted_sum(
        lambda g: phi1.coeff.factors(g) + phi2.coeff.factors(g), grid, weights,
        phi1.coeff.factor_axes(grid) + phi2.coeff.factor_axes(grid))


def _axis_panels(phi: AmbientDensity, box: np.ndarray) -> np.ndarray:
    hint = 1.0 if phi.resolution_hint is None else phi.resolution_hint
    return np.broadcast_to(np.asarray(hint, dtype=float), box.shape[:1])


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


def converge_check(geometric: complex, eps_list, oracle_values) -> ConvergenceReport:
    """Assert oracle values approach the geometric value as eps decreases.

    Errors at or below the noise floor FLOOR_REL |geometric| + FLOOR_ABS count
    as converged (flat cases are exact for every eps, leaving only quadrature
    noise); above the floor each error must strictly decrease.  The last
    error must also be within FINAL_REL_TOL relatively, and every value must
    be finite: a NaN or an inf fails whichever one comes out.  Raises
    NonConvergent otherwise.
    """
    eps = _check_eps(eps_list)
    vals = tuple(complex(v) for v in oracle_values)
    if len(eps) != len(vals):
        raise InvalidEps(f"need one oracle value per eps value, got {len(eps)} eps "
                         f"and {len(vals)} values")
    if not cmath.isfinite(geometric):
        raise NonConvergent("the geometric value is not finite")
    bad = [f"eps={e}" for e, v in zip(eps, vals) if not cmath.isfinite(v)]
    if bad:
        raise NonConvergent(f"oracle value not finite at {', '.join(bad)}")
    scale = abs(geometric)
    floor = FLOOR_REL * scale + FLOOR_ABS
    errors = tuple(abs(v - geometric) for v in vals)
    rel = tuple(e / scale if scale else math.inf for e in errors)
    for i in range(len(errors) - 1):
        if errors[i + 1] > floor and errors[i + 1] >= errors[i]:
            raise NonConvergent(
                f"oracle error grew from {errors[i]:.3g} (eps={eps[i]}) to "
                f"{errors[i + 1]:.3g} (eps={eps[i + 1]})")
    final_rel = errors[-1] / scale if scale else (0.0 if errors[-1] <= floor else math.inf)
    if errors[-1] > floor and final_rel > FINAL_REL_TOL:
        raise NonConvergent(
            f"final oracle error {errors[-1]:.3g} is {final_rel:.3g} of the "
            f"geometric value, tolerance {FINAL_REL_TOL:.3g}")
    orders = []
    for i in range(len(errors) - 1):
        if errors[i] > floor and errors[i + 1] > floor:
            orders.append(math.log(errors[i] / errors[i + 1]) / math.log(eps[i] / eps[i + 1]))
        else:
            orders.append(None)
    return ConvergenceReport(geometric, eps, vals, errors, rel, tuple(orders),
                             floor, final_rel)


def compare_pairing(state: GeometricState, test: AmbientDensity,
                    eps_list=DEFAULT_EPS,
                    options: QuadratureOptions | None = None) -> ConvergenceReport:
    """Geometric pairing vs mollified pairings across an eps sweep."""
    _check_eps(eps_list)
    geometric = pair_with_test(state, test, options=options).value
    oracle_values = [smooth_pair(tube, test) for tube in _tubes(state, eps_list)]
    return converge_check(geometric, eps_list, oracle_values)


def compare_inner(state1: GeometricState, state2: GeometricState,
                  core_e: Submanifold, eps_list=DEFAULT_EPS, support=None,
                  options: QuadratureOptions | None = None) -> ConvergenceReport:
    """Geometric partial inner product vs mollified tube pairings."""
    _check_eps(eps_list)
    geometric = inner_product(state1, state2, core_e, support=support,
                              options=options).value
    oracle_values = [smooth_pair(tube1, tube2) for tube1, tube2
                     in zip(_tubes(state1, eps_list), _tubes(state2, eps_list))]
    return converge_check(geometric, eps_list, oracle_values)

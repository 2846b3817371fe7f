"""Geometric states: distributional alpha-densities concentrated on a core.

A state of degree alpha on a k-core C of R^n is a coefficient over C's chart
together with a declared conormal frame family: the data of an alpha-density
along C tensored with a (1-alpha)-density on the conormal bundle.  Pairing a
state of degree alpha with an ambient test density of degree 1-alpha
integrates the restricted test density against the state over the core:

    <theta, phi> = integral over C of  g(u) f(psi(u)) |det [t(u) | n(u)]|^(1-alpha) du

with n(u) the dual frame of the state's conormal family, so the result does
not depend on any of the frame choices.  The integrand is the coefficient's
factors and those of the restricted test (``restrict``), contracted one axis at a
time: on an affine core the test is pulled back along x0 + T u and splits by axis.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import exprlang, linalg, quadrature
from .errors import ConormalShapeMismatch, DegreeMismatch
from .fields import ExprField, FuncField, ScalarField, as_field
from .density import AmbientDensity, restrict
from .geometry import Submanifold, _own, frames_many
from .quadrature import QuadratureOptions, as_box, intersect_boxes

NormalSolver = Callable[[np.ndarray, np.ndarray], np.ndarray]


class ConormalFamily:
    """A frame family of q conormal covectors along a core, as one batched callable.

    ``rows_many(coords, own_rows)`` takes chart coordinates (N, k) or a Grid, and
    the core's own conormal rows there, and returns the family's covector rows
    (m, q, n): m is 1 when the rows are the same at every node and N otherwise.
    The core's own family samples its rows when the caller has none.
    ``rows_at(u)`` is the one-point case.
    """

    def __init__(self, fn: Callable[[np.ndarray, np.ndarray | None], np.ndarray]):
        self._fn = fn

    @classmethod
    def from_core(cls, core: Submanifold) -> "ConormalFamily":
        return cls(lambda coords, own_rows:
                   frames_many(core, coords)[2] if own_rows is None else own_rows)

    @classmethod
    def from_rows(cls, rows) -> "ConormalFamily":
        rows = np.atleast_2d(_own(rows))[None]
        return cls(lambda coords, own_rows: rows)

    def rows_many(self, coords, own_rows=None) -> np.ndarray:
        return self._fn(coords, own_rows)

    def rows_at(self, u) -> np.ndarray:
        return self.rows_many(np.asarray(u, dtype=float).reshape(1, -1))[0]

    def recombined(self, b) -> "ConormalFamily":
        b = _own(b)
        return ConormalFamily(lambda coords, own_rows: b @ self._fn(coords, own_rows))


@dataclass(frozen=True, eq=False)
class GeometricState:
    """A distributional alpha-density with core C."""

    core: Submanifold
    degree: complex
    coeff: ScalarField                 # chart coordinates u1..uk
    conormal: ConormalFamily
    support: np.ndarray | None = None  # (k, 2) chart box


def make_state(core: Submanifold, degree, coeff, conormal=None,
               support=None) -> GeometricState:
    """Build a geometric state; strings parse as chart-coordinate expressions, and
    ``conormal`` gives constant covector rows (n - k, n), or None for the core's."""
    n, q = core.ambient.dim, core.ambient.dim - core.dim
    rows = None if conormal is None else np.atleast_2d(np.asarray(conormal, dtype=float))
    if rows is not None and rows.shape != (q, n):
        raise ConormalShapeMismatch(f"conormal needs {q} row(s) of {n} numbers for core "
                                    f"{core.name!r}, got shape {rows.shape}")
    family = ConormalFamily.from_core(core) if rows is None else ConormalFamily.from_rows(rows)
    return GeometricState(core, complex(degree), as_field(coeff, "u", core.params),
                          family, None if support is None else as_box(support))


def zero_section_state(core: Submanifold, h, support=None) -> GeometricState:
    """The canonical half-density state of a function on the conormal bundle.

    ``h`` may reference chart coordinates u1..uk and fiber coordinates
    xi1..xiq; the state's coefficient is the fiberwise value at the zero
    section, h(u, 0).
    """
    expr = exprlang.parse(h) if isinstance(h, str) else h
    q = core.ambient.dim - core.dim
    at_zero = exprlang.subst(expr, {f"xi{j + 1}": exprlang.Num(0.0) for j in range(q)})
    return make_state(core, 0.5, ExprField(at_zero, prefix="u", params=core.params),
                      support=support)


def recombine_conormal(state: GeometricState, b) -> GeometricState:
    """Re-express the same abstract state against conormal frame b @ nu.

    The coefficient picks up |det b|^(1 - alpha) so every pairing is unchanged.
    """
    b = np.asarray(b, dtype=float)
    factor = linalg.det_abs_pow(b, 1.0 - state.degree)
    if isinstance(state.coeff, ExprField):
        coeff = state.coeff.scaled(factor)
    else:
        old = state.coeff
        coeff = FuncField(lambda u: old(u) * factor)
    return GeometricState(state.core, state.degree, coeff,
                          state.conormal.recombined(b), state.support)


def _check_degree_sum(a: complex, b: complex, where: str) -> None:
    """The rule of every pairing: degrees alpha and 1 - alpha, to within 1e-12."""
    if abs(a + b - 1.0) > 1e-12:
        raise DegreeMismatch(f"{where}: degrees must sum to 1, got {a} and {b}")


@dataclass(frozen=True)
class PairingResult:
    value: complex
    error_estimate: float


def pair_with_test(state: GeometricState, phi: AmbientDensity,
                   options: QuadratureOptions | None = None,
                   normal_solver: NormalSolver | None = None) -> PairingResult:
    """Distributional pairing of a state with a complementary test density.

    Degrees must satisfy state.degree + phi.degree = 1.  The integration box
    is the chart domain intersected with the state's support (``intersect_boxes``
    raises UnboundedDomain when both are unbounded).  ``normal_solver``
    overrides the dual-frame choice (nu_rows, tangent_columns) ->
    normal_columns; the invariance of the pairing under that choice is a
    theorem, the hook exists to test it.
    """
    _check_degree_sum(state.degree, phi.degree, "pairing")
    box = intersect_boxes(state.core.domain, state.support) if state.core.dim else None
    if state.core.dim and box is None:
        return PairingResult(0.0 + 0.0j, 0.0)
    coeff, test = state.coeff, restrict(phi, state.core, state.conormal, normal_solver)
    if not state.core.dim:
        grid = quadrature.Grid([])
        return PairingResult(complex(coeff.eval_many(grid) * test.eval_many(grid)), 0.0)
    return PairingResult(*quadrature.integrate(
        lambda g: coeff.factors(g) + test.factors(g), box, options))

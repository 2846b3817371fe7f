"""Embedded cores of R^n: affine and chart forms, frame fields, intersections.

A core is a k-dimensional embedded submanifold presented either affinely
(base point plus tangent matrix) or by a chart (k coordinate expressions on a
bounded box).  An optional implicit form (n - k expressions cutting out the
core) rides along and supplies conormal frames and curved intersections.
Everything is desk scale: 1 <= n <= 10, dense linear algebra, grid seeding.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import exprlang, linalg
from .errors import (
    ChartInversionFailure,
    ConormalMismatch,
    DegenerateCovectors,
    ImmersionFailure,
    MissingImplicitForm,
    NoIntersectionFound,
    NotOnBothCores,
    UserChartRequired,
)
from .exprlang import Expr
from .linalg import Frame

IMMERSION_TOL = 1e-8       # relative singular value cutoff for chart jacobians
ON_CORE_TOL = 1e-8         # "the point lies on the core"
INTERSECT_RESIDUAL = 1e-10
SEEDS_PER_AXIS = 20
SEED_CAP = 10_000
MAX_NEWTON_STEPS = 50
DEDUP_TOL = 1e-6


@dataclass(frozen=True)
class Ambient:
    """The ambient Euclidean space R^n."""

    dim: int

    def __post_init__(self):
        if not 1 <= self.dim <= 10:
            raise ValueError(f"ambient dimension must be in 1..10, got {self.dim}")


@dataclass(frozen=True, eq=False)
class AffineForm:
    base: np.ndarray     # (n,)
    tangent: np.ndarray  # (n, k) columns

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        object.__setattr__(self, "tangent", np.asarray(self.tangent, dtype=float))


@dataclass(frozen=True, eq=False)
class ChartForm:
    exprs: tuple[Expr, ...]  # n component expressions in u1..uk
    domain: np.ndarray       # (k, 2) bounded box

    def __post_init__(self):
        object.__setattr__(self, "domain", np.asarray(self.domain, dtype=float))


def _grid(box: np.ndarray, per_axis: int, cap: int = SEED_CAP) -> np.ndarray:
    k = box.shape[0]
    if k == 0:
        return np.zeros((1, 0))
    while per_axis > 2 and per_axis ** k > cap:
        per_axis -= 1
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    return np.array(list(itertools.product(*axes)))


@dataclass(frozen=True, eq=False)
class Submanifold:
    """A named embedded core of R^n."""

    name: str
    ambient: Ambient
    dim: int
    form: AffineForm | ChartForm
    implicit: tuple[Expr, ...] | None = None
    params: Mapping[str, float] = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)

    # construction

    @classmethod
    def affine(cls, name: str, base, tangent, implicit=None,
               params: Mapping[str, float] | None = None) -> "Submanifold":
        base = np.asarray(base, dtype=float)
        tangent = np.asarray(tangent, dtype=float)
        if tangent.ndim == 1:
            tangent = tangent[:, None]
        if tangent.size == 0:
            tangent = tangent.reshape(base.shape[0], 0)
        return cls(name, Ambient(base.shape[0]), tangent.shape[1],
                   AffineForm(base, tangent), _coerce_exprs(implicit),
                   dict(params or {}))

    @classmethod
    def point(cls, name: str, location) -> "Submanifold":
        location = np.asarray(location, dtype=float)
        return cls.affine(name, location, np.zeros((location.shape[0], 0)))

    @classmethod
    def chart(cls, name: str, exprs: Sequence, domain, implicit=None,
              params: Mapping[str, float] | None = None) -> "Submanifold":
        comp = _coerce_exprs(exprs)
        dom = np.asarray(domain, dtype=float)
        if dom.ndim == 1:
            dom = dom[None, :]
        return cls(name, Ambient(len(comp)), dom.shape[0],
                   ChartForm(comp, dom), _coerce_exprs(implicit),
                   dict(params or {}))

    def __post_init__(self):
        n, k = self.ambient.dim, self.dim
        if not 0 <= k <= n:
            raise ValueError(f"core dimension {k} out of range for R^{n}")
        if isinstance(self.form, AffineForm):
            if self.form.base.shape != (n,) or self.form.tangent.shape != (n, k):
                raise ValueError("affine form shapes do not match ambient/dim")
            if k:
                Frame.tangent(self.form.tangent.T)  # raises RankDeficient
        else:
            if len(self.form.exprs) != n:
                raise ValueError(
                    f"chart must have {n} component expressions, got {len(self.form.exprs)}")
            if self.form.domain.shape != (k, 2):
                raise ValueError("chart domain must be a (k, 2) box")
            if not np.all(np.isfinite(self.form.domain)):
                raise ValueError("chart domain must be bounded")
            if np.any(self.form.domain[:, 0] > self.form.domain[:, 1]):
                raise ValueError("chart domain has lo > hi")
            self._validate_immersion()
        if self.implicit is not None:
            self._validate_implicit()

    def _validate_immersion(self):
        for u in _grid(self.form.domain, 5):
            jac = self.jacobian_at(u)
            sv = np.linalg.svd(jac, compute_uv=False)
            if self.dim and (sv.size < self.dim or sv[self.dim - 1] <= IMMERSION_TOL * sv[0]):
                raise ImmersionFailure(
                    f"chart jacobian of {self.name!r} loses rank at u = {u}")

    def _validate_implicit(self):
        n, k = self.ambient.dim, self.dim
        if len(self.implicit) != n - k:
            raise ValueError(
                f"implicit form needs {n - k} components, got {len(self.implicit)}")
        for u in self._sample_coords(3):
            x = self.point_at(u)
            vals = [exprlang.evaluate(e, self._x_bindings(x)) for e in self.implicit]
            if np.max(np.abs(vals)) > ON_CORE_TOL * max(1.0, float(np.max(np.abs(x)))):
                raise ValueError(
                    f"implicit form of {self.name!r} does not vanish on the core "
                    f"(|F| = {np.max(np.abs(vals)):.3g} at u = {u})")
            rows = exprlang.jacobian(self.implicit, x, self.params, prefix="x")
            sv = np.linalg.svd(rows, compute_uv=False)
            if n - k and (sv.size < n - k or sv[n - k - 1] <= linalg.RANK_TOL * sv[0]):
                raise DegenerateCovectors(
                    f"implicit jacobian of {self.name!r} loses rank at u = {u}")

    def _sample_coords(self, per_axis: int) -> np.ndarray:
        if isinstance(self.form, ChartForm):
            return _grid(self.form.domain, per_axis)
        return _grid(np.array([[-1.0, 1.0]] * self.dim), per_axis)

    def _x_bindings(self, x):
        b = {f"x{i + 1}": x[i] for i in range(self.ambient.dim)}
        b.update(self.params)
        return b

    # basic maps

    @property
    def is_affine(self) -> bool:
        return isinstance(self.form, AffineForm)

    @property
    def domain(self) -> np.ndarray | None:
        """Chart coordinate box, or None when the core is affine (unbounded)."""
        return self.form.domain if isinstance(self.form, ChartForm) else None

    def point_at(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float).ravel()
        if isinstance(self.form, AffineForm):
            return self.form.base + self.form.tangent @ u
        b = {f"u{i + 1}": u[i] for i in range(self.dim)}
        b.update(self.params)
        return np.array([float(exprlang.evaluate(e, b)) for e in self.form.exprs])

    def points_at(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized chart map on an (N, k) coordinate array."""
        coords = np.asarray(coords, dtype=float)
        if isinstance(self.form, AffineForm):
            return self.form.base + coords @ self.form.tangent.T
        b = {f"u{i + 1}": coords[:, i] for i in range(self.dim)}
        b.update(self.params)
        cols = [np.broadcast_to(np.asarray(exprlang.evaluate(e, b), dtype=float),
                                (coords.shape[0],))
                for e in self.form.exprs]
        return np.stack(cols, axis=1)

    def jacobian_at(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float).ravel()
        if isinstance(self.form, AffineForm):
            return self.form.tangent
        return exprlang.jacobian(self.form.exprs, u, self.params).reshape(
            self.ambient.dim, self.dim) if self.dim else np.zeros((self.ambient.dim, 0))

    def seed_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached (coords, images) grid used to start Newton iterations."""
        if "seeds" not in self._cache:
            box = self.domain
            if box is None:
                box = np.array([[-10.0, 10.0]] * self.dim)  # desk-scale heuristic
            coords = _grid(box, SEEDS_PER_AXIS)
            self._cache["seeds"] = (coords, self.points_at(coords))
        return self._cache["seeds"]


def _coerce_exprs(exprs) -> tuple[Expr, ...] | None:
    if exprs is None:
        return None
    out = []
    for e in exprs:
        out.append(exprlang.parse(e) if isinstance(e, str) else e)
    return tuple(out)


# frames

@dataclass(frozen=True, eq=False)
class FrameBundleSample:
    """Tangent frame and conormal frame of a core at one point."""

    core: Submanifold
    coords: np.ndarray    # (k,) chart coordinates
    point: np.ndarray     # (n,) ambient point
    tangent: Frame        # kind "tangent", (n, k)
    conormal: Frame       # kind "covector", (n-k, n) rows


def frames_at(core: Submanifold, u) -> FrameBundleSample:
    """Sample the tangent and conormal frames of a core at chart coordinates u.

    The conormal comes from the implicit form's jacobian rows when the core
    has one, otherwise from the orthonormal complement of the tangent.
    """
    u = np.asarray(u, dtype=float).ravel()
    x = core.point_at(u)
    jac = core.jacobian_at(u)
    if core.dim:
        sv = np.linalg.svd(jac, compute_uv=False)
        if sv[core.dim - 1] <= IMMERSION_TOL * sv[0]:
            raise ImmersionFailure(
                f"tangent frame of {core.name!r} degenerates at u = {u}")
    tangent = Frame(jac, "tangent")
    if core.implicit is not None:
        rows = exprlang.jacobian(core.implicit, x, core.params, prefix="x")
        if core.dim and rows.size and np.max(np.abs(rows @ jac)) > \
                linalg.ANNIHILATE_TOL * max(1.0, float(np.max(np.abs(rows)))):
            raise ConormalMismatch(
                f"implicit conormal of {core.name!r} fails to annihilate the "
                f"tangent at u = {u}")
        conormal = Frame(rows, "covector")
    else:
        conormal = Frame(linalg.complete_to_ambient(jac).T, "covector")
    return FrameBundleSample(core, u, x, tangent, conormal)


# chart inversion

def chart_invert(core: Submanifold, x, max_steps: int = MAX_NEWTON_STEPS):
    """Chart coordinates of an ambient point: returns (u, residual).

    Affine cores invert in closed form.  Charts run a damped Gauss-Newton
    from the nearest grid seed; the iteration converging to a point *near*
    the core is the caller's on-core decision, a non-stabilizing iteration
    raises ChartInversionFailure.
    """
    x = np.asarray(x, dtype=float).ravel()
    if isinstance(core.form, AffineForm):
        if core.dim == 0:
            return np.zeros(0), float(np.linalg.norm(core.form.base - x))
        u, *_ = np.linalg.lstsq(core.form.tangent, x - core.form.base, rcond=None)
        return u, float(np.linalg.norm(core.point_at(u) - x))
    coords, images = core.seed_table()
    u = coords[np.argmin(np.sum((images - x) ** 2, axis=1))].copy()
    lo, hi = core.form.domain[:, 0], core.form.domain[:, 1]
    r = core.point_at(u) - x
    for _ in range(max_steps):
        jac = core.jacobian_at(u)
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        lam, improved = 1.0, False
        while lam > 1e-6:
            trial = np.clip(u + lam * step, lo, hi)
            r_trial = core.point_at(trial) - x
            if np.linalg.norm(r_trial) < np.linalg.norm(r):
                u, r, improved = trial, r_trial, True
                break
            lam *= 0.5
        if not improved or np.linalg.norm(lam * step) <= 1e-12 * (1.0 + np.linalg.norm(u)):
            return u, float(np.linalg.norm(r))
    raise ChartInversionFailure(
        f"inversion on {core.name!r} did not stabilize near x = {x}")


# transversality

@dataclass(frozen=True, eq=False)
class TransversalitySample:
    point: np.ndarray
    rank: int
    transverse: bool


@dataclass(frozen=True, eq=False)
class TransversalityReport:
    core_c: str
    core_d: str
    ambient_dim: int
    expected_dim: int
    samples: tuple[TransversalitySample, ...]

    @property
    def all_transverse(self) -> bool:
        return all(s.transverse for s in self.samples)


def transversality_check(c: Submanifold, d: Submanifold,
                         samples: Sequence) -> TransversalityReport:
    """Per-point verdicts on whether T_xC + T_xD spans R^n.

    Samples are ambient points that must already lie on both cores
    (distance <= ON_CORE_TOL), otherwise NotOnBothCores is raised.
    """
    n = c.ambient.dim
    if d.ambient.dim != n:
        raise ValueError("cores live in different ambient spaces")
    out = []
    for x in samples:
        x = np.asarray(x, dtype=float).ravel()
        uc, rc = chart_invert(c, x)
        ud, rd = chart_invert(d, x)
        if rc > ON_CORE_TOL or rd > ON_CORE_TOL:
            raise NotOnBothCores(
                f"sample {x} is off-core (distances {rc:.3g}, {rd:.3g})")
        joint = np.hstack([c.jacobian_at(uc), d.jacobian_at(ud)])
        sv = np.linalg.svd(joint, compute_uv=False) if joint.size else np.zeros(0)
        rank = int(np.sum(sv > linalg.RANK_TOL * sv[0])) if sv.size and sv[0] > 0 else 0
        out.append(TransversalitySample(x, rank, rank == n))
    return TransversalityReport(c.name, d.name, n, c.dim + d.dim - n, tuple(out))


# intersection

@dataclass(frozen=True, eq=False)
class IntersectionResult:
    dim: int
    points: tuple[np.ndarray, ...]
    core: Submanifold | None

    def point_cores(self, prefix: str = "pt") -> tuple[Submanifold, ...]:
        if self.core is not None and self.core.dim == 0:
            return (self.core,)
        return tuple(Submanifold.point(f"{prefix}{i}", p)
                     for i, p in enumerate(self.points))


def intersect(c: Submanifold, d: Submanifold) -> IntersectionResult:
    """Compute C ∩ D.

    Affine-affine pairs are solved exactly and may return a positive
    dimensional affine core.  Pairs with a curved member are only searched
    when the expected dimension is 0 (a positive-dimensional curved
    intersection needs a user-supplied chart); the search runs Gauss-Newton
    on one core's implicit form composed with the other core's
    parametrization, from a grid of seeds.
    """
    n = c.ambient.dim
    if d.ambient.dim != n:
        raise ValueError("cores live in different ambient spaces")
    m = c.dim + d.dim - n
    if c.is_affine and d.is_affine:
        return _intersect_affine(c, d)
    if m >= 1:
        raise UserChartRequired(
            f"{c.name!r} ∩ {d.name!r} is curved with expected dimension {m}; "
            "supply an intersection chart")
    impl, par = (d, c) if d.implicit is not None else (c, d)
    if impl.implicit is None:
        raise MissingImplicitForm(
            f"curved intersection of {c.name!r} and {d.name!r} needs an "
            "implicit form on one core")
    points = _newton_points(par, impl)
    if not points:
        raise NoIntersectionFound(f"no common point of {c.name!r} and {d.name!r}")
    core = Submanifold.point(f"{c.name}_x_{d.name}", points[0]) if len(points) == 1 else None
    return IntersectionResult(0, tuple(points), core)


def _intersect_affine(c: Submanifold, d: Submanifold) -> IntersectionResult:
    n = c.ambient.dim
    tc, td = c.form.tangent, d.form.tangent
    rhs = d.form.base - c.form.base
    m = np.hstack([tc, -td]) if tc.size or td.size else np.zeros((n, 0))
    if m.shape[1] == 0:
        # two points
        if np.linalg.norm(rhs) > INTERSECT_RESIDUAL * (1.0 + np.linalg.norm(d.form.base)):
            raise NoIntersectionFound(f"{c.name!r} and {d.name!r} are disjoint points")
        core = Submanifold.point(f"{c.name}_x_{d.name}", c.form.base)
        return IntersectionResult(0, (c.form.base.copy(),), core)
    sol, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    resid = np.linalg.norm(m @ sol - rhs)
    if resid > INTERSECT_RESIDUAL * (1.0 + np.linalg.norm(rhs)):
        raise NoIntersectionFound(
            f"{c.name!r} and {d.name!r} do not meet (residual {resid:.3g})")
    base = c.form.base + tc @ sol[:c.dim]
    # null space of [T_C | -T_D]: its a-part spans the intersection directions
    _, sv, vt = np.linalg.svd(m, full_matrices=True)
    tol = linalg.RANK_TOL * (sv[0] if sv.size else 1.0)
    null = vt[np.sum(sv > tol):].T  # (kC+kD, null_dim)
    directions = tc @ null[:c.dim] if null.size else np.zeros((n, 0))
    if directions.size:
        u, dsv, _ = np.linalg.svd(directions, full_matrices=False)
        rank = int(np.sum(dsv > linalg.RANK_TOL * dsv[0])) if dsv.size and dsv[0] > 0 else 0
        directions = u[:, :rank]
    dim = directions.shape[1]
    if dim == 0:
        core = Submanifold.point(f"{c.name}_x_{d.name}", base)
        return IntersectionResult(0, (base,), core)
    core = Submanifold.affine(f"{c.name}_x_{d.name}", base, directions)
    return IntersectionResult(dim, (), core)


def _newton_points(par: Submanifold, impl: Submanifold) -> list[np.ndarray]:
    """Solve F_impl(psi_par(u)) = 0 from grid seeds; dedup converged roots."""
    seeds, _ = par.seed_table()
    found: list[np.ndarray] = []

    def residual(u):
        x = par.point_at(u)
        return np.array([float(exprlang.evaluate(e, impl._x_bindings(x)))
                         for e in impl.implicit]), x

    box = par.domain
    for u0 in seeds:
        u = u0.copy()
        r, x = residual(u)
        ok = False
        for _ in range(MAX_NEWTON_STEPS):
            if np.linalg.norm(r) <= INTERSECT_RESIDUAL:
                ok = True
                break
            rows = exprlang.jacobian(impl.implicit, x, impl.params, prefix="x")
            jac = rows @ par.jacobian_at(u)
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
            lam, improved = 1.0, False
            while lam > 1e-8:
                trial = u + lam * step
                if box is not None:
                    trial = np.clip(trial, box[:, 0], box[:, 1])
                r_trial, x_trial = residual(trial)
                if np.linalg.norm(r_trial) < np.linalg.norm(r):
                    u, r, x, improved = trial, r_trial, x_trial, True
                    break
                lam *= 0.5
            if not improved:
                break
        # the implicit form may vanish off the chart's domain: keep on-core roots
        if ok and all(np.linalg.norm(x - p) > DEDUP_TOL for p in found) \
                and chart_invert(impl, x)[1] <= ON_CORE_TOL:
            found.append(x)
    found.sort(key=lambda p: tuple(p))
    return found

"""Embedded cores of R^n: affine and chart forms, frame fields, intersections.

A core is a k-dimensional embedded submanifold presented either affinely
(base point plus tangent matrix) or by a chart (k coordinate expressions on a
bounded box).  An optional implicit form (n - k expressions cutting out the
core) rides along and supplies conormal frames and curved intersections.
Everything is desk scale: 1 <= n <= 10, dense linear algebra, grid seeding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import exprlang, linalg
from .errors import (
    AmbientMismatch,
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
from .quadrature import Grid

IMMERSION_TOL = 1e-8       # relative singular value cutoff for chart jacobians
ON_CORE_TOL = 1e-8         # "the point lies on the core"
INTERSECT_RESIDUAL = 1e-10
SEEDS_PER_AXIS = 20
SEED_CAP = 10_000
MAX_NEWTON_STEPS = 50
DAMPING_FLOOR = 1e-8       # Gauss-Newton halves a step no further than this fraction
DEDUP_TOL = 1e-6


@dataclass(frozen=True)
class Ambient:
    """The ambient Euclidean space R^n."""

    dim: int

    def __post_init__(self):
        if not 1 <= self.dim <= 10:
            raise ValueError(f"ambient dimension must be in 1..10, got {self.dim}")


def _own(a) -> np.ndarray:
    """A read-only float copy, which no later edit of the caller's array reaches."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class AffineForm:
    base: np.ndarray     # (n,)
    tangent: np.ndarray  # (n, k) columns

    def __post_init__(self):
        object.__setattr__(self, "base", _own(self.base))
        object.__setattr__(self, "tangent", _own(self.tangent))


@dataclass(frozen=True, eq=False)
class ChartForm:
    exprs: tuple[Expr, ...]  # n component expressions in u1..uk
    domain: np.ndarray       # (k, 2) bounded box

    def __post_init__(self):
        object.__setattr__(self, "domain", _own(self.domain))


def on_core_tol(x: np.ndarray) -> np.ndarray:
    """Largest residuals (N,) that put points x (N, n) on a core, at any scale."""
    return ON_CORE_TOL * np.abs(x).max(axis=1, initial=1.0)


def _grid(box: np.ndarray, per_axis: int) -> np.ndarray:
    while per_axis > 2 and per_axis ** box.shape[0] > SEED_CAP:
        per_axis -= 1
    return Grid([np.linspace(lo, hi, per_axis) for lo, hi in box]).points()


@dataclass(frozen=True, eq=False)
class Submanifold:
    """A named embedded core of R^n."""

    name: str
    ambient: Ambient
    dim: int
    form: AffineForm | ChartForm
    implicit: tuple[Expr, ...] | None = None
    params: Mapping[str, float] = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, init=False, repr=False)

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
            linalg.complete_to_ambient(self.form.tangent)  # raises RankDeficient
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
            coords = _grid(self.form.domain, 5)
            u = _rank_loss(linalg.unit_columns(self._tangents(coords)), IMMERSION_TOL, coords)
            if u is not None:
                raise ImmersionFailure(
                    f"chart jacobian of {self.name!r} loses rank at u = {u}")
        if self.implicit is not None:
            self._validate_implicit()

    def _validate_implicit(self):
        n, k = self.ambient.dim, self.dim
        if len(self.implicit) != n - k:
            raise ValueError(
                f"implicit form needs {n - k} components, got {len(self.implicit)}")
        box = self.domain if self.domain is not None else np.array([[-1.0, 1.0]] * k)
        coords = _grid(box, 3)
        x = self.points_at(coords)
        worst = np.max(np.abs(self._implicit_values(x)), axis=1, initial=0.0)
        off = worst > on_core_tol(x)
        if np.any(off):
            i = int(np.argmax(off))
            raise ValueError(
                f"implicit form of {self.name!r} does not vanish on the core "
                f"(|F| = {worst[i]:.3g} at u = {coords[i]})")
        _check_rows(self, self._implicit_rows(x), linalg.unit_columns(self._tangents(coords)),
                    coords)

    def _bindings(self, prefix: str, values) -> dict:
        return {**{f"{prefix}{i + 1}": v for i, v in enumerate(values)}, **self.params}

    def _trees(self, prefix: str) -> list[list[Expr]]:
        """d exprs_i / d <prefix>j once per core: the chart's for "u", the implicit's for "x"."""
        if ("trees", prefix) not in self._cache:
            exprs, count = ((self.form.exprs, self.dim) if prefix == "u"
                            else (self.implicit, self.ambient.dim))
            self._cache["trees", prefix] = [[exprlang.diff(e, f"{prefix}{j + 1}")
                                             for j in range(count)] for e in exprs]
        return self._cache["trees", prefix]

    def _derivatives(self, prefix: str, values) -> np.ndarray:
        """The ``_trees(prefix)`` table (m, rows, len(values)) at one coordinate array
        per variable.  A tree free of them evaluates to a scalar; m is 1 when every
        tree does, else the size of the batch they broadcast to, in C order."""
        trees, b = self._trees(prefix), self._bindings(prefix, values)
        vals = [[np.asarray(exprlang.evaluate(t, b), dtype=float) for t in row] for row in trees]
        lead = np.broadcast(*values).shape if any(v.ndim for row in vals for v in row) else (1,)
        out = np.empty(lead + (len(trees), len(values)))
        for i, row in enumerate(vals):
            for j, v in enumerate(row):
                out[..., i, j] = v
        return out.reshape((math.prod(lead),) + out.shape[-2:])

    @cached_property
    def frames_constant(self) -> bool:
        """Whether no chart or implicit derivative tree reads a coordinate, so that every
        node has the same frame: each reads scene parameters and constants at most."""
        trees = (([] if self.is_affine else self._trees("u"))
                 + ([] if self.implicit is None else self._trees("x")))
        fixed = self.params.keys() | exprlang.CONSTANTS.keys()
        return all(exprlang.reads(t) <= fixed for row in trees for t in row)

    # basic maps

    @property
    def is_affine(self) -> bool:
        return isinstance(self.form, AffineForm)

    @property
    def domain(self) -> np.ndarray | None:
        """Chart coordinate box, or None when the core is affine (unbounded)."""
        return self.form.domain if isinstance(self.form, ChartForm) else None

    def points_at(self, coords):
        """Chart map: (N, n) points at an (N, k) coordinate array; at a quadrature
        Grid, the n ambient coordinates as a tuple of arrays over its open axes."""
        if isinstance(coords, Grid):
            return self._map(coords.columns())
        coords = np.asarray(coords, dtype=float)
        if isinstance(self.form, AffineForm):
            # (n, k) @ (k, N) runs far faster than the tall-skinny (N, k) @ (k, n)
            return self.form.base + (self.form.tangent @ coords.T).T
        out = np.empty((len(coords), self.ambient.dim))
        for j, x in enumerate(self._map(coords.T)):
            out[:, j] = x  # a scalar fills its column
        return out

    def _map(self, cols) -> tuple:
        """The n ambient coordinates at k broadcastable coordinate arrays."""
        if isinstance(self.form, AffineForm):
            out = []
            for x, row in zip(self.form.base, self.form.tangent):
                for t, c in zip(row, cols):  # each term widens x by its own axis only
                    x = x + t * c if t != 0.0 else x
                out.append(x)
            return tuple(out)
        b = self._bindings("u", cols)
        return tuple(np.asarray(exprlang.evaluate(e, b), dtype=float) for e in self.form.exprs)

    def _tangents(self, coords) -> np.ndarray:
        """Chart jacobians (m, n, k) at (N, k) coordinates or at a Grid's nodes."""
        if isinstance(self.form, AffineForm):
            return self.form.tangent[None]
        return self._derivatives(
            "u", coords.columns() if isinstance(coords, Grid) else np.asarray(coords).T)

    def _implicit_values(self, points) -> np.ndarray:
        """Implicit form values (N, n - k) at (N, n) points."""
        b, out = self._bindings("x", points.T), np.empty((len(points), len(self.implicit)))
        for j, e in enumerate(self.implicit):
            out[:, j] = exprlang.evaluate(e, b)  # a scalar fills its column
        return out

    def _implicit_rows(self, points) -> np.ndarray:
        """Implicit jacobian rows (m, n - k, n) at (N, n) points or ``points_at(grid)``."""
        return self._derivatives("x", points if isinstance(points, tuple)
                                 else np.asarray(points).T)

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
    return tuple(exprlang.parse(e) if isinstance(e, str) else e for e in exprs)


def _at(coords, bad: np.ndarray) -> np.ndarray:
    # coordinates of the first failing frame; a single frame stands for all
    if isinstance(coords, Grid):
        index = np.unravel_index(np.argmax(bad), coords.dims)
        return np.array([x[j] for x, j in zip(coords.axes, index)])
    return coords[min(int(np.argmax(bad)), len(coords) - 1)]


def _rank_loss(unit: np.ndarray, tol: float, coords: np.ndarray):
    """Coordinates of the first frame of unit rows with sv_min <= tol * sv_max."""
    if 0 in unit.shape[1:]:
        return None
    sv = np.linalg.svd(unit, compute_uv=False)
    bad = sv[:, -1] <= tol * sv[:, 0]
    return _at(coords, bad) if np.any(bad) else None


def _check_rows(core: Submanifold, rows: np.ndarray, unit_t: np.ndarray, coords) -> None:
    """ConormalMismatch where unit rows meet unit tangents, DegenerateCovectors on rank loss."""
    unit, _ = linalg.unit_rows(rows)
    bad = linalg.leaks(unit, unit_t)
    if np.any(bad):
        raise ConormalMismatch(
            f"implicit conormal of {core.name!r} fails to annihilate the "
            f"tangent at u = {_at(coords, bad)}")
    u = _rank_loss(unit, linalg.RANK_TOL, coords)
    if u is not None:
        raise DegenerateCovectors(
            f"implicit jacobian of {core.name!r} loses rank at u = {u}")


# frames

def frames_many(core: Submanifold, coords) -> tuple:
    """``core.points_at(coords)``, tangents (m, n, k) and conormal rows (m, n - k, n)
    at chart coordinates (N, k) or a quadrature Grid of N nodes.

    m is 1 when ``core.frames_constant``, checked once and cached on the
    core, and N otherwise.  The conormal is the implicit form's jacobian, or
    else the orthonormal complement of the tangent.  Each frame is checked
    for immersion (ImmersionFailure), for implicit rows that annihilate the
    tangent (ConormalMismatch, each unit row against each unit tangent) and for
    their rank (DegenerateCovectors).
    """
    if not isinstance(coords, Grid):
        coords = np.asarray(coords, dtype=float)
    points = core.points_at(coords)
    return (points, *_frames(core, coords, points))


def _frames(core: Submanifold, coords, points=None) -> tuple:
    """``frames_many`` but its points, which are formed here only for implicit rows."""
    if "frames" in core._cache:
        return core._cache["frames"]
    tangents = core._tangents(coords)
    unit_t = linalg.unit_columns(tangents)
    u = _rank_loss(unit_t, IMMERSION_TOL, coords)
    if u is not None:
        raise ImmersionFailure(f"tangent frame of {core.name!r} degenerates at u = {u}")
    if core.implicit is None:
        rows = np.swapaxes(linalg.complete_to_ambient(tangents), 1, 2)
    else:
        rows = core._implicit_rows(core.points_at(coords) if points is None else points)
        _check_rows(core, rows, unit_t, coords)
    m = max(len(tangents), len(rows))
    frames = tuple(a if len(a) == m else np.broadcast_to(a, (m,) + a.shape[1:])
                   for a in (tangents, rows))
    if core.frames_constant:
        for a in frames:
            a.flags.writeable = False  # every later batch shares them
        core._cache["frames"] = frames
    return frames


def frames_at(core: Submanifold, u) -> tuple[np.ndarray, ...]:
    """Point (n,), tangent (n, k) and conormal rows (n - k, n) at chart
    coordinates u: ``frames_many`` at one point."""
    frames = frames_many(core, np.asarray(u, dtype=float).reshape(1, core.dim))
    return tuple(a[0] for a in frames)


# chart inversion

def _row_norms(a: np.ndarray) -> np.ndarray:  # np.linalg.norm(a, axis=1) bitwise, unchecked
    return np.sqrt(np.add.reduce(a * a, axis=1))


def _gauss_newton(residual, jacobian, u0, box, tol):
    """Damped Gauss-Newton on an (N, k) stack of iterates, one problem per row.

    ``residual`` maps (N, k) coordinates to (N, q) residuals in a fresh array, which
    the solver writes into; ``jacobian`` maps the rows still iterating to (m, q, k)
    jacobians, m being 1 or their count.  The step -pinv(J) r comes from one SVD,
    with pinv's cutoff at 1e-15 s_max.  Each row halves its own step, down to
    DAMPING_FLOOR, until its residual drops; trials are clipped to ``box`` (None:
    unbounded).  A row stops once its residual is <= tol, once no damping lowers
    it, or once its step is <= 1e-12 (1 + |u|), a step that short tried undamped
    only.  Returns u, the residual norms and the rows still moving after MAX_NEWTON_STEPS.
    """
    u = np.array(u0, dtype=float)
    lo, hi = (None, None) if box is None else box.T
    r = residual(u)
    norm = _row_norms(r)
    moving = norm > tol
    for _ in range(MAX_NEWTON_STEPS):
        if not moving.any():
            break
        rows = slice(None) if moving.all() else moving  # a slice copies no rows
        w, sv, vt = np.linalg.svd(jacobian(u[rows]), full_matrices=False)
        inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=sv > 1e-15 * sv[:, :1])
        step = np.zeros_like(u)
        step[rows] = -(((r[rows, None] @ w) * inv[:, None]) @ vt)[:, 0]
        floor = 1e-12 * (1.0 + _row_norms(u))
        short = _row_norms(step) <= floor
        lam = np.ones(len(u))
        pending, improved = moving.copy(), np.zeros(len(u), dtype=bool)
        while pending.any():
            trial = np.where(pending[:, None], np.clip(u + lam[:, None] * step, lo, hi), u)
            r_trial = residual(trial)
            n_trial = _row_norms(r_trial)
            better = pending & (n_trial < norm)
            u[better], r[better], norm[better] = trial[better], r_trial[better], n_trial[better]
            improved |= better
            pending &= ~better
            lam[pending] *= 0.5
            pending &= (lam > DAMPING_FLOOR) & ~short
        moving &= improved & (_row_norms(lam[:, None] * step) > floor) & (norm > tol)
    return u, norm, moving


def chart_invert(core: Submanifold, xs) -> tuple[np.ndarray, np.ndarray]:
    """Chart coordinates u (N, k) of ambient points xs (N, n), and residuals (N,).

    Affine cores invert as (x - base) P^T, P the tangent's pseudo-inverse,
    cached on the core.  Charts run the damped Gauss-Newton from each point's
    nearest grid seed; the caller decides whether a residual is on the core
    (``on_core_tol``), and a row that does not stabilize raises
    ChartInversionFailure.
    """
    xs = np.asarray(xs, dtype=float)
    if isinstance(core.form, AffineForm):
        if "pinv" not in core._cache:
            core._cache["pinv"] = np.linalg.pinv(core.form.tangent).T
            core._cache["pinv"].flags.writeable = False
        d = xs - core.form.base
        u = d @ core._cache["pinv"]
        resid = np.sqrt(np.square(u @ core.form.tangent.T - d).sum(axis=1))  # a bare norm
    else:
        coords, images = core.seed_table()
        # blocks of rows keep the (rows, seeds, n) difference array near 8 MB
        block = max(1, 2 ** 20 // images.size)
        nearest = np.concatenate([
            np.argmin(np.sum((images - b[:, None]) ** 2, axis=2), axis=1)
            for b in np.split(xs, range(block, len(xs), block))])
        u, resid, moving = _gauss_newton(lambda u: core.points_at(u) - xs, core._tangents,
                                         coords[nearest], core.form.domain, 0.0)
        if moving.any():
            raise ChartInversionFailure(f"inversion on {core.name!r} did not "
                                        f"stabilize near x = {xs[np.argmax(moving)]}")
    return u, resid


def core_coords(cores: Sequence[Submanifold], x: np.ndarray) -> list[np.ndarray]:
    """Chart coordinates (N, k) on each core of points x (N, n) on all of them: one
    ``chart_invert`` per core against one ``on_core_tol``.  The first point off any
    core raises NotOnBothCores, naming it, its distance and the first core it is off."""
    inverted = [chart_invert(core, x) for core in cores]
    off = np.array([resid for _, resid in inverted]) > on_core_tol(x)
    if off.any():
        i = int(np.argmax(off.any(axis=0)))
        j = int(np.argmax(off[:, i]))
        raise NotOnBothCores(f"point {x[i]} is {inverted[j][1][i]:.3g} away from "
                             f"core {cores[j].name!r}")
    return [u for u, _ in inverted]


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


def transversality_check(c: Submanifold, d: Submanifold,
                         samples: Sequence) -> TransversalityReport:
    """Per-point verdicts on whether T_xC + T_xD spans R^n.

    Samples are ambient points on both cores, as ``core_coords`` decides.
    """
    n = c.ambient.dim
    if d.ambient.dim != n:
        raise AmbientMismatch("cores live in different ambient spaces")
    x = np.asarray(samples, dtype=float).reshape(len(samples), n)
    uc, ud = core_coords((c, d), x)
    joint = np.concatenate([np.broadcast_to(t, (len(x),) + t.shape[1:])
                            for t in (c._tangents(uc), d._tangents(ud))], axis=2)
    sv = np.linalg.svd(linalg.unit_columns(joint), compute_uv=False)
    ranks = np.sum(sv > linalg.RANK_TOL * sv[:, :1], axis=1).tolist()
    out = [TransversalitySample(p, rank, rank == n) for p, rank in zip(x, ranks)]
    return TransversalityReport(c.name, d.name, n, c.dim + d.dim - n, tuple(out))


# intersection

@dataclass(frozen=True, eq=False)
class IntersectionResult:
    dim: int
    points: tuple[np.ndarray, ...]
    core: Submanifold | None

    def point_cores(self) -> tuple[Submanifold, ...]:
        if self.core is not None and self.core.dim == 0:
            return (self.core,)
        return tuple(Submanifold.point(f"pt{i}", p)
                     for i, p in enumerate(self.points))


def intersect(c: Submanifold, d: Submanifold) -> IntersectionResult:
    """Compute C ∩ D.

    Affine-affine pairs are solved exactly and may return a positive
    dimensional affine core.  Pairs with a curved member are only searched
    when the expected dimension is 0 (a positive-dimensional curved
    intersection needs a user-supplied chart); the search runs Gauss-Newton
    on one core's implicit form composed with the other core's
    parametrization, from every point of a seed grid as one stack of
    iterates, then keeps the roots that one stacked ``chart_invert`` puts on
    the implicit core and merges near duplicates in seed order.
    """
    n = c.ambient.dim
    if d.ambient.dim != n:
        raise AmbientMismatch("cores live in different ambient spaces")
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
    """Solve F_impl(psi_par(u)) = 0 from all grid seeds at once; dedup converged roots."""
    u, resid, _ = _gauss_newton(
        lambda u: impl._implicit_values(par.points_at(u)),
        lambda u: impl._implicit_rows(par.points_at(u)) @ par._tangents(u),
        par.seed_table()[0], par.domain, INTERSECT_RESIDUAL)
    x = par.points_at(u[resid <= INTERSECT_RESIDUAL])
    # the implicit form may vanish off the chart's domain: keep on-core roots
    x = x[chart_invert(impl, x)[1] <= ON_CORE_TOL]
    found = []
    while len(x):
        found.append(x[0])
        x = x[np.linalg.norm(x - x[0], axis=1) > DEDUP_TOL]
    return sorted(found, key=tuple)

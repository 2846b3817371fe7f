"""Coefficient fields: complex scalar functions of chart or ambient coordinates.

Expression-backed fields evaluate vectorized through the expression engine's
array path, and at one point on float64 scalars; callable ones loop, or take
the whole batch.  ``factors`` gives a field's values on a grid as factors for
``quadrature.weighted_sum``: a real expression field splits its top-level
product, and an ``exp`` of a sum by the coordinates its terms read (see
EXP_SPLIT_LIMIT), so tube and test Gaussians stay one axis long; a square of a
sum or a product of sums there expands, and its like monomials collect, first.
``factor_axes`` names the axes each factor reads on a grid, by the trees and the
same range guard, evaluated once per grid for both.  Fields that differ only in
parameter values (``with_params``) share their factor groups, which split and
compile once.  Coordinates are named ``<prefix>1 .. <prefix>dim`` with prefix
"u" on charts and "x" in the ambient space.
"""
from __future__ import annotations

from functools import cached_property, reduce
from typing import Callable, Mapping, MutableMapping, get_args
from weakref import WeakKeyDictionary

import numpy as np

from . import exprlang
from .exprlang import ZERO, BinOp, Call, Expr, Neg, Num, add, mul, sub
from .quadrature import Grid

EXP_SPLIT_LIMIT = 708.0  # bound on an exp's groups' summed max |exponent|: products stay normal


class ScalarField:
    """Interface: a complex scalar field evaluated on a batch: a quadrature ``Grid``
    (values in its ``dims``), a tuple of coordinate arrays (values in their
    broadcast shape) or an (N, dim) array of points (values (N,))."""

    def eval_many(self, points) -> np.ndarray:
        raise NotImplementedError

    def factors(self, grid: Grid) -> tuple[np.ndarray, ...]:
        """Values on a ``Grid`` as factors whose broadcast product is ``eval_many``."""
        return (self.eval_many(grid),)

    def factor_axes(self, grid: Grid) -> list[frozenset[int]]:
        """The axes of ``grid`` that each factor of ``factors`` reads, at most, in order."""
        return [frozenset(range(len(grid.dims)))]

    def __call__(self, point) -> complex:
        return complex(self.eval_many(np.asarray(point, dtype=float).reshape(1, -1))[0])


class ExprField(ScalarField):
    """Field defined by expression trees for the real and imaginary parts."""

    def __init__(self, re_expr: Expr, im_expr: Expr | None = None,
                 prefix: str = "u", params: Mapping[str, float] | None = None):
        self.re_expr = re_expr
        self.im_expr = im_expr
        self.prefix = prefix
        self.params = dict(params or {})
        self._splits: MutableMapping[Grid, list] = WeakKeyDictionary()

    def eval_many(self, points) -> np.ndarray:
        # each sub-expression runs on the coordinate arrays it reads; a real field
        # stays real, which halves the bytes of the products and sums that follow
        if isinstance(points, Grid):
            cols, shape = points.columns(), points.dims
        elif isinstance(points, tuple):
            cols, shape = points, np.broadcast_shapes(*(np.shape(c) for c in points))
        else:
            points = np.asarray(points, dtype=float)
            cols, shape = points.T, points.shape[:1]
        b = {f"{self.prefix}{i + 1}": c for i, c in enumerate(cols)} | self.params
        value = np.asarray(exprlang.evaluate(self.re_expr, b), dtype=float)
        if self.im_expr is not None:
            value = value + 1j * np.asarray(exprlang.evaluate(self.im_expr, b))
        return np.broadcast_to(value, shape)

    def __call__(self, point) -> complex:
        """The value at one point, bound as float64 scalars: a power that overflows gives
        inf, as in ``eval_many``, not a Python float's DomainError.  Values agree with
        ``eval_many`` to a few ulp: numpy's scalar exp, sin and cos may round otherwise."""
        coords = enumerate(np.asarray(point, dtype=float).ravel(), 1)
        b = {f"{self.prefix}{i}": c for i, c in coords} | self.params
        value = exprlang.evaluate(self.re_expr, b)
        if self.im_expr is not None:
            value = value + 1j * exprlang.evaluate(self.im_expr, b)
        return complex(value)

    def factors(self, grid: Grid) -> tuple[np.ndarray, ...]:
        # a real field's top-level * chain on the columns each reads; an exp of a sum by groups
        if self.im_expr is not None:
            return super().factors(grid)
        out = []
        for f, _, exps, b in self._split(grid):
            out += map(np.exp, exps) if exps else [np.asarray(exprlang.evaluate(f, b), float)]
        return tuple(out)

    def factor_axes(self, grid: Grid) -> list[frozenset[int]]:
        # an exp's groups where the range guard lets it split on the grid, else their union;
        # on a part of the grid the guard may split what it keeps whole here, never the reverse
        if self.im_expr is not None:
            return super().factor_axes(grid)
        axis = {f"{self.prefix}{i + 1}": i for i in range(len(grid.dims))}
        return [frozenset(axis[v] for v in names if v in axis)
                for _, spans, exps, _ in self._split(grid)
                for names in (spans if exps else [frozenset().union(*spans)])]

    def _split(self, grid: Grid) -> list:
        # per multiplicand: its tree, the coordinates its exp's groups read, their exponents
        # on the grid where their largest magnitudes sum within EXP_SPLIT_LIMIT (else
        # None), and the bindings; once per live grid, for factor_axes and factors both
        if grid in self._splits:
            return self._splits[grid]
        b = {f"{self.prefix}{i + 1}": c for i, c in enumerate(grid.columns())} | self.params
        out = self._splits[grid] = []
        for f, groups, spans in self._factor_trees:
            exps = [np.asarray(exprlang.evaluate(g, b), dtype=float) for g in groups]
            split = exps and sum(abs(e).max() for e in exps) <= EXP_SPLIT_LIMIT
            out.append((f, spans, exps if split else None, b))
        return out

    def with_params(self, values: Mapping[str, float]) -> "ExprField":
        """The field with new values for some of its parameters.  Where it binds no new
        name, it shares the factor groups, so they split and compile once for all the
        values; a new name may change what the groups read, so it builds its own."""
        out = ExprField(self.re_expr, self.im_expr, self.prefix, self.params | dict(values))
        if values.keys() <= self.params.keys():
            vars(out)["_factor_trees"] = self._factor_trees
        return out

    @cached_property
    def _factor_trees(self) -> list[tuple[Expr, list[Expr], list[frozenset[str]]]]:
        # multiplicands, an exp's terms summed per set of coordinates read, and the
        # coordinates each group reads (the tree's, where it has no groups); an exp whose
        # argument expands has its monomials collected first; built to compile once
        fixed, out = self.params.keys() | exprlang.CONSTANTS.keys(), []
        for f in _multiplicands(self.re_expr):
            groups: dict[frozenset, list[Expr]] = {}
            terms = _terms(f.arg) if isinstance(f, Call) and f.func == "exp" else []
            expanded = _terms(f.arg, fixed) if terms else []
            for t in _collected(expanded) if len(expanded) > len(terms) else terms:
                groups.setdefault(exprlang.reads(t) - fixed, []).append(t)
            split = len(groups) > 1
            out.append((f, [reduce(add, g) for g in groups.values()] if split else [],
                        list(groups) if split else [exprlang.reads(f) - fixed]))
        return out

    def scaled(self, factor: complex) -> "ExprField":
        """Fold a complex constant into the expression trees."""
        a, b = Num(float(np.real(factor))), Num(float(np.imag(factor)))
        re, im = self.re_expr, self.im_expr or ZERO
        new_im = add(mul(b, re), mul(a, im))
        return ExprField(sub(mul(a, re), mul(b, im)), None if new_im == ZERO else new_im,
                         self.prefix, self.params)


def _multiplicands(e: Expr) -> list[Expr]:
    split = isinstance(e, BinOp) and e.op == "*"
    return _multiplicands(e.left) + _multiplicands(e.right) if split else [e]


def _terms(e: Expr, fixed: frozenset | None = None) -> list[Expr]:
    # e as a sum of terms: unary minus, - and * or / by a literal distribute over +; given
    # the names that are not coordinates, so do a square of a sum and a product of two
    # sums that read two coordinates or more, into products of their collected terms
    if not isinstance(e, BinOp):
        return [sub(ZERO, t) for t in _terms(e.arg, fixed)] if isinstance(e, Neg) else [e]
    if e.op in "+-":
        return _terms(e.left, fixed) + _terms(e.right if e.op == "+" else Neg(e.right), fixed)
    if e.op == "*" and isinstance(e.left, Num):
        e = BinOp("*", e.right, e.left)  # c*x is x*c, bitwise
    if e.op in "*/" and isinstance(e.right, Num):
        return [BinOp(e.op, t, e.right) for t in _terms(e.left, fixed)]
    if fixed is not None and (e.op == "*" or e.op == "^" and e.right == Num(2.0)) \
            and len(exprlang.reads(e) - fixed) > 1:
        left = _collected(_terms(e.left, fixed))  # fewer and better-rounded products
        right = left if e.op == "^" else _collected(_terms(e.right, fixed))
        if len(left) > 1 and len(right) > 1:
            return [BinOp("*", a, b) for a in left for b in right]
    return [e]


def _collected(terms: list[Expr]) -> list[Expr]:
    # like monomials as one: the literal coefficients of the same product of other
    # multiplicands sum, and a monomial whose coefficients cancel is left out
    sums: dict[tuple[Expr, ...], float] = {}
    for c, factors in map(_monomial, terms):
        key = tuple(sorted(factors, key=exprlang.to_source))
        sums[key] = sums.get(key, 0.0) + c
    return [reduce(mul, key, Num(c)) for key, c in sums.items() if c != 0.0]


def _monomial(e: Expr) -> tuple[float, list[Expr]]:
    # a term as a literal coefficient times its other multiplicands; / 0 stays one of them
    if isinstance(e, Num):
        return e.value, []
    if isinstance(e, Neg):
        c, factors = _monomial(e.arg)
        return -c, factors
    if isinstance(e, BinOp) and (e.op == "*" or e.op == "/" and isinstance(e.right, Num)
                                 and e.right.value != 0.0):
        (a, left), (b, right) = _monomial(e.left), _monomial(e.right)
        return (a * b, left + right) if e.op == "*" else (a / b, left)
    return 1.0, [e]


class BatchField(ScalarField):
    """Field defined by a python callable on a whole batch, as ``eval_many`` takes it."""

    def __init__(self, fn: Callable[[object], np.ndarray]):
        self.eval_many = fn


class FuncField(ScalarField):
    """Field defined by an arbitrary python callable on coordinate vectors."""

    def __init__(self, fn: Callable[[np.ndarray], complex]):
        self.fn = fn

    def eval_many(self, points) -> np.ndarray:
        if isinstance(points, Grid):
            return self.eval_many(points.points()).reshape(points.dims)
        if isinstance(points, tuple):
            stacked = np.stack(np.broadcast_arrays(*points), axis=-1)
            return self.eval_many(stacked.reshape(-1, len(points))).reshape(stacked.shape[:-1])
        return np.array([complex(self.fn(p)) for p in np.asarray(points, float)], complex)


def as_field(obj, prefix: str = "u",
             params: Mapping[str, float] | None = None) -> ScalarField:
    """Coerce a string, expression tree, number, or callable into a field."""
    if isinstance(obj, ScalarField):
        return obj
    if isinstance(obj, str):
        return ExprField(exprlang.parse(obj), prefix=prefix, params=params)
    if isinstance(obj, get_args(Expr)):
        return ExprField(obj, prefix=prefix, params=params)
    if isinstance(obj, complex) and obj.imag != 0.0:
        return ExprField(Num(obj.real), Num(obj.imag), prefix=prefix, params=params)
    if isinstance(obj, (int, float, complex)):
        return ExprField(Num(float(np.real(obj))), prefix=prefix, params=params)
    if callable(obj):
        return FuncField(obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as a scalar field")

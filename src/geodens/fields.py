"""Coefficient fields: complex scalar functions of chart or ambient coordinates.

Expression-backed fields evaluate vectorized through the expression engine's array
path, and at one point on float64 scalars; callable ones loop, or take the whole
batch.  ``factors`` gives a field's values on a grid as factors for
``quadrature.weighted_sum``: a real expression field splits its top-level product,
and an ``exp`` of a sum by the coordinates its terms read (see EXP_SPLIT_LIMIT), so
tube and test Gaussians stay one axis long; a square of a sum or a product of sums
there expands first, and its like monomials collect, a coefficient within its own
rounding bound counting as zero.  Each group is evaluated once per grid, where the
range guard reads it, and is an array factor; one that reads every axis splits off
only on a grid of at most EVAL_CHUNK nodes.  A multiplicand left whole is an array
evaluated once if it reads fewer than every axis, else a callable run on each block.
Fields that differ only in parameter values (``with_params``) share their factor
groups, which split and compile once.  Coordinates are named ``<prefix>1 ..
<prefix>dim`` with prefix "u" on charts and "x" in the ambient space.
"""
from __future__ import annotations

import operator
from functools import cached_property, reduce
from typing import Callable, Mapping, get_args

import numpy as np

from . import exprlang, quadrature
from .exprlang import ZERO, BinOp, Call, Expr, Neg, Num, add, mul, sub
from .quadrature import Grid

EXP_SPLIT_LIMIT = 708.0  # bound on an exp's groups' summed max |exponent|: products stay normal


class ScalarField:
    """Interface: a complex scalar field evaluated on a batch: a quadrature ``Grid``
    (values in its ``dims``), a tuple of coordinate arrays (values in their
    broadcast shape) or an (N, dim) array of points (values (N,))."""

    def eval_many(self, points) -> np.ndarray:
        raise NotImplementedError

    def factors(self, grid: Grid) -> tuple:
        """Factors of ``eval_many`` on a ``Grid`` for ``quadrature.weighted_sum``."""
        return (self.eval_many,)

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
        b = self._bindings(cols)
        value = np.asarray(exprlang.evaluate(self.re_expr, b), dtype=float)
        if self.im_expr is not None:
            value = value + 1j * np.asarray(exprlang.evaluate(self.im_expr, b))
        return np.broadcast_to(value, shape)

    def __call__(self, point) -> complex:
        """The value at one point, bound as float64 scalars: a power that overflows gives
        inf, as in ``eval_many``, not a Python float's DomainError.  Values agree with
        ``eval_many`` to a few ulp: numpy's scalar exp, sin and cos may round otherwise."""
        b = self._bindings(np.asarray(point, dtype=float).ravel())
        value = exprlang.evaluate(self.re_expr, b)
        if self.im_expr is not None:
            value = value + 1j * exprlang.evaluate(self.im_expr, b)
        return complex(value)

    def factors(self, grid: Grid) -> tuple:
        # a real field's * chain, and an exp's groups where they may split (module docstring)
        if self.im_expr is not None:
            return super().factors(grid)
        every = frozenset(f"{self.prefix}{i + 1}" for i in range(len(grid.dims)))
        b, out = self._bindings(grid.columns()), []
        for f, groups, spans in self._factor_trees:
            groups = groups if every not in spans or len(grid) <= quadrature.EVAL_CHUNK else []
            exps = [np.asarray(exprlang.evaluate(g, b), dtype=float) for g in groups]
            if exps and sum(abs(e).max() for e in exps) <= EXP_SPLIT_LIMIT:
                out += map(np.exp, exps)
            elif every <= frozenset().union(*spans):
                out.append(lambda block, f=f: np.asarray(
                    exprlang.evaluate(f, self._bindings(block.columns())), dtype=float))
            else:
                out.append(np.asarray(exprlang.evaluate(f, b), dtype=float))
        return tuple(out)

    def _bindings(self, cols) -> dict:
        return {f"{self.prefix}{i + 1}": c for i, c in enumerate(cols)} | self.params

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
        # multiplicands, an exp's terms (its collected monomials, where it expands) summed
        # per set of coordinates read, and what each group reads; built to compile once
        fixed, out = self.params.keys() | exprlang.CONSTANTS.keys(), []
        for f in _multiplicands(self.re_expr):
            groups: dict[frozenset, list[Expr]] = {}
            terms = _terms(f.arg, fixed) if isinstance(f, Call) and f.func == "exp" else []
            if any(t is None for t, *_ in terms):
                terms = [(reduce(mul, key, Num(c)),) for c, key, _ in _collected(terms)]
            for t, *_ in terms:
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


def _terms(e: Expr, fixed: frozenset) -> list[tuple]:
    # e as a sum of terms (tree, c, factors, err): a literal coefficient c, rounded by at
    # most u err, times other multiplicands.  Unary minus, - and * or / by a nonzero literal
    # distribute over +, and so do a square of a sum and a product of two sums that read
    # two coordinates or more, into products of their collected terms, with no tree
    if isinstance(e, Neg):
        return [(t and sub(ZERO, t), -c, f, err) for t, c, f, err in _terms(e.arg, fixed)]
    if not isinstance(e, BinOp):
        return [(e, e.value, (), 0.0) if isinstance(e, Num) else (e, 1.0, (e,), 0.0)]
    if e.op in "+-":
        return _terms(e.left, fixed) + _terms(e.right if e.op == "+" else Neg(e.right), fixed)
    if e.op == "*" and isinstance(e.left, Num):
        e = BinOp("*", e.right, e.left)  # c*x is x*c, bitwise
    if e.op in "*/" and isinstance(e.right, Num) and (e.op == "*" or e.right.value):
        k, op = e.right.value, operator.mul if e.op == "*" else operator.truediv
        return [(t and BinOp(e.op, t, e.right), op(c, k), f, op(err, abs(k)) + abs(op(c, k)))
                for t, c, f, err in _terms(e.left, fixed)]
    square = e.op == "^" and e.right == Num(2.0)
    wide = (e.op == "*" or square) and len(exprlang.reads(e) - fixed) > 1
    if e.op != "*" and not wide:
        return [(e, 1.0, (e,), 0.0)]
    left = _terms(e.left, fixed)
    right = left if square else _terms(e.right, fixed)
    if wide and len(cl := _collected(left)) > 1 and len(cr := _collected(right)) > 1:
        return [(None, *_times(a, b)) for a in cl for b in cr]  # fewer, better-rounded
    if square:
        return [(e, 1.0, (e,), 0.0)]
    return [(e, *_times(*(s[0][1:] if len(s) == 1 else (1.0, (x,), 0.0)  # a side of several
                          for s, x in ((left, e.left), (right, e.right)))))]  # terms stays whole


def _times(a: tuple, b: tuple) -> tuple:
    # the product of monomials (c, factors, err), its coefficient rounded once more
    (ca, fa, ra), (cb, fb, rb) = a, b
    return ca * cb, fa + fb, abs(ca) * rb + abs(cb) * ra + abs(ca * cb)


def _collected(terms: list[tuple]) -> list[tuple]:
    # like monomials as one (c, factors, err): their coefficients sum in order, and a sum
    # within a finite rounding bound is zero and left out (Higham, Accuracy and Stability
    # of Numerical Algorithms, ch. 3): u = 2^-53 times the terms' magnitudes, each weighted
    # by its own roundings and the n - 1 additions.  An overflow stays for the range guard.
    sums: dict[tuple[Expr, ...], list] = {}
    for _, c, factors, err in terms:
        s = sums.setdefault(tuple(sorted(factors, key=exprlang.to_source)), [0.0, 0.0, 0.0, 0])
        s[:] = s[0] + c, s[1] + err, s[2] + abs(c), s[3] + 1
    kept = [(c, key, err + (n - 1) * size) for key, (c, err, size, n) in sums.items()]
    return [m for m in kept if not abs(m[0]) <= 2.0 ** -53 * m[2] < np.inf]


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

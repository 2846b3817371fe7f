"""Coefficient fields: complex scalar functions of chart or ambient coordinates.

Expression-backed fields evaluate vectorized through the expression engine's
array path; callable-backed fields fall back to a python loop.  Coordinates
are named ``<prefix>1 .. <prefix>dim`` with prefix "u" on charts and "x" in
the ambient space.
"""
from __future__ import annotations

from typing import Callable, Mapping, get_args

import numpy as np

from . import exprlang
from .exprlang import ZERO, Expr, Num, add, mul, sub
from .quadrature import Grid


class ScalarField:
    """Interface: a complex scalar field evaluated on a batch: a quadrature ``Grid``
    (values in its ``dims``), a tuple of coordinate arrays (values in their
    broadcast shape) or an (N, dim) array of points (values (N,))."""

    def eval_many(self, points) -> np.ndarray:
        raise NotImplementedError

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
        b = {f"{self.prefix}{i + 1}": c for i, c in enumerate(cols)}
        b.update(self.params)
        value = np.asarray(exprlang.evaluate(self.re_expr, b), dtype=float)
        if self.im_expr is not None:
            value = value + 1j * np.asarray(exprlang.evaluate(self.im_expr, b))
        return np.broadcast_to(value, shape)

    def scaled(self, factor: complex) -> "ExprField":
        """Fold a complex constant into the expression trees."""
        a, b = Num(float(np.real(factor))), Num(float(np.imag(factor)))
        re, im = self.re_expr, self.im_expr or ZERO
        new_im = add(mul(b, re), mul(a, im))
        return ExprField(sub(mul(a, re), mul(b, im)), None if new_im == ZERO else new_im,
                         self.prefix, self.params)


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

"""Seeded random expression trees that are smooth at every real point.

Division and the non-integer power shield their critical argument (denominator
bounded away from 0, base bounded away from 0 from above), sqrt and log get a
positive shift, so central finite differences are valid everywhere and the
symbolic jacobian can be compared against them without domain babysitting.
"""
import numpy as np

from geodens.exprlang import BinOp, Call, Neg, Num, Var, evaluate, jacobian


def _num(v: float):
    # a negative constant as Neg(Num(|v|)), printed "-(|v|)"; the parser reads
    # a bare "-v" as the literal Num(-v)
    if v == 0.0:
        return Num(0.0)
    return Neg(Num(-v)) if v < 0.0 else Num(v)


def random_expr(rng: np.random.Generator, nvars: int, depth: int):
    if depth <= 0 or rng.random() < 0.2:
        r = rng.random()
        if r < 0.45:
            return Var(f"u{rng.integers(1, nvars + 1)}")
        if r < 0.55:
            return Var("pi")
        return _num(round(float(rng.uniform(-3.0, 3.0)), 3))
    sub = lambda: random_expr(rng, nvars, depth - 1)
    r = rng.random()
    if r < 0.12:
        return Neg(sub())
    if r < 0.42:
        return BinOp(rng.choice(["+", "-", "*"]), sub(), sub())
    if r < 0.52:
        # denominator >= 2
        return BinOp("/", sub(), BinOp("+", Num(2.0), BinOp("^", sub(), Num(2.0))))
    if r < 0.62:
        if rng.random() < 0.5:
            return BinOp("^", sub(), Num(float(rng.integers(2, 4))))
        # positive bounded base, fractional exponent
        return BinOp("^", Call("exp", Call("sin", sub())),
                     Num(round(float(rng.uniform(0.5, 1.5)), 3)))
    if r < 0.74:
        return Call("exp", Call("sin", sub()))
    if r < 0.86:
        return Call(rng.choice(["sin", "cos"]), sub())
    if r < 0.93:
        return Call("sqrt", BinOp("+", Num(1.5), Call("sin", sub())))
    return Call("log", BinOp("+", Num(2.0), Call("sin", sub())))


def fd_gradient(expr, point: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar expression at one point."""
    point = np.asarray(point, dtype=float)
    out = np.zeros(point.size)
    for i in range(point.size):
        lo, hi = point.copy(), point.copy()
        lo[i] -= h
        hi[i] += h
        f_hi = evaluate(expr, {f"u{j + 1}": hi[j] for j in range(point.size)})
        f_lo = evaluate(expr, {f"u{j + 1}": lo[j] for j in range(point.size)})
        out[i] = (f_hi - f_lo) / (2.0 * h)
    return out


def ad_matches_fd(expr, point, rel_tol: float = 1e-6) -> bool:
    ad = jacobian([expr], point)[0]
    fd = fd_gradient(expr, point)
    scale = np.maximum(1.0, np.abs(fd))
    return bool(np.all(np.abs(ad - fd) <= rel_tol * scale))

"""Small arithmetic expression language for coefficients and chart maps.

Grammar, loosest binding first::

    sum     := product (('+' | '-') product)*
    product := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          right associative
    atom    := NUMBER | IDENT | IDENT '(' sum ')' | '(' sum ')'

so '^' binds tighter than unary minus: ``-u1^2`` is ``-(u1^2)``.

Functions: exp, sin, cos, sqrt, log.  ``pi`` is a reserved constant.
Any other identifier is free and must be bound at evaluation time
(chart coordinates u1..uk, ambient coordinates x1..xn, fiber coordinates
xi1..xiq, named scene parameters).

Evaluation works on floats and, elementwise, on numpy arrays.  ``diff``
builds the derivative of a tree as another tree, so derivatives evaluate
through the same vectorized ``evaluate`` as values; ``jacobian`` evaluates
them at a point.  Derivatives are exact, no finite differences anywhere.
A domain guard costs a pass over an array only when the operand that
decides it can trigger it: ``x^2`` never scans ``x``, ``x^0.5`` does.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnboundIdentifier, UnknownFunction

__all__ = [
    "Expr", "Num", "Var", "Neg", "BinOp", "Call",
    "parse", "evaluate", "diff", "jacobian", "subst", "to_source",
    "FUNCTIONS", "CONSTANTS",
]


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Call]

CONSTANTS = {"pi": math.pi}


def _f_sqrt(v):
    if np.any(np.asarray(v) < 0.0):
        raise DomainError("sqrt of a negative value")
    return np.sqrt(v)


def _f_log(v):
    if np.any(np.asarray(v) <= 0.0):
        raise DomainError("log of a non-positive value")
    return np.log(v)


FUNCTIONS = {"exp": np.exp, "sin": np.sin, "cos": np.cos,
             "sqrt": _f_sqrt, "log": _f_log}


# lexing / parsing

_TOKEN_RE = re.compile(r"""
      (?P<ws>\s+)
    | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>[-+*/^()])
""", re.VERBOSE)


def _byte_offset(source: str, index: int) -> int:
    return len(source[:index].encode("utf-8"))


def _tokenize(source: str):
    tokens = []
    i = 0
    while i < len(source):
        m = _TOKEN_RE.match(source, i)
        if m is None:
            raise ExprSyntaxError(
                f"unexpected character {source[i]!r}", _byte_offset(source, i))
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), _byte_offset(source, i)))
        i = m.end()
    tokens.append(("end", "", _byte_offset(source, len(source))))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        self.advance()

    def parse(self) -> Expr:
        e = self.sum()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {text!r}", off)
        return e

    def sum(self) -> Expr:
        e = self.product()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.advance()[1]
            e = BinOp(op, e, self.product())
        return e

    def product(self) -> Expr:
        e = self.unary()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.advance()[1]
            e = BinOp(op, e, self.unary())
        return e

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        e = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", e, self.unary())
        return e

    def atom(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if self.peek()[0] == "op" and self.peek()[1] == "(":
                if text not in FUNCTIONS:
                    raise UnknownFunction(
                        f"unknown function {text!r} at offset {off}")
                self.advance()
                arg = self.sum()
                self.expect_op(")")
                return Call(text, arg)
            return Var(text)
        if kind == "op" and text == "(":
            e = self.sum()
            self.expect_op(")")
            return e
        shown = text if text else "end of input"
        raise ExprSyntaxError(f"unexpected {shown!r}", off)


def parse(source: str) -> Expr:
    """Parse source text into an expression tree."""
    return _Parser(source).parse()


# evaluation

def evaluate(expr: Expr, bindings: Mapping[str, object] | None = None):
    """Evaluate an expression tree.

    Bindings map identifier names to floats or numpy arrays (elementwise
    evaluation).  ``pi`` resolves before bindings.
    """
    return _ev(expr, bindings or {})


def _ev(e: Expr, b: Mapping[str, object]):
    # module level, not a closure over itself: a self-referencing closure is
    # a reference cycle that would keep the bindings alive until the cyclic
    # collector runs
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.name in CONSTANTS:
            return CONSTANTS[e.name]
        try:
            return b[e.name]
        except KeyError:
            raise UnboundIdentifier(f"unbound identifier {e.name!r}") from None
    if isinstance(e, Neg):
        return -_ev(e.arg, b)
    if isinstance(e, Call):
        return FUNCTIONS[e.func](_ev(e.arg, b))
    left = _ev(e.left, b)
    right = _ev(e.right, b)
    if e.op == "+":
        return left + right
    if e.op == "-":
        return left - right
    if e.op == "*":
        return left * right
    if e.op == "/":
        return _div(left, right)
    return _pow(left, right)


def _div(a, b):
    if np.any(np.asarray(b) == 0.0):
        raise DomainError("division by zero")
    return a / b


def _pow(a, b):
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    nonint = bv != np.round(bv)
    if np.any(nonint) and np.any((av < 0.0) & nonint):
        raise DomainError("negative base with non-integer exponent")
    if np.any(bv < 0.0) and np.any((av == 0.0) & (bv < 0.0)):
        raise DomainError("zero base with negative exponent")
    return a ** b


# differentiation

_ZERO, _ONE = Num(0.0), Num(1.0)


def _plus(a: Expr, b: Expr) -> Expr:
    if a == _ZERO:
        return b
    return a if b == _ZERO else BinOp("+", a, b)


def _minus(a: Expr, b: Expr) -> Expr:
    if b == _ZERO:
        return a
    return Neg(b) if a == _ZERO else BinOp("-", a, b)


def _times(a: Expr, b: Expr) -> Expr:
    if a == _ZERO or b == _ZERO:
        return _ZERO
    if a == _ONE:
        return b
    return a if b == _ONE else BinOp("*", a, b)


def _over(a: Expr, b: Expr) -> Expr:
    if a == _ZERO:
        return _ZERO
    return a if b == _ONE else BinOp("/", a, b)


def _power_factor(base: Expr, p: Expr) -> Expr:
    # d(base^p)/d(base) for an exponent that does not vary
    if not isinstance(p, Num):
        return BinOp("*", p, BinOp("^", base, BinOp("-", p, _ONE)))
    if p.value in (0.0, 1.0):
        return p  # the factors of a^0 and a^1 are 0 and 1
    lowered = base if p.value == 2.0 else BinOp("^", base, Num(p.value - 1.0))
    return BinOp("*", p, lowered)


# d f(a) / da, given a and the call node f(a) itself; log's factor 1/a is
# written exp(-log a) so that it keeps log's domain check
_CALL_FACTORS = {
    "exp": lambda a, e: e,
    "sin": lambda a, e: Call("cos", a),
    "cos": lambda a, e: Neg(Call("sin", a)),
    "sqrt": lambda a, e: BinOp("/", Num(0.5), e),
    "log": lambda a, e: Call("exp", Neg(e)),
}


def diff(expr: Expr, var: str) -> Expr:
    """Derivative tree of ``expr`` in the identifier ``var``.

    Zero and unit terms fold away, and a power with an exponent that does
    not depend on ``var`` differentiates as ``c*a^(c-1)*a'``, so its
    negative bases stay valid.  A varying exponent needs ``log`` of the
    base: ``a^b (b' log a + b a'/a)``.  Evaluating the tree raises
    DomainError where the derivative is unbounded, for instance ``sqrt``
    or ``u^0.5`` at 0.
    """
    if isinstance(expr, Num):
        return _ZERO
    if isinstance(expr, Var):
        return _ONE if expr.name == var else _ZERO
    if isinstance(expr, Neg):
        return _minus(_ZERO, diff(expr.arg, var))
    if isinstance(expr, Call):
        return _times(_CALL_FACTORS[expr.func](expr.arg, expr), diff(expr.arg, var))
    a, b = expr.left, expr.right
    da, db = diff(a, var), diff(b, var)
    if expr.op == "+":
        return _plus(da, db)
    if expr.op == "-":
        return _minus(da, db)
    if expr.op == "*":
        return _plus(_times(da, b), _times(a, db))
    if expr.op == "/":
        return _over(_minus(da, _times(expr, db)), b)
    if db == _ZERO:
        return _times(_power_factor(a, b), da)
    return _times(expr, _plus(_times(db, Call("log", a)), _over(_times(b, da), a)))


def jacobian(exprs, point, bindings: Mapping[str, float] | None = None,
             prefix: str = "u") -> np.ndarray:
    """Exact jacobian of component expressions in <prefix>1..<prefix>k at ``point``.

    Returns shape (len(exprs), k).  Extra ``bindings`` (named parameters) are
    held constant.
    """
    p = np.asarray(point, dtype=float)
    names = [f"{prefix}{i + 1}" for i in range(p.shape[0])]
    values = {**dict(zip(names, p)), **(bindings or {})}
    rows = [[float(evaluate(diff(e, v), values)) for v in names] for e in exprs]
    return np.array(rows, dtype=float).reshape(len(exprs), len(names))


def subst(expr: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace free identifiers with expression trees."""
    if isinstance(expr, Num):
        return expr
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Neg):
        return Neg(subst(expr.arg, mapping))
    if isinstance(expr, Call):
        return Call(expr.func, subst(expr.arg, mapping))
    return BinOp(expr.op, subst(expr.left, mapping), subst(expr.right, mapping))


# printing

_LEFT_MIN = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 5}
_RIGHT_MIN = {"+": 2, "-": 2, "*": 3, "/": 3, "^": 3}


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return 4 if e.op == "^" else (2 if e.op in "*/" else 1)
    if isinstance(e, Neg):
        return 3
    if isinstance(e, Num) and e.value < 0:
        return 3
    return 5


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _emit(e: Expr) -> str:
    if isinstance(e, Num):
        return _fmt_num(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({_emit(e.arg)})"
    if isinstance(e, Neg):
        inner = _emit(e.arg)
        if _prec(e.arg) < 3:
            inner = f"({inner})"
        return f"-{inner}"
    left = _emit(e.left)
    if _prec(e.left) < _LEFT_MIN[e.op]:
        left = f"({left})"
    right = _emit(e.right)
    if _prec(e.right) < _RIGHT_MIN[e.op]:
        right = f"({right})"
    if e.op == "^":
        return f"{left}^{right}"
    return f"{left} {e.op} {right}" if e.op in "+-" else f"{left}{e.op}{right}"


def to_source(expr: Expr) -> str:
    """Render a tree back to source.  Printing then parsing returns the same tree."""
    return _emit(expr)

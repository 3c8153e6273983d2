"""Tiny expression language for problem descriptions.

Coefficient functions, forcings and nonlinear terms are written as strings in
the variables x, p, dp, d2p, q, dq, d2q (dp means p', d2p means p'').  Grammar,
in order of increasing precedence:

    expr    :=  term (('+' | '-') term)*
    term    :=  factor (('*' | '/') factor)*
    factor  :=  '-' factor | power
    power   :=  primary ('^' ['-'] number)?
    primary :=  number | variable | function '(' expr ')' | '(' expr ')'

Functions: exp, sin, cos, ln, sqrt.  Whitespace is insignificant.  Numeric
literals must be finite.  Exponents must be numeric literals, so -x^2 means
-(x^2) and polynomial sources stay polynomials; small integer exponents are
evaluated by repeated multiplication for exactness.  Nesting is bounded:
each operator, call, unary minus and pair of parentheses is one level, and
a source more than MAX_DEPTH levels deep is a syntax error.

Evaluation is vectorized: the variables of a PointState may be floats or
equal-length arrays, and one walk of the tree does one numpy operation per
node over all points at once.  Division by zero, ln or sqrt outside their
domain, sin or cos of an infinite value, overflow in exp or ^, and a
non-integer power of a negative base are faults: evaluation raises
ExprEvalError carrying the first offending abscissa, the same error that
evaluating the points one at a time would raise first.
"""

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ExprEvalError, ExprSyntaxError

VARIABLES = ("x", "p", "dp", "d2p", "q", "dq", "d2q")
FUNCTIONS = ("exp", "sin", "cos", "ln", "sqrt")

# exponents up to this size are expanded as repeated multiplication
_POW_UNROLL = 16

# the parser and the recursive walks below stay within Python's default
# recursion limit on every tree this deep
MAX_DEPTH = 100


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: float


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Pow, Call]


@dataclass(frozen=True)
class PointState:
    """Values of the seven variables at one abscissa, or at many.

    Each field is a float or a 1-d array; arrays share one length.
    """

    x: float = 0.0
    p: float = 0.0
    dp: float = 0.0
    d2p: float = 0.0
    q: float = 0.0
    dq: float = 0.0
    d2q: float = 0.0


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S))"
)


def _tokenize(source):
    tokens = []
    for m in _TOKEN.finditer(source):  # only trailing whitespace goes unmatched
        kind = m.lastgroup
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {m.group(kind)!r}", m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind)))
    return tokens + [("end", "", len(source))]


class _Parser:
    """Recursive descent: each rule takes its level and returns (node, height)."""

    def __init__(self, source):
        self.tokens = _tokenize(source)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        self.idx += 1
        return self.tokens[self.idx - 1]

    def expect_op(self, symbol):
        if not self.at_op(symbol):
            raise ExprSyntaxError(f"expected {symbol!r}", self.peek()[2])
        return self.advance()

    def at_op(self, *symbols):
        kind, text, _ = self.peek()
        return kind == "op" and text in symbols

    def nested(self, height, level, pos):
        """height, refused at pos when the nesting it closes exceeds MAX_DEPTH."""
        if level + height > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", pos)
        return height

    def parse(self):
        node, _ = self.expr(0)
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", pos)
        return node

    def expr(self, level):
        return self.chain(level, ("+", "-"), self.term)

    def term(self, level):
        return self.chain(level, ("*", "/"), self.factor)

    def chain(self, level, ops, operand):
        """operand (op operand)* for op in ops, grouped from the left."""
        node, height = operand(level)
        while self.at_op(*ops):
            _, op, pos = self.advance()
            right, h = operand(level)
            node, height = BinOp(op, node, right), self.nested(1 + max(height, h), level, pos)
        return node, height

    def factor(self, level):
        self.nested(1, level, self.peek()[2])  # even a leaf here may be too deep
        if self.at_op("-"):
            self.advance()
            operand, height = self.factor(level + 1)
            return Neg(operand), height + 1
        return self.power(level)

    def power(self, level):
        base, height = self.primary(level)
        if not self.at_op("^"):
            return base, height
        _, _, caret = self.advance()
        sign = 1.0
        if self.at_op("-"):
            self.advance()
            sign = -1.0
        kind, _, pos = self.peek()
        if kind != "num":
            raise ExprSyntaxError("exponent must be a numeric literal", pos)
        return Pow(base, sign * self.number()), self.nested(height + 1, level, caret)

    def number(self):
        _, text, pos = self.advance()
        value = float(text)
        if not math.isfinite(value):
            raise ExprSyntaxError(f"numeric literal {text} is not finite", pos)
        return value

    def primary(self, level):
        kind, text, pos = self.peek()
        if kind == "num":
            return Num(self.number()), 1
        self.advance()
        if kind == "ident":
            if text in VARIABLES:
                return Var(text), 1
            if text in FUNCTIONS:
                self.expect_op("(")
                arg, height = self.expr(level + 1)
                self.expect_op(")")
                return Call(text, arg), height + 1
            raise ExprSyntaxError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            node, height = self.expr(level + 1)
            self.expect_op(")")
            return node, height + 1
        shown = text if text else "end of input"
        raise ExprSyntaxError(f"unexpected {shown!r}", pos)


def parse(source):
    """Parse an expression string into an immutable AST."""
    return _Parser(source).parse()


# function name -> (numpy function, fault mask from argument and value, message)
_CALLS = {
    "exp": (np.exp, lambda v, out: np.isinf(out) & np.isfinite(v), "exp({}) overflows"),
    "sin": (np.sin, lambda v, out: np.isinf(v), "sin of non-finite value {}"),
    "cos": (np.cos, lambda v, out: np.isinf(v), "cos of non-finite value {}"),
    "ln": (np.log, lambda v, out: v <= 0.0, "ln of non-positive value {}"),
    "sqrt": (np.sqrt, lambda v, out: v < 0.0, "sqrt of negative value {}"),
}

_BINOPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def _fault(faults, mask, message, operand):
    """Record the points where mask holds; message is formatted with operand."""
    if np.any(mask):
        faults.append((mask, message, operand))


def _pow(base, exponent, faults):
    if float(exponent).is_integer() and abs(exponent) <= _POW_UNROLL:
        n = int(exponent)
        out = 1.0
        for _ in range(abs(n)):
            out = out * base
        if n < 0:
            _fault(faults, out == 0.0, "zero raised to a negative power", base)
            out = 1.0 / out
    else:
        out = np.power(base, exponent)
        undefined = (np.isnan(out) & ~np.isnan(base)) | ((base == 0.0) & (exponent < 0))
        _fault(faults, undefined, f"{{}} ^ {exponent} is undefined", base)
    _fault(faults, np.isinf(out) & np.isfinite(base), f"{{}} ^ {exponent} overflows", base)
    return out


def _eval(e, env, faults):
    """One numpy operation per node; faulting points are recorded, not raised."""
    if isinstance(e, Num):
        return np.float64(e.value)
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Neg):
        return -_eval(e.operand, env, faults)
    if isinstance(e, Pow):
        return _pow(_eval(e.base, env, faults), e.exponent, faults)
    if isinstance(e, Call):
        func, faulty, message = _CALLS[e.func]
        v = _eval(e.arg, env, faults)
        out = func(v)
        _fault(faults, faulty(v, out), message, v)
        return out
    if isinstance(e, BinOp):
        lhs = _eval(e.left, env, faults)
        rhs = _eval(e.right, env, faults)
        if e.op == "/":
            _fault(faults, rhs == 0.0, "division by zero", rhs)
        return _BINOPS[e.op](lhs, rhs)
    raise TypeError(f"not an expression node: {e!r}")


def _first_fault(faults, x, shape):
    """The error for the lowest faulting index and the first fault met there."""
    masks = [np.broadcast_to(mask, shape).ravel() for mask, _, _ in faults]
    k = min(int(np.argmax(mask)) for mask in masks)
    _, message, operand = next(f for f, mask in zip(faults, masks) if mask[k])
    operand, x = (float(np.broadcast_to(v, shape).ravel()[k]) for v in (operand, x))
    return ExprEvalError(message.format(operand), x)


def evaluate(e, state):
    """Evaluate an AST at a PointState; arithmetic faults raise ExprEvalError.

    The state's fields are floats or equal-length 1-d arrays.  A state of
    floats gives a float; otherwise the result is an array of that length,
    with constant expressions broadcast.  When several points fault, the
    error carries the first faulting abscissa in array order and the first
    fault met at that point, exactly as evaluating the points one at a time.
    """
    env = {name: np.asarray(getattr(state, name), dtype=float) for name in VARIABLES}
    shape = np.broadcast_shapes(*(v.shape for v in env.values()))
    faults = []
    with np.errstate(all="ignore"):
        out = _eval(e, env, faults)
    if faults:
        raise _first_fault(faults, env["x"], shape)
    if shape == ():
        return float(out)
    return np.broadcast_to(out, shape).copy()


def free_vars(e):
    """The set of variable names appearing in the AST."""
    if isinstance(e, Num):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return free_vars(e.operand)
    if isinstance(e, Pow):
        return free_vars(e.base)
    if isinstance(e, Call):
        return free_vars(e.arg)
    if isinstance(e, BinOp):
        return free_vars(e.left) | free_vars(e.right)
    raise TypeError(f"not an expression node: {e!r}")


def _fmt_number(v):
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


# precedence levels used when printing: parenthesize a child whose level is
# lower than its context requires
_ADD, _MUL, _UNARY, _POW, _ATOM = 1, 2, 3, 4, 5


def _emit(e, ctx):
    if isinstance(e, Num):
        text, level = _fmt_number(e.value), _ATOM
    elif isinstance(e, Var):
        text, level = e.name, _ATOM
    elif isinstance(e, Call):
        text, level = f"{e.func}({_emit(e.arg, 0)})", _ATOM
    elif isinstance(e, Neg):
        text, level = f"-{_emit(e.operand, _UNARY)}", _UNARY
    elif isinstance(e, Pow):
        text, level = f"{_emit(e.base, _ATOM)}^{_fmt_number(e.exponent)}", _POW
    elif isinstance(e, BinOp):
        # right operand needs a bump so a - (b - c) keeps its grouping
        level = _ADD if e.op in "+-" else _MUL
        text = f"{_emit(e.left, level)} {e.op} {_emit(e.right, level + 1)}"
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return f"({text})" if level < ctx else text


def to_source(e):
    """Render an AST back to a string that reparses to an identical tree."""
    return _emit(e, 0)

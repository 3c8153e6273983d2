import math
import operator
import re
import sys

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galbern import ExprEvalError, ExprSyntaxError, PointState, evaluate, free_vars, parse, to_source
from galbern.expr import FUNCTIONS, MAX_DEPTH, VARIABLES, BinOp, Call, Neg, Num, Pow, Var, _tokenize


def ev(source, **state):
    return evaluate(parse(source), PointState(**state))


class TestParse:
    def test_quintic_forcing(self):
        assert ev("x^5 - x^3 - 18*x^2 + 12*x - 18", x=1.0) == pytest.approx(-24.0)

    def test_nonlinear_product(self):
        e = parse("(1/6) * d2p * d2q")
        assert free_vars(e) == {"d2p", "d2q"}

    def test_exponential_square(self):
        e = parse("exp(-x) * p^2")
        assert isinstance(e, BinOp) and e.op == "*"
        assert isinstance(e.left, Call) and e.left.func == "exp"
        assert e.right == Pow(Var("p"), 2.0)

    def test_whitespace_insignificant(self):
        assert parse(" 1+2 * x ") == parse("1 + 2*x")

    def test_number_forms(self):
        assert parse("2.5e-3") == Num(0.0025)
        assert parse(".5") == Num(0.5)
        assert parse("3.") == Num(3.0)


class TestEvaluate:
    def test_constant(self):
        assert ev("2") == 2.0

    def test_second_derivative_product(self):
        assert ev("d2p * dq", d2p=2.0, dq=3.0) == 6.0

    def test_scaled_exponential(self):
        assert ev("-6*exp(x)", x=0.0) == pytest.approx(-6.0)

    def test_functions(self):
        assert ev("sin(x)", x=math.pi / 2) == pytest.approx(1.0)
        assert ev("cos(x)", x=0.0) == 1.0
        assert ev("ln(x)", x=math.e) == pytest.approx(1.0)
        assert ev("sqrt(x)", x=9.0) == 3.0

    def test_precedence(self):
        assert ev("2+3*4^2") == 50.0

    def test_unary_minus_vs_power(self):
        assert ev("-x^2", x=3.0) == -9.0
        assert ev("(-x)^2", x=3.0) == 9.0

    def test_negative_exponent(self):
        assert ev("x^-2", x=2.0) == 0.25

    def test_integer_power_is_repeated_multiplication(self):
        x = 1.1
        expected = 1.0
        for _ in range(16):
            expected *= x
        assert ev("x^16", x=x) == expected  # bitwise equal

    def test_division_by_zero(self):
        with pytest.raises(ExprEvalError) as info:
            ev("1 / x", x=0.0)
        assert info.value.x == 0.0

    def test_log_of_negative(self):
        with pytest.raises(ExprEvalError):
            ev("ln(x)", x=-1.0)
        with pytest.raises(ExprEvalError):
            ev("ln(x)", x=0.0)

    def test_sqrt_of_negative(self):
        with pytest.raises(ExprEvalError):
            ev("sqrt(x - 4)", x=0.0)

    def test_error_carries_abscissa(self):
        with pytest.raises(ExprEvalError) as info:
            ev("p / (x - 1)", x=1.0, p=2.0)
        assert info.value.x == 1.0

    def test_sin_cos_of_non_finite_value(self):
        for source in ("sin(x)", "cos(x)", "sin(2 * x)"):
            with pytest.raises(ExprEvalError) as info:
                ev(source, x=math.inf)
            assert info.value.x == math.inf
            with pytest.raises(ExprEvalError) as info:
                ev(source, x=np.array([0.0, 1.0, -math.inf, math.inf]))
            assert info.value.x == -math.inf

    def test_sin_of_nan_is_nan(self):
        assert math.isnan(ev("sin(x)", x=math.nan))


class TestArrayEvaluate:
    def test_scalar_state_gives_float(self):
        assert type(ev("x^2 + p", x=3.0, p=np.float64(1.0))) is float

    def test_array_state_gives_array_of_its_length(self):
        xs = np.array([0.0, 0.5, 2.0])
        np.testing.assert_array_equal(ev("x^2 + 1", x=xs), [1.0, 1.25, 5.0])
        np.testing.assert_array_equal(ev("2.5", x=xs), [2.5, 2.5, 2.5])
        np.testing.assert_array_equal(ev("p", x=xs), [0.0, 0.0, 0.0])

    def test_result_does_not_alias_the_state(self):
        xs = np.array([1.0, 2.0])
        out = ev("x", x=xs)
        out[0] = 7.0
        assert xs[0] == 1.0

    def test_first_abscissa_wins_over_first_node(self):
        # ln faults at x = -1 first in tree order, but x = 0.5 comes first
        with pytest.raises(ExprEvalError) as info:
            ev("ln(x) + 1 / (x - 0.5)", x=np.array([1.0, 0.5, -1.0]))
        assert info.value.x == 0.5
        assert "division by zero" in str(info.value)

    def test_first_fault_at_a_point_wins(self):
        with pytest.raises(ExprEvalError) as info:
            ev("ln(x) + 1 / x", x=np.array([1.0, 0.0]))
        assert "ln of non-positive value" in str(info.value)


class TestFreeVars:
    def test_single(self):
        assert free_vars(parse("x^2")) == {"x"}

    def test_pair(self):
        assert free_vars(parse("(1/6)*d2p*d2q")) == {"d2p", "d2q"}

    def test_polynomial_forcing(self):
        assert free_vars(parse("24*x^4 + 6")) == {"x"}

    def test_constant_has_none(self):
        assert free_vars(parse("3 * 7")) == frozenset()

    def test_all_seven(self):
        e = parse("x + p + dp + d2p + q + dq + d2q")
        assert free_vars(e) == {"x", "p", "dp", "d2p", "q", "dq", "d2q"}


class TestErrors:
    def test_truncated_input(self):
        with pytest.raises(ExprSyntaxError):
            parse("x +")

    def test_unknown_character_offset(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("2 @ 3")
        assert info.value.offset == 2

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("d3p * x")
        assert "d3p" in str(info.value)
        assert info.value.offset == 0

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError):
            parse("tan(x)")

    def test_non_literal_exponent(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("x^q")
        assert "literal" in str(info.value)
        with pytest.raises(ExprSyntaxError):
            parse("x^(2)")

    def test_chained_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("x^2^3")

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse("(x + 1")
        with pytest.raises(ExprSyntaxError):
            parse("x + 1)")

    def test_empty_source(self):
        with pytest.raises(ExprSyntaxError):
            parse("")

    @pytest.mark.parametrize("source, offset", [("1e999", 0), ("2^1e999", 2), ("x * 2^-1e999", 7)])
    def test_non_finite_literal(self, source, offset):
        with pytest.raises(ExprSyntaxError) as info:
            parse(source)
        assert "not finite" in str(info.value)
        assert info.value.offset == offset


class TestDepthLimit:
    """Trees MAX_DEPTH levels deep parse, evaluate, list their variables and
    print under the default recursion limit; one level more is a syntax
    error at the token where the limit is crossed."""

    # shape -> (source of depth d, offset of the crossing token at depth d)
    SHAPES = {
        "parentheses": (lambda d: "(" * (d - 1) + "x" + ")" * (d - 1), lambda d: d - 1),
        "unary minus": (lambda d: "-" * (d - 1) + "x", lambda d: d - 1),
        "calls": (lambda d: "sin(" * (d - 1) + "x" + ")" * (d - 1), lambda d: 4 * (d - 1)),
        "sum": (lambda d: "x" + "+x" * (d - 1), lambda d: 2 * d - 3),
        "product": (lambda d: "x" + "*x" * (d - 1), lambda d: 2 * d - 3),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_deepest_accepted_tree_survives_every_walk(self, shape):
        assert sys.getrecursionlimit() <= 1000  # nothing raised the default
        source, _ = self.SHAPES[shape]
        e = parse(source(MAX_DEPTH))
        assert evaluate(e, PointState(x=np.array([0.25, 0.5]))).shape == (2,)
        assert free_vars(e) == {"x"}
        assert parse(to_source(e)) == e

    @pytest.mark.parametrize("shape", SHAPES)
    def test_one_level_deeper_is_refused_where_the_limit_is_crossed(self, shape):
        source, offset = self.SHAPES[shape]
        with pytest.raises(ExprSyntaxError, match=f"deeper than {MAX_DEPTH} levels") as info:
            parse(source(MAX_DEPTH + 1))
        assert info.value.offset == offset(MAX_DEPTH + 1)

    def test_nesting_adds_up_across_shapes(self):
        # a sum inside parentheses under a minus: 1 + 1 + (MAX_DEPTH - 2) levels
        inner = "x" + "+x" * (MAX_DEPTH - 3)
        parse(f"-({inner})")
        with pytest.raises(ExprSyntaxError):
            parse(f"-({inner}+x)")


# the tokenizer before it matched with finditer, kept as the reference
_ANCHORED_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize_by_anchored_match(source):
    tokens, pos = [], 0
    while pos < len(source):
        m = _ANCHORED_TOKEN.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            at = len(source) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {source[at]!r}", at)
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens + [("end", "", len(source))]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=" \t\u00a00123456789.eE+-*/^()xpdqsin_@#\u00e9", max_size=24))
def test_tokenizer_matches_the_anchored_reference(source):
    def outcome(tokenize):
        try:
            return tokenize(source)
        except ExprSyntaxError as err:
            return str(err), err.offset

    assert outcome(_tokenize) == outcome(_tokenize_by_anchored_match)


ROUND_TRIP_SOURCES = [
    "x^5 - x^3 - 18*x^2 + 12*x - 18",
    "(1/6) * d2p * d2q",
    "exp(-x) * p^2",
    "-(2 + x) * exp(x)",
    "-x^2",
    "2 + 3 * 4^2",
    "x - (p - q)",
    "x / (dp / dq)",
    "1 - -x",
    "sqrt(x) * ln(x + 1) / cos(x)",
    "x^-3 + 2.5e-3",
    "-(-x)",
    "((x))",
]


class TestRoundTrip:
    @pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
    def test_reparse_is_structurally_identical(self, source):
        ast = parse(source)
        assert parse(to_source(ast)) == ast

    def test_printer_respects_grouping(self):
        assert to_source(parse("x - (p - q)")) == "x - (p - q)"
        assert to_source(parse("(x + p) * q")) == "(x + p) * q"
        assert to_source(parse("(-x)^2")) == "(-x)^2"


class TestPointState:
    def test_defaults_are_zero(self):
        s = PointState()
        assert (s.x, s.p, s.dp, s.d2p, s.q, s.dq, s.d2q) == (0.0,) * 7

    def test_immutable(self):
        with pytest.raises(AttributeError):
            PointState().x = 1.0


class TestNodeEquality:
    def test_structural(self):
        assert parse("1 + x") == BinOp("+", Num(1.0), Var("x"))
        assert parse("-6*exp(x)") == BinOp("*", Neg(Num(6.0)), Call("exp", Var("x")))


# --- property: array evaluation against per-point evaluation and sympy ---

EXPONENTS = (-17.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 16.0, 17.0, 20.0, -0.5, 0.5, 1.5, 2.5, 1 / 3)
# exact intermediates beyond this size (or nonzero below its inverse) are not
# compared with sympy: float rounding there is overflow and underflow, which
# only ^ and exp report
LIMIT = 1e100
FLOAT_MAX = sys.float_info.max
ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _extend(children):
    return st.one_of(
        children.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(Pow, children, st.sampled_from(EXPONENTS)),
        st.builds(Call, st.sampled_from(FUNCTIONS), children),
    )


CONSTANTS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 0.1]), st.floats(0.0, 8.0))
ASTS = st.recursive(st.one_of(st.sampled_from(VARIABLES).map(Var), CONSTANTS.map(Num)), _extend, max_leaves=8)


@st.composite
def point_arrays(draw):
    n = draw(st.integers(1, 5))
    value = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5]), st.floats(-4.0, 4.0))
    return {name: np.array(draw(st.lists(value, min_size=n, max_size=n))) for name in VARIABLES}


def _at(x):
    """Point arrays with x given and the other variables zero."""
    x = np.array(x)
    return {name: x if name == "x" else np.zeros_like(x) for name in VARIABLES}


class _Fault(Exception):
    """Exact arithmetic has no finite real float value at this node."""


class _Skip(Exception):
    """An exact intermediate lies where float rounding is not compared."""


def _settle(v, node, scale):
    """Check one exact node value; return it as a Rational."""
    if not (v.is_real and v.is_finite):
        raise _Fault
    magnitude = abs(v)
    if magnitude > FLOAT_MAX and (isinstance(node, Pow) or getattr(node, "func", None) == "exp"):
        raise _Fault
    if magnitude > LIMIT or 0 < magnitude < 1 / LIMIT:
        raise _Skip
    scale[0] = max(scale[0], float(magnitude))
    return sp.Rational(v)


def _exact(e, point, scale):
    """Value of e at point in sympy, in the evaluator's walk order.

    Arithmetic is exact on the rational values of the float inputs; each
    function value is rounded to 60 digits.  scale[0] tracks the largest
    intermediate magnitude.
    """
    if isinstance(e, Num):
        return _settle(sp.Rational(e.value), e, scale)
    if isinstance(e, Var):
        return _settle(sp.Rational(float(point[e.name])), e, scale)
    if isinstance(e, Neg):
        return -_exact(e.operand, point, scale)
    if isinstance(e, BinOp):
        lhs = _exact(e.left, point, scale)
        rhs = _exact(e.right, point, scale)
        if e.op == "/" and rhs == 0:
            raise _Fault
        return _settle(ARITHMETIC[e.op](lhs, rhs), e, scale)
    if isinstance(e, Pow):
        base = _exact(e.base, point, scale)
        if base == 0 and e.exponent < 0:
            raise _Fault
        if float(e.exponent).is_integer():
            return _settle(base ** int(e.exponent), e, scale)
        return _settle((base ** sp.Rational(e.exponent)).evalf(60), e, scale)
    arg = _exact(e.arg, point, scale)
    func = {"exp": sp.exp, "sin": sp.sin, "cos": sp.cos, "ln": sp.log, "sqrt": sp.sqrt}[e.func]
    if (e.func == "ln" and arg <= 0) or (e.func == "sqrt" and arg < 0):
        raise _Fault
    return _settle(func(arg).evalf(60), e, scale)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(ASTS, point_arrays())
@example(parse("1 / (x - 0.5)"), _at([1.0, 0.5, 0.5]))
@example(parse("ln(x - 1) + sqrt(x)"), _at([3.0, 2.0, -1.0, 0.5]))
@example(parse("sqrt(x - 1)"), _at([2.0, 0.0]))
@example(parse("exp(x^3)"), _at([1.0, 2.0, 10.0, 9.0]))
@example(parse("(x - 1)^1.5 + x^0.5"), _at([2.0, 1.0, 0.5, -2.0]))
def test_array_evaluation_matches_points_and_sympy(e, cols):
    n = len(cols["x"])
    points = [{name: float(col[k]) for name, col in cols.items()} for k in range(n)]
    scalar = []
    for point in points:
        try:
            scalar.append(evaluate(e, PointState(**point)))
        except ExprEvalError as err:
            scalar.append(err)
    faulted = [k for k, v in enumerate(scalar) if isinstance(v, ExprEvalError)]

    # the array form is the per-point evaluation, bit for bit, or its first error
    if faulted:
        with pytest.raises(ExprEvalError) as info:
            evaluate(e, PointState(**cols))
        assert info.value.x == points[faulted[0]]["x"]
        assert str(info.value) == str(scalar[faulted[0]])
    else:
        assert evaluate(e, PointState(**cols)).tobytes() == np.array(scalar).tobytes()

    # sympy: equal to 1e-12 of the largest intermediate, or a fault at the same points
    expected = []
    for point in points:
        scale = [0.0]
        try:
            expected.append((float(_exact(e, point, scale)), scale[0]))
        except _Fault:
            expected.append(None)
        except _Skip:
            return
    assert faulted == [k for k, v in enumerate(expected) if v is None]
    for got, want in zip(scalar, expected):
        if want is not None:
            value, scale = want
            assert abs(got - value) <= 1e-12 * max(abs(value), scale)

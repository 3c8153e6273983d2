"""Galerkin assembly for the canonical coupled third-order system.

The problems handled here have the form

    u''' + c1(x) u'' + c2(x) u' + c3(x) u
         + c4(x) v'' + c5(x) v' + c6(x) v + M(x, u, u', u'', v, v', v'') = forcing

for the pair (u, v) = (p, q) and symmetrically for (q, p), on [a, b], with
both endpoint values of each function prescribed plus exactly one endpoint
derivative per function.

Each unknown is approximated as an offset polynomial carrying the endpoint
values plus a combination of interior Bernstein members,

    u~ = theta_u + sum_j c_j B_j,

and the weighted residual against each interior member B_i is set to zero.
The third-derivative term is integrated by parts twice (the endpoint values
of B_i kill the first boundary term):

    int B_i u''' dx = -[B_i' u']_b + [B_i' u']_a + int B_i'' u' dx.

At an end where u' is prescribed, the bracket is known data and moves to the
right-hand side; at the other (natural) end, u' is replaced by the trial
derivative, which adds a rank-one matrix term and an offset contribution.
The nonlinear term is never linearized into the matrix: it is evaluated on a
previous iterate and added to the right-hand side (see solver.picard_solve).
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from . import expr as ex
from .errors import AssemblyError, SpecValidationError

COEFF_VARS = frozenset(("x",))


@dataclass(frozen=True)
class BoundaryData:
    """Three conditions for one third-order unknown.

    Both endpoint values are prescribed (the interior basis cannot move
    them), plus the first derivative at exactly one end; the derivative at
    the opposite end is a natural condition absorbed by the weak form.
    """

    value_a: float
    value_b: float
    deriv_end: str  # 'a' or 'b'
    deriv_value: float

    def __post_init__(self):
        if self.deriv_end not in ("a", "b"):
            raise SpecValidationError(
                f"deriv_end must be 'a' or 'b', got {self.deriv_end!r}"
            )

    @property
    def natural_end(self):
        return "b" if self.deriv_end == "a" else "a"


def _check_vars(e, allowed, what):
    if e is None:
        return
    extra = ex.free_vars(e) - allowed
    if extra:
        raise SpecValidationError(
            f"{what} may only use {sorted(allowed)}; found {sorted(extra)}"
        )


@dataclass(frozen=True)
class ProblemSpec:
    """Canonical coupled system: coefficients, forcings, nonlinearities, BCs.

    p_coeffs/q_coeffs hold the six linear coefficients (own u'', u', u, then
    cross v'', v', v) as expression ASTs in x, with None meaning zero.  m1/m2
    are the optional nonlinear terms of the p- and q-equations.  exact_p and
    exact_q are optional reference solutions used only for error reporting.
    """

    domain: tuple
    p_coeffs: tuple = (None,) * 6
    q_coeffs: tuple = (None,) * 6
    f: "ex.Expr | None" = None
    g: "ex.Expr | None" = None
    m1: "ex.Expr | None" = None
    m2: "ex.Expr | None" = None
    bc_p: BoundaryData = field(default=None)
    bc_q: BoundaryData = field(default=None)
    exact_p: "ex.Expr | None" = None
    exact_q: "ex.Expr | None" = None

    def __post_init__(self):
        a, b = self.domain
        if not (np.isfinite(a) and np.isfinite(b) and b > a):
            raise SpecValidationError(f"domain must satisfy a < b, got {self.domain!r}")
        object.__setattr__(self, "domain", (float(a), float(b)))
        for coeffs, tag in ((self.p_coeffs, "a"), (self.q_coeffs, "b")):
            if len(coeffs) != 6:
                raise SpecValidationError(f"{tag}1..{tag}6 must have length 6")
            for k, c in enumerate(coeffs, start=1):
                _check_vars(c, COEFF_VARS, f"coefficient {tag}{k}")
        _check_vars(self.f, COEFF_VARS, "forcing f")
        _check_vars(self.g, COEFF_VARS, "forcing g")
        _check_vars(self.exact_p, COEFF_VARS, "exact p")
        _check_vars(self.exact_q, COEFF_VARS, "exact q")
        _check_vars(self.m1, frozenset(ex.VARIABLES), "nonlinear term of equation p")
        _check_vars(self.m2, frozenset(ex.VARIABLES), "nonlinear term of equation q")
        if self.bc_p is None or self.bc_q is None:
            raise SpecValidationError("boundary data required for both functions")

    @property
    def is_linear(self):
        return self.m1 is None and self.m2 is None


@dataclass(frozen=True)
class AffineOffset:
    """Polynomial carrying the prescribed endpoint values of one unknown.

    Stored as monomial coefficients in ascending order.  Any polynomial with
    the right endpoint values works: changing the offset reparametrizes the
    same trial set, so the converged trial function is unchanged.
    """

    coefficients: tuple

    def value(self, x, order=0):
        c = np.asarray(self.coefficients, dtype=float)
        for _ in range(order):
            c = P.polyder(c)
        out = P.polyval(np.asarray(x, dtype=float), c)
        return float(out) if np.isscalar(x) else out


def build_offset(bc, domain):
    """Linear interpolant of the endpoint values.

    theta(x) = value_a (b - x)/(b - a) + value_b (x - a)/(b - a).  Prescribed
    derivative data is NOT imposed here; it enters the weak form as natural
    boundary data.
    """
    a, b = domain
    slope = (bc.value_b - bc.value_a) / (b - a)
    return AffineOffset((bc.value_a - slope * a, slope))


def _offset_or_default(offsets, spec):
    if offsets is None:
        return (build_offset(spec.bc_p, spec.domain), build_offset(spec.bc_q, spec.domain))
    theta_p, theta_q = offsets
    for theta, bc, tag in ((theta_p, spec.bc_p, "p"), (theta_q, spec.bc_q, "q")):
        a, b = spec.domain
        scale = 1.0 + abs(bc.value_a) + abs(bc.value_b)
        if abs(theta.value(a) - bc.value_a) > 1e-13 * scale or (
            abs(theta.value(b) - bc.value_b) > 1e-13 * scale
        ):
            raise SpecValidationError(
                f"offset for {tag} does not interpolate its endpoint values"
            )
    return (theta_p, theta_q)


@dataclass(frozen=True)
class AssembledSystem:
    """Dense block system [[A, H], [D, C]] and its right-hand side.

    Row i of a block is the test index, column j the trial index; the first
    half of the unknown vector holds the p coefficients, the second half q.
    The lagged nonlinear vector is produced separately and added to rhs on
    each iteration.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    size: int  # m = degree - 1, per function

    def __post_init__(self):
        self.matrix.setflags(write=False)
        self.rhs.setflags(write=False)


def _coef_values(e, xs):
    if e is None:
        return np.zeros_like(xs)
    return np.array([ex.evaluate(e, ex.PointState(x=float(xk))) for xk in xs])


class _Workspace:
    """One solve's discretization, shared by every assembly pass over it.

    Holds the interior basis tables (orders 0-2) at the quadrature nodes, the
    members' first derivatives at both ends, and the values of both offsets
    ('p' and 'q') and their first two derivatives at the nodes.
    """

    def __init__(self, spec, basis, rule, offsets):
        if abs(basis.a - spec.domain[0]) > 1e-12 or abs(basis.b - spec.domain[1]) > 1e-12:
            raise SpecValidationError("basis interval differs from the problem domain")
        self.spec = spec
        self.theta = dict(zip("pq", _offset_or_default(offsets, spec)))
        self.xs = np.asarray(rule.points)
        self.w = np.asarray(rule.weights)
        self.tables = [basis.interior_table(self.xs, order) for order in (0, 1, 2)]
        ends = basis.interior_table(spec.domain, 1)
        self.d1 = {"a": ends[:, 0], "b": ends[:, 1]}
        self.th = {
            which: tuple(theta.value(self.xs, order) for order in (0, 1, 2))
            for which, theta in self.theta.items()
        }
        self.m = basis.degree - 1


def _equation_blocks(ws, coeffs, forcing, bc, u, v):
    """Own block, cross block and load vector for the equation of unknown u.

    u and v are 'p' and 'q' in either order, as in the module docstring.
    """
    P0, P1, P2 = ws.tables
    w = ws.w
    c1, c2, c3, c4, c5, c6 = (_coef_values(c, ws.xs) for c in coeffs)

    own = (P2 * w) @ P1.T
    own += (P0 * (w * c1)) @ P2.T + (P0 * (w * c2)) @ P1.T + (P0 * (w * c3)) @ P0.T
    cross = (P0 * (w * c4)) @ P2.T + (P0 * (w * c5)) @ P1.T + (P0 * (w * c6)) @ P0.T

    th0, th1, th2 = ws.th[u]
    tc0, tc1, tc2 = ws.th[v]
    rhs = P0 @ (w * _coef_values(forcing, ws.xs))
    rhs -= P0 @ (w * (c1 * th2 + c2 * th1 + c3 * th0))
    rhs -= P0 @ (w * (c4 * tc2 + c5 * tc1 + c6 * tc0))
    rhs -= P2 @ (w * th1)

    # prescribed-derivative bracket: known data on the load side
    a, b = ws.spec.domain
    if bc.deriv_end == "b":
        rhs += ws.d1["b"] * bc.deriv_value
    else:
        rhs -= ws.d1["a"] * bc.deriv_value
    # natural end: substitute the trial derivative; sign -1 at b, +1 at a
    e = bc.natural_end
    s = -1.0 if e == "b" else 1.0
    d = ws.d1[e]
    own += s * np.outer(d, d)
    rhs -= s * d * ws.theta[u].value(b if e == "b" else a, 1)
    return own, cross, rhs


def assemble_linear(spec, basis, rule, offsets=None, *, workspace=None):
    """Build the linear part of the discrete system.

    Returns an AssembledSystem whose matrix and rhs are independent of any
    iterate; for a purely linear problem this is the whole discretization.

    Args:
        offsets: optional (theta_p, theta_q) overriding the default linear
            interpolants; each must interpolate its endpoint values.
        workspace: the solve's discretization, when the caller has already
            built it from these same arguments.
    """
    ws = workspace or _Workspace(spec, basis, rule, offsets)
    # coefficient blowups surface via the finiteness check below, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        A, H, F = _equation_blocks(ws, spec.p_coeffs, spec.f, spec.bc_p, "p", "q")
        C, D, G = _equation_blocks(ws, spec.q_coeffs, spec.g, spec.bc_q, "q", "p")
    K = np.block([[A, H], [D, C]])
    rhs = np.concatenate([F, G])
    if not np.all(np.isfinite(K)):
        i, j = np.argwhere(~np.isfinite(K))[0]
        raise AssemblyError(f"non-finite matrix entry at row {i}, column {j}")
    if not np.all(np.isfinite(rhs)):
        (i,) = np.argwhere(~np.isfinite(rhs))[0]
        raise AssemblyError(f"non-finite load entry at row {i}")
    return AssembledSystem(matrix=K, rhs=rhs, size=ws.m)


def _trial_values(ws, coeffs, which):
    c = np.asarray(coeffs, dtype=float)
    return tuple(th + c @ table for th, table in zip(ws.th[which], ws.tables))


def assemble_nonlinear_rhs(spec, basis, rule, current, *, workspace=None):
    """Load-vector contribution of the nonlinear terms at a given solution.

    Entry i of the block for an equation with nonlinear term M is
    -int M(x, p~, p~', p~'', q~, q~', q~'') B_i dx, with p~, q~ the full
    trial functions of `current` (offsets included).  Zero blocks when the
    corresponding term is absent.  workspace, when given, is the solve's
    discretization, built with current's offsets.
    """
    ws = workspace or _Workspace(spec, basis, rule, (current.offset_p, current.offset_q))
    m = ws.m
    out = np.zeros(2 * m)
    if spec.is_linear:
        return out
    p0, p1, p2 = _trial_values(ws, current.coeffs_p, "p")
    q0, q1, q2 = _trial_values(ws, current.coeffs_q, "q")
    P0 = ws.tables[0]
    for term, sl in ((spec.m1, slice(0, m)), (spec.m2, slice(m, 2 * m))):
        if term is None:
            continue
        mv = np.array(
            [
                ex.evaluate(
                    term,
                    ex.PointState(
                        x=float(xk), p=p0[k], dp=p1[k], d2p=p2[k],
                        q=q0[k], dq=q1[k], d2q=q2[k],
                    ),
                )
                for k, xk in enumerate(ws.xs)
            ]
        )
        # divergent iterates may overflow here; the solver checks finiteness
        with np.errstate(over="ignore", invalid="ignore"):
            out[sl] = -(P0 @ (ws.w * mv))
    return out


def residual_norm(spec, sol, basis, rule):
    """Sup-norm of the discrete weighted residual at a solution.

    Assembles the same system as assemble_linear (with the solution's own
    offsets) and evaluates the nonlinear load at the solution itself, over
    one shared discretization, so a fixed point of the lagged iteration
    scores at the linear-solver residual scale.
    """
    ws = _Workspace(spec, basis, rule, (sol.offset_p, sol.offset_q))
    system = assemble_linear(spec, basis, rule, workspace=ws)
    c = np.concatenate([np.asarray(sol.coeffs_p, float), np.asarray(sol.coeffs_q, float)])
    nl = assemble_nonlinear_rhs(spec, basis, rule, sol, workspace=ws)
    return float(np.max(np.abs(system.matrix @ c - system.rhs - nl)))

"""Galerkin assembly for the canonical coupled third-order system.

The problems handled here have the form

    u''' + c1(x) u'' + c2(x) u' + c3(x) u
         + c4(x) v'' + c5(x) v' + c6(x) v + M(x, u, u', u'', v, v', v'') = forcing

for the pair (u, v) = (p, q) and symmetrically for (q, p), on [a, b], with
both endpoint values of each function prescribed plus exactly one endpoint
derivative per function.

Each unknown is approximated as an offset polynomial carrying the endpoint
values plus a polynomial of degree <= n vanishing at both ends,

    u~ = theta_u + sum_k c_k phi_k,

and the weighted residual against each phi_i is set to zero.  The basis is
Shen's, phi_k = (L_k - L_{k+2}) / sqrt(4k + 6), k = 0..n-2, with Legendre L_k
mapped to [a, b] (Shen 1994): it keeps cond(K) near 2e2 at n = 30.  A Solution
reports interior Bernstein coefficients, mapped exactly (Farouki 2000).  The
offset is one more trial column, whose coefficient is fixed at 1: every
Galerkin term is a test table times a trial table, and the offset's column,
known data, moves to the load.  The third-derivative term is integrated by
parts twice (the endpoint values of phi_i kill the first boundary term):

    int phi_i u''' dx = -[phi_i' u']_b + [phi_i' u']_a + int phi_i'' u' dx.

At an end where u' is prescribed, the bracket is known data and moves to the
right-hand side; at the other (natural) end, u' is replaced by the trial
derivative, which adds a rank-one term.  The nonlinear term is never
linearized into the matrix: solver.picard_solve adds it to the load at the
previous iterate, and sees this trial space only through the assembled
system: the defect of a coefficient vector, the grid distance of a step and
the Solution, which keeps its system and scores its residual there.

A degree n fixes the discretization: the default_order(n)-point Gauss rule,
exact for every polynomial integrand assembled here, and a uniform grid of
101 points.  Their basis tables depend on the interval only through the
factor (b - a)^-k of the k-th derivative, so they are tabulated once per
degree on [0, 1], cached read-only, and scaled per solve (exactly on [0, 1]).
_reference_tables is the one place that knows the basis.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import expr as ex
from .basis import MAX_DEGREE, BernsteinBasis
from .errors import AssemblyError, SpecValidationError
from .quadrature import _finite_interval, _finite_real, default_order, gauss_legendre

COEFF_VARS = frozenset(("x",))

# points of the uniform grid on which solutions are compared and sampled
_GRID_POINTS = 101


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
        for name in ("value_a", "value_b", "deriv_value"):
            value = getattr(self, name)
            if not _finite_real(value):
                raise SpecValidationError(f"{name} must be a finite real number, got {value!r}")
            object.__setattr__(self, name, float(value))

    @property
    def natural_end(self):
        return "b" if self.deriv_end == "a" else "a"


def _check_vars(e, allowed, what, note=""):
    if e is None:
        return
    try:
        extra = ex.free_vars(e) - allowed
    except TypeError:  # a node that is not an expression
        raise SpecValidationError(f"{what} must be an expression, got {e!r}") from None
    if extra:
        raise SpecValidationError(
            f"{what} may only use {sorted(allowed)}; found {sorted(extra)}{note}"
        )


def _checked_domain(domain):
    interval = _finite_interval(domain)
    if interval is None:
        raise SpecValidationError(f"domain must be two finite reals a < b, got {domain!r}")
    try:  # the largest factor by which a solve scales its tables
        (interval[1] - interval[0]) ** -2
    except OverflowError:
        raise SpecValidationError(f"domain {domain!r} is too short: (b - a)^-2 overflows") from None
    return interval


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
        object.__setattr__(self, "domain", _checked_domain(self.domain))
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
        if not (isinstance(self.bc_p, BoundaryData) and isinstance(self.bc_q, BoundaryData)):
            raise SpecValidationError("BoundaryData required for both functions")

    @property
    def is_linear(self):
        return self.m1 is None and self.m2 is None


@dataclass(frozen=True)
class AffineOffset:
    """Polynomial carrying the prescribed endpoint values of one unknown.

    Stored as monomial coefficients in ascending order, a non-empty sequence
    of reals kept as floats.  Any polynomial with the right endpoint values
    works: changing the offset reparametrizes the same trial set, so the
    converged trial function is unchanged.
    """

    coefficients: tuple

    def __post_init__(self):
        c = tuple(self.coefficients) if np.iterable(self.coefficients) else ()
        # float NaN and inf pass (the interpolation check refuses them), 10**400 not
        if not c or not all(isinstance(ck, (float, np.floating)) or _finite_real(ck) for ck in c):
            raise SpecValidationError(f"offset needs real coefficients, got {self.coefficients!r}")
        object.__setattr__(self, "coefficients", tuple(map(float, c)))

    def value(self, x, order=0):
        """order-th derivative at x by Horner's rule on the coefficients k c_k."""
        c = list(self.coefficients)
        if order >= len(c):
            c = [c[0] * 0]
        else:
            for _ in range(order):
                c = [k * ck for k, ck in enumerate(c[1:], start=1)]
        xv = np.asarray(x, dtype=float)
        out = c[-1] + xv * 0
        for ck in reversed(c[:-1]):
            out = ck + out * xv
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
        if not (  # written so that a NaN endpoint value fails it too
            abs(theta.value(a) - bc.value_a) <= 1e-13 * scale
            and abs(theta.value(b) - bc.value_b) <= 1e-13 * scale
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
    The lagged nonlinear vector is produced separately, on the tables of the
    discretization the system links to, and added to rhs on each iteration.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    size: int  # m = degree - 1, per function
    _workspace: "_Workspace | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.matrix.setflags(write=False)
        self.rhs.setflags(write=False)


@dataclass(frozen=True)
class Solution:
    """Offsets plus interior Bernstein coefficients for the pair of unknowns.

    A solution from picard_solve also has grid_values, p and q on
    linspace(a, b, 101) (evaluate's to round-off), and keeps the system it
    was solved on, where residual scores it; hand-built or replaced ones
    have none (None).
    """

    basis: BernsteinBasis
    offset_p: object
    offset_q: object
    coeffs_p: np.ndarray
    coeffs_q: np.ndarray
    iterations_used: int
    converged: bool
    grid_values: "np.ndarray | None" = None
    _system: "AssembledSystem | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.basis.degree - 1
        for name in ("coeffs_p", "coeffs_q"):
            coeffs = np.asarray(getattr(self, name), dtype=float)
            if coeffs.shape != (m,):
                raise SpecValidationError(f"{name} must have shape ({m},), got {coeffs.shape}")
            coeffs.setflags(write=False)
            object.__setattr__(self, name, coeffs)
        if self.grid_values is not None:
            self.grid_values.setflags(write=False)

    @property
    def residual(self):
        return None if self._system is None else _sup_defect(self._system, self)

    def evaluate(self, x, which="p", order=0):
        """Trial function value theta^(order) + sum c_j B_j^(order) at x.

        which selects 'p' or 'q', or 'pq' for both as the rows of one array
        from one basis table; order is 0, 1 or 2.  x is a scalar or a 1-d
        array inside the domain.
        """
        if np.ndim(x) > 1:
            raise ValueError(f"x must be a scalar or a 1-d array, got shape {np.shape(x)}")
        if which not in ("p", "q", "pq"):
            raise ValueError(f"which must be 'p', 'q' or 'pq', got {which!r}")
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
        table = self.basis.interior_table(x, order)
        parts = {"p": (self.offset_p, self.coeffs_p), "q": (self.offset_q, self.coeffs_q)}
        rows = [theta.value(x, order) + coeffs @ table for theta, coeffs in map(parts.get, which)]
        if np.isscalar(x):
            rows = [float(row[0]) for row in rows]
        return rows[0] if len(which) == 1 else np.array(rows)


@lru_cache(maxsize=MAX_DEGREE)  # one entry per degree
def _reference_tables(n):
    """Read-only node tables (orders 0-2), end derivatives and grid table of the
    Shen basis of degree n on [0, 1], from one pass of the Legendre recurrence in
    t = 2x - 1 over nodes, ends and grid, and to_bern, whose row k holds the
    interior Bernstein coefficients of phi_k."""
    G = default_order(n)
    nodes = gauss_legendre(G, 0.0, 1.0).points
    t = 2.0 * np.concatenate([nodes, (0.0, 1.0), np.linspace(0.0, 1.0, _GRID_POINTS)]) - 1.0
    L, dL = np.zeros((n + 1, t.size)), np.zeros((n + 1, t.size))
    L[0], L[1], dL[1] = 1.0, t, 1.0
    for k in range(1, n):
        L[k + 1] = ((2 * k + 1) * t * L[k] - k * L[k - 1]) / (k + 1)
        dL[k + 1] = dL[k - 1] + (2 * k + 1) * L[k]
    # L_{k+2}' - L_k' = (2k + 3) L_{k+1}, so phi_k' = -sqrt(4k + 6) L_{k+1} in x
    # (dt/dx = 2), and phi_k'' = -2 sqrt(4k + 6) L_{k+1}'
    scale = np.sqrt(4.0 * np.arange(n - 1) + 6.0)[:, None]
    stacked = ((L[:-2] - L[2:]) / scale, -scale * L[1:-1], -2.0 * scale * dL[1:-1])
    # compact copies: views would keep the whole stacked arrays alive
    tables = tuple(np.ascontiguousarray(table[:, :G]) for table in stacked)
    ends = (stacked[1][:, G].copy(), stacked[1][:, G + 1].copy())
    grid_table = np.ascontiguousarray(stacked[0][:, G + 2 :])
    # L_k(2x - 1) = sum_j lam[j, k] B_j / C(n, j), with lam[j, k] the sum over i of
    # (-1)^(k+i) C(k, i)^2 C(n-k, j-i) (Farouki 2000); exact in int64 to degree 30
    comb = np.array([[math.comb(a, b) for b in range(n + 1)] for a in range(n + 1)], np.int64)
    j, k, i = np.ix_(*3 * [np.arange(n + 1)])
    lam = ((-1) ** (k + i) * comb[k, i] ** 2 * comb[n - k, np.maximum(j - i, 0)] * (j >= i)).sum(2)
    to_bern = ((lam[1:-1, :-2] - lam[1:-1, 2:]) / comb[n, 1:-1, None] / scale.T).T.copy()
    for array in (*tables, *ends, grid_table, to_bern):
        array.setflags(write=False)
    return tables, ends, grid_table, to_bern


class _Workspace:
    """One solve's discretization, shared by every assembly pass over it.

    Holds the Solution's Bernstein basis, the Gauss nodes and weights, the
    members' orders 0-2 at the nodes (the test tables) and first derivatives
    d1 at both ends (the cached [0, 1] tables scaled by (b - a)^-k), the grid
    and the members on it, to_bern and both offsets ('p', 'q').
    The trial table trial[u][k], (m+1) x G, appends theta_u^(k) at the nodes
    to the test table, a view of trial['p'][k] without that row; trial_d1[u]
    appends theta_u' to d1 at u's natural end.
    """

    def __init__(self, spec, degree, offsets=None):
        self.basis = BernsteinBasis(degree, spec.domain)
        n = self.basis.degree
        a, b = spec.domain
        rule = gauss_legendre(default_order(n), a, b)
        self.spec = spec
        self.theta = dict(zip("pq", _offset_or_default(offsets, spec)))
        self.xs, self.w = rule.points, rule.weights
        self.grid = np.linspace(a, b, _GRID_POINTS)
        tables, ends, self.grid_table, self.to_bern = _reference_tables(n)
        # exact on [0, 1], where the tables keep their bytes
        scaled = [table * (b - a) ** -k for k, table in enumerate(tables)]
        self.d1 = dict(zip("ab", (d / (b - a) for d in ends)))
        self.trial, self.trial_d1 = {}, {}
        for u, theta in self.theta.items():
            self.trial[u] = tuple(
                np.vstack([table, theta.value(self.xs, k)]) for k, table in enumerate(scaled)
            )
            e = getattr(spec, f"bc_{u}").natural_end
            self.trial_d1[u] = np.append(self.d1[e], theta.value(a if e == "a" else b, 1))
        self.tables = tuple(table[:-1] for table in self.trial["p"])
        self.m = n - 1


def _equation_blocks(ws, coeffs, forcing, bc, u, v):
    """Own block, cross block and load vector for the equation of unknown u.

    u and v are 'p' and 'q' in either order, as in the module docstring.
    An absent (None) coefficient adds nothing.
    """
    P0, _, P2 = ws.tables
    w = ws.w
    state = ex.PointState(x=ws.xs)
    # (test table, unknown, trial order): phi_i'' u' from u''', c1..c6 on u'', u', u, v'', v', v
    terms = [(P2 * w, u, 1)]
    for k, coeff in enumerate(coeffs):
        if coeff is not None:
            terms.append((P0 * (w * ex.evaluate(coeff, state)), u if k < 3 else v, 2 - k % 3))
    blocks = {u: np.zeros((ws.m, ws.m + 1)), v: np.zeros((ws.m, ws.m + 1))}
    for test, which, order in terms:
        blocks[which] += test @ ws.trial[which][order].T
    # natural end: substitute the trial derivative; sign -1 at b, +1 at a
    e = bc.natural_end
    blocks[u] += (-1.0 if e == "b" else 1.0) * np.outer(ws.d1[e], ws.trial_d1[u])

    rhs = np.zeros(ws.m) if forcing is None else P0 @ (w * ex.evaluate(forcing, state))
    # prescribed-derivative bracket: known data on the load side
    rhs += (ws.d1["b"] if bc.deriv_end == "b" else -ws.d1["a"]) * bc.deriv_value
    # the offsets' columns, whose coefficients are known to be 1
    rhs -= blocks[u][:, -1] + blocks[v][:, -1]
    return blocks[u][:, :-1], blocks[v][:, :-1], rhs


def assemble_linear(spec, degree, offsets=None):
    """Build the linear part of the discrete system at the given degree.

    Returns an AssembledSystem whose matrix and rhs are independent of any
    iterate; for a purely linear problem this is the whole discretization.
    The system keeps the discretization it was built on, so the nonlinear
    load and the residual check of a solve reuse its tables.

    Args:
        offsets: optional (theta_p, theta_q) overriding the default linear
            interpolants; each must interpolate its endpoint values.
    """
    # blowups of scaled tables and coefficients surface via the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        ws = _Workspace(spec, degree, offsets)
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
    system = AssembledSystem(matrix=K, rhs=rhs, size=ws.m)
    object.__setattr__(system, "_workspace", ws)
    return system


def _nonlinear_load(ws, c):
    """assemble_nonlinear_rhs at the coefficient vector c (p block, then q)."""
    spec, out = ws.spec, np.zeros(2 * ws.m)
    if spec.is_linear:
        return out
    p0, p1, p2, q0, q1, q2 = (  # orders 0-2 of the trial functions at the nodes
        t[-1] + cu @ t[:-1] for u, cu in zip("pq", c.reshape(2, ws.m)) for t in ws.trial[u]
    )
    state = ex.PointState(x=ws.xs, p=p0, dp=p1, d2p=p2, q=q0, dq=q1, d2q=q2)
    for term, sl in ((spec.m1, slice(0, ws.m)), (spec.m2, slice(ws.m, None))):
        if term is not None:
            mv = ex.evaluate(term, state)
            # divergent iterates may overflow here; the solver checks finiteness
            with np.errstate(over="ignore", invalid="ignore"):
                out[sl] = -(ws.tables[0] @ (ws.w * mv))
    return out


def _defect(system, c):
    """rhs + nonlinear load at c - K c: what the lagged step from c corrects."""
    return system.rhs + _nonlinear_load(system._workspace, c) - system.matrix @ c


def _system_coefficients(ws, sol):
    """sol's Bernstein coefficients in the basis of ws, p block then q."""
    return np.linalg.solve(ws.to_bern.T, np.array([sol.coeffs_p, sol.coeffs_q]).T).T.ravel()


def _sup_defect(system, sol):
    return float(np.max(np.abs(_defect(system, _system_coefficients(system._workspace, sol)))))


def _grid_distance(system, step):
    """Grid sup-norm of a step: iterates share their offsets, so there they differ by it."""
    return float(np.max(np.abs(step.reshape(2, system.size) @ system._workspace.grid_table)))


def _solution(system, c, iterations_used, converged):
    """The Solution at coefficient vector c, with its grid values and its system."""
    ws = system._workspace
    coeffs = c.reshape(2, ws.m)
    grid_values = np.array(
        [ws.theta[u].value(ws.grid) + cu @ ws.grid_table for u, cu in zip("pq", coeffs)]
    )
    sol = Solution(ws.basis, ws.theta["p"], ws.theta["q"], *(coeffs @ ws.to_bern),
                   iterations_used, converged, grid_values)
    object.__setattr__(sol, "_system", system)
    return sol


def _check_interval(spec, sol):
    if sol.basis.interval != spec.domain:
        raise SpecValidationError(
            f"solution interval {sol.basis.interval} differs from the problem domain {spec.domain}"
        )


def assemble_nonlinear_rhs(spec, current):
    """Load-vector contribution of the nonlinear terms at a given solution.

    Entry i of the block for an equation with nonlinear term M is
    -int M(x, p~, p~', p~'', q~, q~', q~'') phi_i dx, with p~, q~ the full
    trial functions of `current` (offsets included), at current's degree.
    Zero blocks when the corresponding term is absent.  K is never
    assembled; a current on another interval raises SpecValidationError.
    """
    _check_interval(spec, current)
    ws = _Workspace(spec, current.basis.degree, (current.offset_p, current.offset_q))
    return _nonlinear_load(ws, _system_coefficients(ws, current))


def residual_norm(spec, sol):
    """Sup-norm of the discrete weighted residual at a solution.

    On a fresh assemble_linear at sol's degree and offsets, so a fixed point
    of the lagged iteration scores at the linear-solver residual scale;
    sol.residual scores a solved solution on its own system instead.

    Raises:
        SpecValidationError: sol lives on another interval than spec.
    """
    _check_interval(spec, sol)
    return _sup_defect(assemble_linear(spec, sol.basis.degree, (sol.offset_p, sol.offset_q)), sol)

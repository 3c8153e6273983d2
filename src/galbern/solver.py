"""Dense solve, lagged-nonlinearity (Picard) iteration and degree refinement.

A solve proceeds in two stages.  The bootstrap drops the nonlinear terms and
solves the purely linear system once; every later iteration re-solves the
same matrix against the linear load plus the nonlinear load evaluated on the
previous iterate.  The discretization (basis tables, offset values) is built
once per solve and the matrix is LU-factorized once; each iteration only
re-evaluates the load and runs the two triangular solves.  Successive
iterates are compared in the sup norm on a uniform evaluation grid, and the
same measure compares solutions of consecutive degrees in a refinement sweep.
"""

from dataclasses import dataclass, replace

import numpy as np

from .assembly import _Workspace, assemble_linear, assemble_nonlinear_rhs
from .basis import BernsteinBasis
from .errors import DivergenceError, NonConvergenceError, SingularSystemError
from .quadrature import default_order, gauss_legendre

# relative pivot threshold below which elimination refuses to continue
_PIVOT_RTOL = 1e-13

# width of the distance window and growth factor of the divergence heuristic
_DIVERGENCE_WINDOW = 5
_DIVERGENCE_FACTOR = 10.0


@dataclass(frozen=True)
class SolverConfig:
    """Iteration and refinement controls.

    picard_tol is the sup-distance below which successive iterates count as
    converged; degree_tol plays the same role between consecutive degrees in
    refine_solve.  fixed_iters, when set, runs exactly that many lagged
    iterations after the bootstrap regardless of picard_tol (replication
    mode).  quad_order overrides the max(24, 2n) assembly default.
    """

    picard_tol: float = 1e-10
    max_picard_iters: int = 50
    fixed_iters: "int | None" = None
    degree_tol: float = 1e-8
    grid_points: int = 101
    min_degree: int = 3
    max_degree: int = 12
    quad_order: "int | None" = None

    def __post_init__(self):
        if self.picard_tol <= 0 or self.degree_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_picard_iters < 1:
            raise ValueError("max_picard_iters must be >= 1")
        if self.fixed_iters is not None and self.fixed_iters < 0:
            raise ValueError("fixed_iters must be >= 0")
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")
        if self.min_degree < 3 or self.max_degree < self.min_degree:
            raise ValueError("need 3 <= min_degree <= max_degree")


@dataclass(frozen=True)
class Solution:
    """Offsets plus interior coefficients for the pair of unknowns."""

    basis: BernsteinBasis
    offset_p: object
    offset_q: object
    coeffs_p: np.ndarray
    coeffs_q: np.ndarray
    iterations_used: int
    converged: bool

    def __post_init__(self):
        self.coeffs_p.setflags(write=False)
        self.coeffs_q.setflags(write=False)

    def evaluate(self, x, which="p", order=0):
        """Trial function value theta^(order) + sum c_j B_j^(order) at x.

        which selects 'p' or 'q'; order is 0, 1 or 2.  x may be a scalar or
        array inside the domain.
        """
        if which not in ("p", "q"):
            raise ValueError(f"which must be 'p' or 'q', got {which!r}")
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
        theta = self.offset_p if which == "p" else self.offset_q
        coeffs = self.coeffs_p if which == "p" else self.coeffs_q
        table = self.basis.interior_table(x, order)
        out = theta.value(x, order) + coeffs @ table
        return float(out[0]) if np.isscalar(x) else out


@dataclass(frozen=True)
class DegreeHistory:
    """Per-degree record of a refinement sweep.

    distances[k] is the grid sup-distance between the solutions at
    degrees[k-1] and degrees[k]; the first entry is None.
    """

    degrees: list
    distances: list
    converged: bool


def _lu_factor(A0):
    """LU factors of the square matrix A0 by partial pivoting.

    Returns (A0, LU, perm): the matrix itself, for refinement, its unit-lower
    and upper factors packed in one array, and the row permutation.

    Raises:
        SingularSystemError: a pivot fell below 1e-13 * max|A0|.
    """
    n = A0.shape[0]
    threshold = _PIVOT_RTOL * max(np.max(np.abs(A0)), np.finfo(float).tiny)
    A = A0.copy()
    perm = np.arange(n)
    for k in range(n):
        piv = k + int(np.argmax(np.abs(A[k:, k])))
        if abs(A[piv, k]) < threshold:
            raise SingularSystemError(k, abs(A[piv, k]))
        if piv != k:
            A[[k, piv]] = A[[piv, k]]
            perm[[k, piv]] = perm[[piv, k]]
        A[k + 1 :, k] /= A[k, k]
        A[k + 1 :, k + 1 :] -= np.outer(A[k + 1 :, k], A[k, k + 1 :])
    return A0, A, perm


def _lu_solve(factors, b0):
    """Solve with the factors of _lu_factor plus one step of refinement."""
    A0, A, perm = factors
    n = A.shape[0]

    def substitute(rhs_vec):
        y = rhs_vec[perm].copy()
        for k in range(1, n):
            y[k] -= A[k, :k] @ y[:k]
        x = y
        for k in range(n - 1, -1, -1):
            x[k] = (x[k] - A[k, k + 1 :] @ x[k + 1 :]) / A[k, k]
        return x

    x = substitute(b0)
    x += substitute(b0 - A0 @ x)
    return x


def solve_dense(K, rhs):
    """Solve K x = rhs by LU factorization with partial pivoting.

    One step of iterative refinement keeps the residual below
    1e-10 * (1 + max|rhs|) for the well-scaled systems assembled here.

    Raises:
        SingularSystemError: a pivot fell below 1e-13 * max|K|.
    """
    A0 = np.asarray(K, dtype=float)
    b0 = np.asarray(rhs, dtype=float)
    n = A0.shape[0]
    if A0.shape != (n, n) or b0.shape != (n,):
        raise ValueError(f"shape mismatch: matrix {A0.shape}, rhs {b0.shape}")
    return _lu_solve(_lu_factor(A0), b0)


def picard_solve(spec, degree, config=None, offsets=None):
    """Solve one problem at a fixed trial degree.

    The bootstrap solves the linear system with the nonlinear load zeroed;
    linear problems return right there.  Otherwise, lagged iterations run
    until both unknowns move less than picard_tol on the evaluation grid (or
    for exactly fixed_iters steps in replication mode).

    Args:
        offsets: optional (theta_p, theta_q) pair replacing the default
            linear endpoint interpolants.

    Raises:
        NonConvergenceError: iteration budget exhausted.
        DivergenceError: iterate distances grew by 10x across a window of
            five iterations, or the iterate stopped being finite.
    """
    config = config or SolverConfig()
    a, b = spec.domain
    basis = BernsteinBasis(degree, (a, b))
    rule = gauss_legendre(config.quad_order or default_order(degree), a, b)
    ws = _Workspace(spec, basis, rule, offsets)

    system = assemble_linear(spec, basis, rule, workspace=ws)
    m = system.size
    factors = _lu_factor(system.matrix)
    c = _lu_solve(factors, system.rhs)
    sol = Solution(
        basis=basis, offset_p=ws.theta["p"], offset_q=ws.theta["q"],
        coeffs_p=c[:m], coeffs_q=c[m:], iterations_used=0,
        converged=spec.is_linear,
    )
    if spec.is_linear or config.fixed_iters == 0:
        return sol

    # grid values of both unknowns as one 2 x P array, from one table
    grid = np.linspace(a, b, config.grid_points)
    grid_table = basis.interior_table(grid)
    grid_offsets = np.array([ws.theta[u].value(grid) for u in "pq"])
    prev_vals = grid_offsets + c.reshape(2, m) @ grid_table
    target = config.fixed_iters if config.fixed_iters is not None else config.max_picard_iters
    distances = []
    for k in range(1, target + 1):
        nl = assemble_nonlinear_rhs(spec, basis, rule, sol, workspace=ws)
        c = _lu_solve(factors, system.rhs + nl)
        if not np.all(np.isfinite(c)):
            raise DivergenceError(k, "iterate became non-finite")
        sol = replace(sol, coeffs_p=c[:m], coeffs_q=c[m:], iterations_used=k)
        vals = grid_offsets + c.reshape(2, m) @ grid_table
        dist = float(np.max(np.abs(vals - prev_vals)))
        prev_vals = vals
        distances.append(dist)
        if not np.isfinite(dist):
            raise DivergenceError(k, "iterate distance became non-finite")
        converged = dist < config.picard_tol
        if config.fixed_iters is not None:
            if k == config.fixed_iters:
                return replace(sol, converged=converged)
        elif converged:
            return replace(sol, converged=True)
        if (
            len(distances) > _DIVERGENCE_WINDOW
            and distances[-1] > _DIVERGENCE_FACTOR * distances[-1 - _DIVERGENCE_WINDOW]
        ):
            raise DivergenceError(k)
    raise NonConvergenceError(target, distances[-2:])


def refine_solve(spec, config=None):
    """Sweep degrees upward until consecutive solutions agree to degree_tol.

    Returns the last solution computed and a DegreeHistory; when the sweep
    exhausts max_degree without meeting degree_tol, the history's converged
    flag is False and the highest-degree solution is returned.
    """
    config = config or SolverConfig()
    a, b = spec.domain
    grid = np.linspace(a, b, config.grid_points)
    degrees, distances = [], []
    prev_sol = prev_vals = None
    for degree in range(config.min_degree, config.max_degree + 1):
        sol = picard_solve(spec, degree, config)
        vals = np.array([sol.evaluate(grid, "p"), sol.evaluate(grid, "q")])
        degrees.append(degree)
        if prev_sol is None:
            distances.append(None)
        else:
            dist = float(np.max(np.abs(vals - prev_vals)))
            distances.append(dist)
            if dist < config.degree_tol:
                return sol, DegreeHistory(degrees, distances, converged=True)
        prev_sol, prev_vals = sol, vals
    return prev_sol, DegreeHistory(degrees, distances, converged=False)

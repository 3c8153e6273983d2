"""Dense solve, lagged-nonlinearity (Picard) iteration and degree refinement.

The solver works on coefficient vectors only; the assembled system supplies
the defect of an iterate, the grid distance of a step and the Solution, so
the layout of the trial space is known to assembly alone.  A solve proceeds
in two stages.  The bootstrap drops the nonlinear terms and solves the purely
linear system once; every later iteration re-solves the same matrix against
the linear load plus the nonlinear load evaluated on the previous iterate.
The matrix is factored once, K = QR, by LAPACK's Householder QR; a negligible
diagonal entry of R is refused as a singular system.  R is then eliminated
once, to form R^-1, and every application of K^-1 is the same correction of a
defect d: y = Q^T d and x = R^-1 y, refined once as x + R^-1 (y - R x).  The
bootstrap applies it to the linear load and once more to its residual against
K; each iteration applies it to the defect of the current iterate after one
vectorized expression evaluation per nonlinear term.  The inverse is of R,
not of K: an explicit K^-1 at cond(K) ~ 2e15 gives I - K^-1 K a spectral
radius above 1 and changes iteration counts, while the triangular inverse is
as accurate as substitution (Du Croz and Higham 1992) once its product is
refined against R.  A product with an explicit inverse is not backward
stable, so without that refinement the fifth iterate of example2 at degree 30
is 6.6e-10 off on the grid, against 9e-13 for substitution.  Successive
iterates are compared in the sup norm on a uniform evaluation grid, and the
same measure compares solutions of consecutive degrees in a refinement sweep.
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .assembly import Solution, _defect, _grid_distance, _solution, assemble_linear
from .basis import MAX_DEGREE
from .errors import DivergenceError, NonConvergenceError, SingularSystemError, SpecValidationError

# relative threshold below which a diagonal entry of R counts as singular
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
    mode).  The degree fixes the rest: assembly uses the max(24, 2n)-point
    Gauss rule, which integrates every polynomial Galerkin integrand exactly,
    and distances are measured on a uniform grid of 101 points.
    """

    picard_tol: float = 1e-10
    max_picard_iters: int = 50
    fixed_iters: "int | None" = None
    degree_tol: float = 1e-8
    min_degree: int = 3
    max_degree: int = 12

    def __post_init__(self):
        if not (0 < self.picard_tol < np.inf and 0 < self.degree_tol < np.inf):  # NaN fails too
            raise ValueError("tolerances must be positive and finite")
        for name in ("max_picard_iters", "fixed_iters", "min_degree", "max_degree"):
            value = getattr(self, name)
            if value is None and name == "fixed_iters":
                continue
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_picard_iters < 1:
            raise ValueError("max_picard_iters must be >= 1")
        if self.fixed_iters is not None and self.fixed_iters < 0:
            raise ValueError("fixed_iters must be >= 0")
        if self.min_degree < 3 or self.max_degree < self.min_degree:
            raise ValueError("need 3 <= min_degree <= max_degree")
        if self.max_degree > MAX_DEGREE:
            raise ValueError(f"max_degree {self.max_degree} exceeds the degree cap {MAX_DEGREE}")


@dataclass(frozen=True)
class DegreeHistory:
    """Per-degree record of a refinement sweep.

    distances[k] is the grid sup-distance between the solutions at
    degrees[k-1] and degrees[k]; the first entry is None.
    """

    degrees: list
    distances: list
    converged: bool


def _qr_factor(K):
    """Householder QR factors of the square matrix K, and R^-1.

    Returns (Q, R, Rinv), with K = Q @ R, R upper triangular and Rinv its
    inverse, formed by the one elimination of R that a solve makes.

    Raises:
        SingularSystemError: the first diagonal entry of R below
            1e-13 * max|K|, by its index and magnitude; no inverse is formed.
    """
    Q, R = np.linalg.qr(K)
    diag = np.abs(np.diagonal(R))
    threshold = _PIVOT_RTOL * max(np.max(np.abs(K)), np.finfo(float).tiny)
    small = np.flatnonzero(diag < threshold)
    if small.size:
        raise SingularSystemError(int(small[0]), diag[small[0]])
    return Q, R, np.linalg.solve(R, np.eye(len(R)))


def _qr_correct(factors, d):
    """K^-1 d as R^-1 (Q^T d), the product refined once against R."""
    Q, R, Rinv = factors
    y = Q.T @ d
    x = Rinv @ y
    x += Rinv @ (y - R @ x)
    return x


def _qr_solve(K, factors, b):
    """Solve K x = b with the factors of _qr_factor plus one refinement against K."""
    x = _qr_correct(factors, b)
    x += _qr_correct(factors, b - K @ x)
    return x


def solve_dense(K, rhs):
    """Solve K x = rhs by Householder QR factorization, K = QR.

    R is eliminated once to form R^-1; the solve is R^-1 Q^T rhs, refined
    once against R and then once more against K, which keeps the residual
    below 1e-10 * (1 + max|rhs|) for the well-scaled systems assembled here.

    Raises:
        ValueError: K and rhs are not a non-empty square matrix and a
            matching vector, or hold a non-finite entry.
        SingularSystemError: a diagonal entry of R fell below 1e-13 * max|K|.
    """
    A0 = np.asarray(K, dtype=float)
    b0 = np.asarray(rhs, dtype=float)
    n = A0.shape[0] if A0.ndim == 2 else 0
    if n == 0 or A0.shape != (n, n) or b0.shape != (n,):
        raise ValueError(f"shape mismatch: matrix {A0.shape}, rhs {b0.shape}")
    if not np.all(np.isfinite(A0)):
        i, j = np.argwhere(~np.isfinite(A0))[0]
        raise ValueError(f"non-finite matrix entry at row {i}, column {j}")
    if not np.all(np.isfinite(b0)):
        (i,) = np.argwhere(~np.isfinite(b0))[0]
        raise ValueError(f"non-finite right-hand side entry at row {i}")
    return _qr_solve(A0, _qr_factor(A0), b0)


def picard_solve(spec, degree, config=None, offsets=None):
    """Solve one problem at a fixed trial degree.

    The bootstrap solves the linear system with the nonlinear load zeroed;
    linear problems stop right there.  Otherwise, lagged iterations run
    until both unknowns move less than picard_tol on the evaluation grid (or
    for exactly fixed_iters steps in replication mode).

    Args:
        offsets: optional (theta_p, theta_q) pair replacing the default
            linear endpoint interpolants.

    Raises:
        NonConvergenceError: iteration budget exhausted.
        DivergenceError: an iterate distance at or above picard_tol was 10x
            the one five iterations before, or the defect of an iterate or
            the step from it stopped being finite.
    """
    config = config or SolverConfig()
    system = assemble_linear(spec, degree, offsets)
    factors = _qr_factor(system.matrix)
    c = _qr_solve(system.matrix, factors, system.rhs)
    fixed = config.fixed_iters
    budget = 0 if spec.is_linear else config.max_picard_iters if fixed is None else fixed
    distances = []
    for k in range(1, budget + 1):
        # the lagged step to K^-1 (rhs + nonlinear load), as a defect correction
        defect = _defect(system, c)
        if not np.all(np.isfinite(defect)):
            raise DivergenceError(k, "iterate became non-finite")
        step = _qr_correct(factors, defect)
        c = c + step
        dist = _grid_distance(system, step)
        if not dist < np.inf:  # the step overflowed; a NaN distance fails the test too
            raise DivergenceError(k, "iterate became non-finite")
        distances.append(dist)
        if k == fixed or (dist < config.picard_tol and fixed is None):
            break
        before = distances[-1 - _DIVERGENCE_WINDOW] if k > _DIVERGENCE_WINDOW else np.inf
        # past convergence the distances only jitter at round-off
        if dist >= config.picard_tol and dist > _DIVERGENCE_FACTOR * before:
            raise DivergenceError(k)
    converged = distances[-1] < config.picard_tol if distances else spec.is_linear
    if not converged and fixed is None:
        raise NonConvergenceError(budget, distances[-2:])
    return _solution(system, c, len(distances), converged)


def refine_solve(spec, config=None):
    """Sweep degrees upward until consecutive solutions agree to degree_tol.

    Returns the last solution computed and a DegreeHistory; when the sweep
    exhausts max_degree without meeting degree_tol, the history's converged
    flag is False and the highest-degree solution is returned.
    """
    config = config or SolverConfig()
    degrees, distances, sol = [], [], None
    for degree in range(config.min_degree, config.max_degree + 1):
        prev, sol = sol, picard_solve(spec, degree, config)
        degrees.append(degree)
        dist = None if prev is None else float(np.max(np.abs(sol.grid_values - prev.grid_values)))
        distances.append(dist)
        if dist is not None and dist < config.degree_tol:
            return sol, DegreeHistory(degrees, distances, converged=True)
    return sol, DegreeHistory(degrees, distances, converged=False)

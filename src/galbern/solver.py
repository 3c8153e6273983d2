"""Dense solve, lagged-nonlinearity (Picard) iteration and degree refinement.

The solver works on coefficient vectors only; the assembled system supplies
the defect of an iterate, the grid distance of a step and the Solution, so
the layout of the trial space is known to assembly alone.  A solve proceeds
in two stages.  The bootstrap drops the nonlinear terms and solves the purely
linear system once; every later iteration re-solves the same matrix against
the linear load plus the nonlinear load evaluated on the previous iterate.
The matrix is checked once for singularity, by the R diagonal of its QR
factorization, and inverted once: the bootstrap is K^-1 rhs, and each
iteration adds K^-1 times the defect of the current iterate.  Assembly's
basis keeps cond(K) near 2e2 up to degree 30, so the explicit inverse costs
no accuracy.  Successive iterates are compared in the sup norm on a uniform
evaluation grid, as are solutions of consecutive degrees in a sweep.
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .assembly import Solution, _defect, _grid_distance, _solution, assemble_linear
from .basis import MAX_DEGREE
from .errors import DivergenceError, NonConvergenceError, SingularSystemError, SpecValidationError
from .quadrature import _finite_real

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
        for tol in (self.picard_tol, self.degree_tol):
            if isinstance(tol, bool) or not (_finite_real(tol) and tol > 0):
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


def _check_nonsingular(K):
    """Raise SingularSystemError at the first diagonal entry of R in K = QR
    below 1e-13 * max|K|, by its index and magnitude."""
    diag = np.abs(np.diagonal(np.linalg.qr(K, mode="r")))
    threshold = _PIVOT_RTOL * max(np.max(np.abs(K)), np.finfo(float).tiny)
    small = np.flatnonzero(diag < threshold)
    if small.size:
        raise SingularSystemError(int(small[0]), diag[small[0]])


def solve_dense(K, rhs):
    """Solve K x = rhs by LU factorization with partial pivoting.

    Raises:
        ValueError: K and rhs are not a non-empty square matrix and a
            matching vector, or hold a non-finite entry.
        SingularSystemError: a diagonal entry of R in K = QR fell below
            1e-13 * max|K|.
        DivergenceError: the solution overflowed.
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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        _check_nonsingular(A0)
        x = np.linalg.solve(A0, b0)
    if not np.all(np.isfinite(x)):
        raise DivergenceError(0, "iterate became non-finite")
    return x


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
            the one five iterations before, or an iterate (the bootstrap
            included) stopped being finite.
    """
    config = config or SolverConfig()
    system = assemble_linear(spec, degree, offsets)
    fixed = config.fixed_iters
    budget = 0 if spec.is_linear else config.max_picard_iters if fixed is None else fixed
    distances = []
    # an overflow surfaces as a non-finite iterate, refused below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        _check_nonsingular(system.matrix)
        Kinv = np.linalg.inv(system.matrix)
        c = Kinv @ system.rhs
        if not np.all(np.isfinite(c)):
            raise DivergenceError(0, "iterate became non-finite")
        for k in range(1, budget + 1):
            # the lagged step to K^-1 (rhs + nonlinear load), as a defect correction
            step = Kinv @ _defect(system, c)
            c = c + step
            dist = _grid_distance(system, step)
            if not dist < np.inf:  # a non-finite defect or step; a NaN distance fails too
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

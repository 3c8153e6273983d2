"""Galerkin solver for coupled third-order two-point boundary value problems.

Trial functions span the interior Bernstein polynomials (solved for in Shen's
Legendre basis of that space); endpoint values ride on an offset polynomial,
endpoint derivative data enters the weak form as natural boundary terms, and
nonlinear terms are handled by lagged (Picard) iteration bootstrapped from
the linearized system.  Sixth-order problems are supported through reduction
to a coupled third-order pair via q = p'''.
"""

from .assembly import (
    AffineOffset,
    AssembledSystem,
    BoundaryData,
    ProblemSpec,
    assemble_linear,
    assemble_nonlinear_rhs,
    build_offset,
    residual_norm,
)
from .basis import BernsteinBasis
from .cli import (
    ErrorTable,
    dump_problem,
    error_table,
    load_problem,
    load_sixth_order,
    preset,
    sixth_order_preset,
)
from .errors import (
    AssemblyError,
    DivergenceError,
    DomainError,
    ExprEvalError,
    ExprSyntaxError,
    GalbernError,
    NonConvergenceError,
    ProblemFileError,
    QuadratureOrderError,
    SingularSystemError,
    SpecValidationError,
)
from .expr import PointState, evaluate, free_vars, parse, to_source
from .quadrature import QuadratureRule, default_order, gauss_legendre, integrate
from .reduction import SixthOrderSpec, reduce
from .solver import (
    DegreeHistory,
    Solution,
    SolverConfig,
    picard_solve,
    refine_solve,
    solve_dense,
)

__version__ = "0.1.0"

__all__ = [
    "AffineOffset",
    "AssembledSystem",
    "AssemblyError",
    "BernsteinBasis",
    "BoundaryData",
    "DegreeHistory",
    "DivergenceError",
    "DomainError",
    "ErrorTable",
    "ExprEvalError",
    "ExprSyntaxError",
    "GalbernError",
    "NonConvergenceError",
    "PointState",
    "ProblemFileError",
    "ProblemSpec",
    "QuadratureOrderError",
    "QuadratureRule",
    "SingularSystemError",
    "SixthOrderSpec",
    "Solution",
    "SolverConfig",
    "SpecValidationError",
    "assemble_linear",
    "assemble_nonlinear_rhs",
    "build_offset",
    "default_order",
    "dump_problem",
    "error_table",
    "evaluate",
    "free_vars",
    "gauss_legendre",
    "integrate",
    "load_problem",
    "load_sixth_order",
    "parse",
    "picard_solve",
    "preset",
    "reduce",
    "refine_solve",
    "residual_norm",
    "sixth_order_preset",
    "solve_dense",
    "to_source",
]

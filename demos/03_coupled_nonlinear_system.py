"""Solve a coupled nonlinear third-order pair and watch the lagged iteration.

The problem (bundled as preset example1) is

    p''' + 2 p' + x q             = x^5 - x^3 - 18 x^2 + 12 x - 18
    q''' + p'' q'' / 6            = -36 x^3 + 12 x^2 + 30 x - 2
    p(0) = p(1) = p'(0) = 0,  q(0) = q(1) = q'(0) = 0

with solutions p = 3x^2 - 3x^3 and q = x^4 - x^2.  The nonlinear product is
never put in the matrix: each iteration re-solves the same linear system
against a load that includes the product evaluated on the previous iterate.
"""
import numpy as np

from galbern import (
    SolverConfig,
    assemble_linear,
    default_order,
    picard_solve,
)
from galbern.cli import error_table, format_table, preset

spec = preset("example1")
degree = 3

# ---- what one iteration looks like, spelled out -------------------------
# the degree fixes the discretization: a max(24, 2n)-point Gauss rule
system = assemble_linear(spec, degree)
print(f"discrete system is {system.matrix.shape[0]}x{system.matrix.shape[1]} "
      f"({system.size} coefficients per unknown, {default_order(degree)}-point Gauss rule)")
print("matrix, in the Shen basis the solve works in:")
print(np.array_str(system.matrix, precision=4, suppress_small=True))

# the bootstrap drops the nonlinear terms: zero lagged iterations
bootstrap = picard_solve(spec, degree, SolverConfig(fixed_iters=0))
print("\nbootstrap (nonlinear terms dropped), interior Bernstein coefficients:")
print(f"  p: {bootstrap.coeffs_p}")
print(f"  q: {bootstrap.coeffs_q}")

# ---- the full solve ------------------------------------------------------
sol = picard_solve(spec, degree)
print(f"\nconverged after {sol.iterations_used} lagged iterations")
print(f"discrete residual at the solution: {sol.residual:.2e}")
print(f"p coefficients: {sol.coeffs_p}")
print(f"q coefficients: {sol.coeffs_q}")

print("\nerror table at degree 3:")
print(format_table(error_table(spec, sol)))

print("the degree-4 trial set contains both solutions, so the error collapses:")
sol4 = picard_solve(spec, 4)
print(format_table(error_table(spec, sol4)))

print("replication mode: stop after exactly 4 iterations instead of at tolerance")
sol_rep = picard_solve(spec, degree, SolverConfig(fixed_iters=4))
table = error_table(spec, sol_rep)
print(f"  degree 3, 4 iterations: max |p err| = {table.max_p_error:.6e}, "
      f"max |q err| = {table.max_q_error:.6e}")

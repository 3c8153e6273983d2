import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import galbern as gb
from galbern import (
    BoundaryData,
    DivergenceError,
    NonConvergenceError,
    ProblemSpec,
    SingularSystemError,
    SolverConfig,
    picard_solve,
    refine_solve,
    solve_dense,
)
from galbern.assembly import (
    _GRID_POINTS,
    _reference_tables,
    assemble_linear,
    assemble_nonlinear_rhs,
    residual_norm,
)
from galbern.cli import preset
from galbern.solver import _PIVOT_RTOL, _check_nonsingular

# reference coefficients in the display basis x(1-x)^2, x^2(1-x); the first
# pair is the discrete fixed point (iterated to machine convergence), the
# second is the recorded benchmark for the same configuration, which
# corresponds to the fifth lagged iterate rather than the fixed point
EX1_FIXED_POINT = {
    "p": (0.000546769790, 2.998431656934),
    "q": (0.393340725468, -2.077278671016),
}
EX1_REFERENCE = {
    "p": (0.00054548, 2.99843577),
    "q": (0.39311569, -2.07669616),
}


def display_coeffs(sol, which):
    # degree-3 members are 3 x (1-x)^2 and 3 x^2 (1-x)
    coeffs = sol.coeffs_p if which == "p" else sol.coeffs_q
    return 3.0 * coeffs


def max_grid_error(spec, sol, which, points=101):
    a, b = spec.domain
    xs = np.linspace(a, b, points)
    exact_expr = spec.exact_p if which == "p" else spec.exact_q
    exact = np.array([gb.evaluate(exact_expr, gb.PointState(x=float(x))) for x in xs])
    return float(np.max(np.abs(exact - sol.evaluate(xs, which))))


class TestSolveDense:
    def test_identity(self):
        x = solve_dense(np.eye(4), np.array([1.0, 2.0, 3.0, 4.0]))
        assert x == pytest.approx([1.0, 2.0, 3.0, 4.0], abs=1e-15)

    def test_diagonal(self):
        x = solve_dense(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 8.0]))
        assert x == pytest.approx([1.0, 2.0], abs=1e-15)

    def test_singular_reports_pivot(self):
        with pytest.raises(SingularSystemError) as info:
            solve_dense(np.ones((2, 2)), np.array([1.0, 0.0]))
        assert info.value.pivot_index == 1

    def test_zero_matrix(self):
        with pytest.raises(SingularSystemError) as info:
            solve_dense(np.zeros((3, 3)), np.zeros(3))
        assert info.value.pivot_index == 0

    def test_needs_pivoting(self):
        K = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert solve_dense(K, np.array([3.0, 7.0])) == pytest.approx([7.0, 3.0])

    @pytest.mark.parametrize("n", [2, 10, 60])
    def test_residual_bound(self, n):
        rng = np.random.default_rng(n)
        K = rng.uniform(-5, 5, size=(n, n))
        rhs = rng.uniform(-10, 10, size=n)
        x = solve_dense(K, rhs)
        assert np.max(np.abs(K @ x - rhs)) <= 1e-10 * (1 + np.max(np.abs(rhs)))

    def test_shape_mismatch(self):
        for K, rhs in ((np.eye(3), np.zeros(2)), (3.0, [1.0]), (np.zeros((0, 0)), np.zeros(0))):
            with pytest.raises(ValueError, match="shape mismatch"):
                solve_dense(K, rhs)

    def test_nan_matrix_entry_named(self):
        K = np.eye(3)
        K[1, 2] = np.nan
        with pytest.raises(ValueError, match="row 1, column 2"):
            solve_dense(K, np.ones(3))

    def test_nan_rhs_entry_named(self):
        with pytest.raises(ValueError, match="right-hand side entry at row 2"):
            solve_dense(np.eye(3), np.array([1.0, 2.0, np.nan]))

    def test_overflowing_solution_raises_without_a_warning(self):
        # finite input whose solution, 1e311, overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="iterate became non-finite") as info:
                solve_dense(np.diag([1e-5, 1e-5]), np.array([1e306, 1.0]))
        assert info.value.iterations == 0

    def test_inf_matrix_entry_is_not_a_singular_pivot(self):
        K = np.eye(2)
        K[0, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite matrix entry at row 0, column 1") as info:
            solve_dense(K, np.ones(2))
        assert not isinstance(info.value, SingularSystemError)


def outer_product_lu(A0):
    """Pivoted Gaussian elimination with np.outer updates, the factorization
    the solver used before QR; the QR singular check must name the same
    collapsing step on rank-deficient matrices."""
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
    L = np.tril(A, -1)
    np.fill_diagonal(L, 1.0)
    return L, np.triu(A), perm


def rank_deficient_4x4():
    K = np.ones((4, 4))
    K[:, 3] = [1.0, 2.0, 3.0, 4.0]
    return K


def rank_deficient_58x58():
    K = np.random.default_rng(58).uniform(-5, 5, size=(58, 58))
    K[:, 40] = K[:, 3] + K[:, 17]
    return K


class TestSingularCheck:
    @pytest.mark.parametrize(
        "K, index", [(rank_deficient_4x4(), 1), (rank_deficient_58x58(), 40)], ids=["4x4", "58x58"]
    )
    def test_same_singular_pivot_as_elimination(self, K, index):
        with pytest.raises(SingularSystemError) as info:
            _check_nonsingular(K)
        with pytest.raises(SingularSystemError) as ref:
            outer_product_lu(K)
        assert info.value.pivot_index == ref.value.pivot_index == index
        assert info.value.pivot_value < _PIVOT_RTOL * np.max(np.abs(K))


class TestPicardSolve:
    def test_example1_converges_to_the_fixed_point(self):
        sol = picard_solve(preset("example1"), 3)
        assert sol.converged
        assert display_coeffs(sol, "p") == pytest.approx(EX1_FIXED_POINT["p"], abs=1e-8)
        assert display_coeffs(sol, "q") == pytest.approx(EX1_FIXED_POINT["q"], abs=1e-8)

    def test_example1_p_coefficients_match_reference(self):
        sol = picard_solve(preset("example1"), 3)
        assert display_coeffs(sol, "p") == pytest.approx(EX1_REFERENCE["p"], abs=5e-5)

    @pytest.mark.xfail(
        strict=True,
        reason="the reference q coefficients are the fifth lagged iterate, not "
        "the fixed point; the fixed point differs by up to 6e-4 (see "
        "test_five_fixed_iterations_reproduce_reference)",
    )
    def test_example1_q_coefficients_match_reference(self):
        sol = picard_solve(preset("example1"), 3)
        assert display_coeffs(sol, "q") == pytest.approx(EX1_REFERENCE["q"], abs=5e-5)

    def test_five_fixed_iterations_reproduce_reference(self):
        # the benchmark coefficients drop out of the bootstrap plus exactly
        # five lagged iterations, to all recorded digits
        sol = picard_solve(preset("example1"), 3, SolverConfig(fixed_iters=5))
        assert display_coeffs(sol, "p") == pytest.approx(EX1_REFERENCE["p"], abs=1e-7)
        assert display_coeffs(sol, "q") == pytest.approx(EX1_REFERENCE["q"], abs=1e-7)

    def test_numpy_integer_degree_solves_like_an_int(self):
        spec = preset("example2")
        sol = picard_solve(spec, np.int64(5))
        ref = picard_solve(spec, 5)
        assert type(sol.basis.degree) is int and sol.basis == ref.basis
        for field in ("coeffs_p", "coeffs_q", "grid_values"):
            assert getattr(sol, field).tobytes() == getattr(ref, field).tobytes()
        assert sol.iterations_used == ref.iterations_used

    def test_example1_pointwise_error_at_half(self):
        spec = preset("example1")
        sol = picard_solve(spec, 3)
        exact = gb.evaluate(spec.exact_p, gb.PointState(x=0.5))
        err = abs(exact - sol.evaluate(0.5, "p"))
        assert err == pytest.approx(1.273431e-4, rel=0.02)

    def test_zero_data_linear_problem(self):
        spec = ProblemSpec(
            domain=(0.0, 1.0),
            bc_p=BoundaryData(0.0, 0.0, "a", 0.0),
            bc_q=BoundaryData(0.0, 0.0, "a", 0.0),
        )
        sol = picard_solve(spec, 4)
        assert sol.converged and sol.iterations_used == 0
        xs = np.linspace(0, 1, 21)
        assert np.max(np.abs(sol.evaluate(xs, "p"))) <= 1e-12
        assert np.max(np.abs(sol.evaluate(xs, "q"))) <= 1e-12

    def test_prescribed_derivative_at_right_end(self):
        # p''' = 6 with p(0)=0, p(1)=1, p'(1)=3 has the cubic solution x^3,
        # inside the degree-3 trial set; exercises the natural end at a
        spec = ProblemSpec(
            domain=(0.0, 1.0),
            f=gb.parse("6"),
            bc_p=BoundaryData(0.0, 1.0, "b", 3.0),
            bc_q=BoundaryData(0.0, 0.0, "a", 0.0),
            exact_p=gb.parse("x^3"),
            exact_q=gb.parse("0"),
        )
        sol = picard_solve(spec, 3)
        assert max_grid_error(spec, sol, "p") <= 1e-11
        assert max_grid_error(spec, sol, "q") <= 1e-12

    def test_manufactured_coupled_problem_off_unit_domain(self):
        # p = x^3, q = x^2 - 1 on [-1, 1] satisfy
        #   p''' + p + x q + p q = x^5 + x^3 - x + 6
        #   q''' + 2 q' - p      = 4 x - x^3
        # and both lie in the degree-3 trial set, so the converged solve
        # reproduces them; exercises coefficients, coupling, the nonlinear
        # path and the offsets away from the unit interval
        spec = ProblemSpec(
            domain=(-1.0, 1.0),
            p_coeffs=(None, None, gb.parse("1"), None, None, gb.parse("x")),
            q_coeffs=(None, gb.parse("2"), None, None, None, gb.parse("-1")),
            f=gb.parse("x^5 + x^3 - x + 6"),
            g=gb.parse("4*x - x^3"),
            m1=gb.parse("p * q"),
            bc_p=BoundaryData(-1.0, 1.0, "a", 3.0),
            bc_q=BoundaryData(0.0, 0.0, "a", -2.0),
            exact_p=gb.parse("x^3"),
            exact_q=gb.parse("x^2 - 1"),
        )
        sol = picard_solve(spec, 3, SolverConfig(picard_tol=1e-13))
        assert sol.converged
        assert max_grid_error(spec, sol, "p") <= 1e-10
        assert max_grid_error(spec, sol, "q") <= 1e-10

    def test_replication_mode_runs_exactly_k_iterations(self):
        sol = picard_solve(preset("example1"), 3, SolverConfig(fixed_iters=4))
        assert sol.iterations_used == 4
        assert not sol.converged  # still ~1e-4 from the fixed point

    def test_zero_fixed_iterations_returns_the_bootstrap(self):
        sol = picard_solve(preset("example1"), 3, SolverConfig(fixed_iters=0))
        assert sol.iterations_used == 0
        assert not sol.converged

    def test_iteration_counts(self):
        assert picard_solve(preset("example1"), 3).iterations_used == 16
        assert picard_solve(preset("example2"), 3).iterations_used == 16
        assert picard_solve(preset("example4"), 5).iterations_used == 4

    @pytest.mark.parametrize(
        "name, iterations", [("example1", 9), ("example2", 13), ("example4", 4)]
    )
    def test_highest_degree_counts_and_error(self, name, iterations):
        # cond(K) is about 2e15 at degree 30; the triangular solves on the
        # factors must stay backward stable for the iteration to converge
        spec = preset(name)
        sol = picard_solve(spec, 30)
        assert sol.converged and sol.iterations_used == iterations
        assert max_grid_error(spec, sol, "p") <= 1e-10
        assert max_grid_error(spec, sol, "q") <= 1e-10

    def test_boundary_values_reproduced(self):
        for name, degree in (("example2", 3), ("example3", 5), ("example4", 5)):
            spec = preset(name)
            sol = picard_solve(spec, degree)
            a, b = spec.domain
            assert sol.evaluate(a, "p") == pytest.approx(spec.bc_p.value_a, abs=1e-12)
            assert sol.evaluate(b, "p") == pytest.approx(spec.bc_p.value_b, abs=1e-12)
            assert sol.evaluate(a, "q") == pytest.approx(spec.bc_q.value_a, abs=1e-12)
            assert sol.evaluate(b, "q") == pytest.approx(spec.bc_q.value_b, abs=1e-12)

    def test_non_convergence_error(self):
        # quintupling the nonlinear term sends the contraction ratio past 1;
        # the iteration wanders without blowing up fast
        spec = preset("example1")
        harder = ProblemSpec(
            domain=spec.domain, p_coeffs=spec.p_coeffs, q_coeffs=spec.q_coeffs,
            f=spec.f, g=spec.g, m1=None, m2=gb.parse("5 * (1/6 * d2p * d2q)"),
            bc_p=spec.bc_p, bc_q=spec.bc_q,
        )
        with pytest.raises(NonConvergenceError) as info:
            picard_solve(harder, 3, SolverConfig(max_picard_iters=30))
        assert len(info.value.last_distances) == 2

    def test_distances_are_between_successive_iterates(self):
        spec = preset("example2")
        with pytest.raises(NonConvergenceError) as info:
            picard_solve(spec, 12, SolverConfig(max_picard_iters=3))
        G1, G2, G3 = (
            picard_solve(spec, 12, SolverConfig(fixed_iters=k)).grid_values for k in (1, 2, 3)
        )
        expected = [np.max(np.abs(G2 - G1)), np.max(np.abs(G3 - G2))]
        assert info.value.last_distances == pytest.approx(expected, rel=1e-12, abs=0)

    def test_divergence_error(self):
        spec = preset("example1")
        explosive = ProblemSpec(
            domain=spec.domain, p_coeffs=spec.p_coeffs, q_coeffs=spec.q_coeffs,
            f=spec.f, g=spec.g, m1=None, m2=gb.parse("20 * (1/6 * d2p * d2q)"),
            bc_p=spec.bc_p, bc_q=spec.bc_q,
        )
        with pytest.raises(DivergenceError):
            picard_solve(explosive, 3)

    @pytest.mark.parametrize("degree", [4, 8])
    def test_overflowing_load_diverges_without_a_warning(self, degree):
        # the load overflows on the second iterate; the non-finite step is
        # refused, and the solve keeps numpy's overflow warnings to itself
        spec = preset("example1")
        blowup = replace(spec, m2=gb.parse("1e200 * p * p * p"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="iterate became non-finite") as info:
                picard_solve(blowup, degree)
        assert info.value.iterations == 2

    def test_overflowing_step_is_refused_in_replication_mode(self):
        # the defect is finite but its correction overflows: the one fixed
        # iterate must raise, not come back as NaN
        bc = BoundaryData(0.0, 0.0, "a", 0.0)
        spec = ProblemSpec(domain=(0.0, 1e6), m1=gb.parse("1e295"), bc_p=bc, bc_q=bc)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="iterate became non-finite") as info:
                picard_solve(spec, 8, SolverConfig(fixed_iters=1))
        assert info.value.iterations == 1

    def test_overflowing_step_raises_without_a_warning(self):
        # the same solve as above, with no np.errstate around it
        bc = BoundaryData(0.0, 0.0, "a", 0.0)
        spec = ProblemSpec(domain=(0.0, 1e6), m1=gb.parse("1e295"), bc_p=bc, bc_q=bc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="iterate became non-finite") as info:
                picard_solve(spec, 8, SolverConfig(fixed_iters=1))
        assert info.value.iterations == 1

    def test_overflowing_linear_bootstrap_raises(self):
        # a linear problem returns its bootstrap: a non-finite one is refused
        bc = BoundaryData(0.0, 0.0, "a", 0.0)
        spec = ProblemSpec(domain=(0.0, 1e6), f=gb.parse("1e295"), bc_p=bc, bc_q=bc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="iterate became non-finite") as info:
                picard_solve(spec, 8)
        assert info.value.iterations == 0

    def test_monotone_error_decay_across_degrees(self):
        # fully converge each degree so the comparison sees approximation
        # error, not iteration-truncation noise
        floor = 1e-12
        config = SolverConfig(picard_tol=1e-13)
        cases = {"example1": (3, 4, 5), "example2": (3, 4, 5), "example4": (5, 6, 7, 8)}
        for name, degrees in cases.items():
            spec = preset(name)
            errors = []
            for n in degrees:
                sol = picard_solve(spec, n, config)
                errors.append(
                    max(max_grid_error(spec, sol, "p"), max_grid_error(spec, sol, "q"))
                )
            for lo, hi in zip(errors[1:], errors):
                if hi > floor:
                    assert lo <= hi, (name, errors)


class TestDefectCorrectionIteration:
    # each lagged step is c + K^-1 (rhs + N(c) - K c): the recurrence
    # c = K^-1 (rhs + N(c)) written as a defect correction
    COUNTS = {  # degrees 3..30
        "example1": [16, 13, 11, 11, 10] + [9] * 23,
        "example2": [16, 15, 14] + [13] * 25,
        "example4": [4] * 28,
    }

    @staticmethod
    def plain_lagged_iterate(spec, sol, iterations):
        # c = K^-1 (rhs + N(c)) from the linear bootstrap, each solve by LU;
        # the solution holds c in Bernstein coefficients
        system = assemble_linear(spec, sol.basis.degree)
        to_bern = _reference_tables(sol.basis.degree)[3]
        c = solve_dense(system.matrix, system.rhs)
        for _ in range(iterations):
            lagged = replace(sol, coeffs_p=c[: system.size] @ to_bern,
                             coeffs_q=c[system.size :] @ to_bern)
            nl = assemble_nonlinear_rhs(spec, lagged)
            c = solve_dense(system.matrix, system.rhs + nl)
        return replace(sol, coeffs_p=c[: system.size] @ to_bern,
                       coeffs_q=c[system.size :] @ to_bern)

    @pytest.mark.parametrize("name, degree", [("example1", 3), ("example2", 8), ("example2", 12)])
    def test_fixed_iterates_are_the_plain_lagged_recurrence(self, name, degree):
        spec = preset(name)
        sol = picard_solve(spec, degree, SolverConfig(fixed_iters=5))
        plain = self.plain_lagged_iterate(spec, sol, 5)
        got = np.concatenate([sol.coeffs_p, sol.coeffs_q])
        assert np.max(np.abs(got - np.concatenate([plain.coeffs_p, plain.coeffs_q]))) <= 1e-12

    @pytest.mark.parametrize("degree", [28, 30])
    def test_unconverged_iterates_keep_substitution_accuracy(self, degree):
        # the fifth iterate is still far from the fixed point, so each step
        # is large; the product with the stored K^-1 keeps it as accurate as
        # a fresh solve per step
        spec = preset("example2")
        sol = picard_solve(spec, degree, SolverConfig(fixed_iters=5))
        plain = self.plain_lagged_iterate(spec, sol, 5)
        grid = np.linspace(*spec.domain, _GRID_POINTS)
        assert np.max(np.abs(sol.grid_values - plain.evaluate(grid, "pq"))) <= 1e-11

    @pytest.mark.parametrize("name", sorted(COUNTS))
    def test_iteration_counts_at_every_degree(self, name):
        spec = preset(name)
        counts = [picard_solve(spec, n).iterations_used for n in range(3, 31)]
        assert counts == self.COUNTS[name]

    @pytest.mark.parametrize("degree", [12, 30])
    @pytest.mark.parametrize("name", ["example1", "example2", "example4"])
    def test_fixed_point_residual_at_round_off(self, name, degree):
        spec = preset(name)
        sol = picard_solve(spec, degree, SolverConfig(fixed_iters=40))
        assert residual_norm(spec, sol) <= 1e-13

    def test_one_elimination_per_solve(self, monkeypatch):
        calls = []
        original = np.linalg.inv

        def counting(a):
            calls.append(a.shape)
            return original(a)

        monkeypatch.setattr(np.linalg, "inv", counting)
        # K is inverted once; the bootstrap and every iteration apply K^-1 by
        # mat-vecs, whatever the iteration count and whether or not the
        # problem is linear
        for name, degree, config, iterations in (
            ("example2", 30, SolverConfig(), 13),
            ("example4", 30, SolverConfig(), 4),
            ("example1", 12, SolverConfig(fixed_iters=30), 30),
            ("example1", 5, SolverConfig(fixed_iters=0), 0),
            ("example3", 30, SolverConfig(), 0),
        ):
            calls.clear()
            sol = picard_solve(preset(name), degree, config)
            assert sol.iterations_used == iterations
            size = 2 * (degree - 1)
            assert calls == [(size, size)], (name, degree)
        calls.clear()
        solve_dense(np.eye(4), np.ones(4))
        assert calls == []

    @pytest.mark.parametrize("degree", [26, 28, 30])
    def test_linear_problem_keeps_substitution_accuracy(self, degree):
        # example3 is linear, so its answer is the bootstrap K^-1 rhs; in a
        # well-conditioned basis the explicit inverse loses nothing
        spec = preset("example3")
        sol = picard_solve(spec, degree)
        assert max(max_grid_error(spec, sol, w) for w in "pq") <= 1e-10

    @pytest.mark.parametrize("name", ["example1", "example2", "example4"])
    def test_stored_inverse_iteration_stays_converged(self, name):
        # fifty steps with the stored K^-1 past the fixed point neither
        # drift nor diverge: the fixed point keeps its accuracy
        spec = preset(name)
        converged = picard_solve(spec, 30)
        replicated = picard_solve(spec, 30, SolverConfig(fixed_iters=50))
        assert replicated.iterations_used == 50
        assert np.max(np.abs(replicated.grid_values - converged.grid_values)) <= 1e-10
        assert max(max_grid_error(spec, replicated, w) for w in "pq") <= 1e-9

    @pytest.mark.parametrize("name", ["example1", "example2", "example4"])
    def test_replication_runs_past_convergence(self, name):
        # once converged the distances only jitter at round-off, which is
        # not divergence however much they grow relative to each other
        spec = preset(name)
        config = SolverConfig(fixed_iters=30)
        for degree in range(3, 31):
            assert picard_solve(spec, degree, config).iterations_used == 30, degree

    def test_replication_still_detects_divergence(self):
        spec = preset("example1")
        explosive = ProblemSpec(
            domain=spec.domain, p_coeffs=spec.p_coeffs, q_coeffs=spec.q_coeffs,
            f=spec.f, g=spec.g, m1=None, m2=gb.parse("20 * (1/6 * d2p * d2q)"),
            bc_p=spec.bc_p, bc_q=spec.bc_q,
        )
        with pytest.raises(DivergenceError):
            picard_solve(explosive, 3, SolverConfig(fixed_iters=30))


def sin_cos_problem(a, b, deriv_end):
    # p = sin x, q = cos x with M1 = p q and M2 = q' p, the manufactured
    # problem of the long-domain benchmark
    x = a if deriv_end == "a" else b
    return ProblemSpec(
        domain=(a, b),
        f=gb.parse("-cos(x) + sin(x)*cos(x)"),
        g=gb.parse("sin(x) - sin(x)^2"),
        m1=gb.parse("p * q"),
        m2=gb.parse("dq * p"),
        bc_p=BoundaryData(np.sin(a), np.sin(b), deriv_end, np.cos(x)),
        bc_q=BoundaryData(np.cos(a), np.cos(b), deriv_end, -np.sin(x)),
        exact_p=gb.parse("sin(x)"),
        exact_q=gb.parse("cos(x)"),
    )


class TestLongDomains:
    # the lagged iteration contracts more slowly as the domain grows, until
    # it stalls and then blows up
    @pytest.mark.parametrize("a, b, deriv_end, degree, iterations", [
        (0.0, 3.0, "a", 16, 22),
        (-2.0, 2.0, "a", 16, 46),
        (0.0, 3.5, "b", 20, 36),
    ])
    def test_iteration_count_grows_with_length(self, a, b, deriv_end, degree, iterations):
        spec = sin_cos_problem(a, b, deriv_end)
        sol = picard_solve(spec, degree)
        assert sol.converged and sol.iterations_used == iterations
        assert max_grid_error(spec, sol, "p") <= 1e-9
        assert max_grid_error(spec, sol, "q") <= 1e-9

    def test_budget_exhausted_on_length_4(self):
        with pytest.raises(NonConvergenceError) as info:
            picard_solve(sin_cos_problem(0.0, 4.0, "b"), 20)
        assert info.value.iterations == 50

    def test_divergence_on_length_5(self):
        with pytest.raises(DivergenceError):
            picard_solve(sin_cos_problem(0.0, 5.0, "b"), 20)


class TestEvalSolution:
    def test_boundary_value(self):
        sol = picard_solve(preset("example1"), 3)
        assert sol.evaluate(0.0, "p") == pytest.approx(0.0, abs=1e-13)

    def test_example2_interior_value(self):
        spec = preset("example2")
        sol = picard_solve(spec, 3)
        err = abs(0.0625 - sol.evaluate(0.5, "p"))
        assert err == pytest.approx(5.929053e-3, rel=0.05)

    def test_example2_right_boundary(self):
        sol = picard_solve(preset("example2"), 3)
        assert sol.evaluate(1.0, "p") == pytest.approx(1.0, abs=1e-7)

    def test_derivative_orders(self):
        spec = preset("example2")
        sol = picard_solve(spec, 4)  # exact solutions x^4 and x^3 in space
        assert sol.evaluate(0.5, "p", order=1) == pytest.approx(4 * 0.5**3, abs=1e-8)
        assert sol.evaluate(0.5, "q", order=2) == pytest.approx(6 * 0.5, abs=1e-7)

    def test_domain_and_argument_errors(self):
        sol = picard_solve(preset("example1"), 3)
        with pytest.raises(gb.DomainError):
            sol.evaluate(1.5, "p")
        with pytest.raises(gb.DomainError):
            sol.evaluate(np.nan, "p")
        with pytest.raises(gb.DomainError):
            sol.evaluate(np.array([0.5, np.nan]), "q", order=1)
        with pytest.raises(ValueError):
            sol.evaluate(0.5, "r")
        with pytest.raises(ValueError):
            sol.evaluate(0.5, "qp")
        with pytest.raises(ValueError):
            sol.evaluate(0.5, "p", order=3)

    @pytest.mark.parametrize("x", [np.full((2, 3), 0.5), [[0.5]], np.zeros((1, 1, 1))])
    def test_x_of_more_than_one_dimension_refused(self, x):
        sol = picard_solve(preset("example1"), 3)
        with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(x)}")):
            sol.evaluate(x, "pq")

    @pytest.mark.parametrize("x", [np.linspace(0.05, 0.95, 9), 0.3])
    def test_both_unknowns_from_one_table(self, monkeypatch, x):
        sol = picard_solve(preset("example2"), 12)
        single = [np.asarray(sol.evaluate(x, u, order=1)) for u in "pq"]
        calls = []
        original = gb.BernsteinBasis.interior_table

        def counting(self, x, order=0):
            calls.append(order)
            return original(self, x, order)

        monkeypatch.setattr(gb.BernsteinBasis, "interior_table", counting)
        both = sol.evaluate(x, "pq", order=1)
        assert calls == [1]
        assert both.shape == (2, *np.shape(x))
        assert both[0].tobytes() == single[0].tobytes()
        assert both[1].tobytes() == single[1].tobytes()

    def test_coefficients_are_frozen(self):
        sol = picard_solve(preset("example1"), 3)
        with pytest.raises(ValueError):
            sol.coeffs_p[0] = 1.0

    def test_coefficients_checked_against_the_basis(self):
        sol = picard_solve(preset("example1"), 3)
        fields = dict(
            basis=sol.basis, offset_p=sol.offset_p, offset_q=sol.offset_q,
            coeffs_p=sol.coeffs_p, coeffs_q=sol.coeffs_q, iterations_used=0, converged=True,
        )
        for name, bad in (("coeffs_p", np.ones(3)), ("coeffs_q", np.ones((1, 2)))):
            with pytest.raises(gb.SpecValidationError, match=rf"{name} must have shape \(2,\)"):
                gb.Solution(**{**fields, name: bad})
        # lists are taken as float arrays, read-only like the solver's own
        listed = gb.Solution(**{**fields, "coeffs_p": [0.5, -0.25], "coeffs_q": [1, 2]})
        assert listed.coeffs_q.dtype == float
        assert listed.evaluate(0.5, "q") == pytest.approx(sol.offset_q.value(0.5) + 3 * 0.375)
        with pytest.raises(ValueError):
            listed.coeffs_p[0] = 1.0


class TestSolutionCarriesRuleAndGrid:
    """A solve's discretization: the system it assembles and the grid values
    it returns."""

    CASES = [
        ("example3", 8, SolverConfig()),  # linear: the bootstrap is the answer
        ("example1", 5, SolverConfig(fixed_iters=0)),
        ("example1", 5, SolverConfig(fixed_iters=5)),
        ("example2", 12, SolverConfig()),
        ("example4", 9, SolverConfig()),
    ]

    @pytest.mark.parametrize("name, degree, config", CASES)
    def test_grid_values_are_evaluate_on_the_grid(self, name, degree, config):
        spec = preset(name)
        sol = picard_solve(spec, degree, config)
        # the grid values come from the solve's tables, evaluate from the
        # Bernstein coefficients: equal to round-off
        grid = np.linspace(*spec.domain, _GRID_POINTS)
        expected = np.array([sol.evaluate(grid, "p"), sol.evaluate(grid, "q")])
        assert sol.grid_values.shape == (2, _GRID_POINTS)
        assert np.max(np.abs(sol.grid_values - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("name, degree, config", CASES)
    def test_rule_is_the_assembly_rule(self, name, degree, config, monkeypatch):
        # a solve assembles once, and what it factors is assemble_linear's
        # system at that degree, bit for bit
        systems = []

        def recording(*args, **kwargs):
            systems.append(assemble_linear(*args, **kwargs))
            return systems[-1]

        monkeypatch.setattr(gb.solver, "assemble_linear", recording)
        spec = preset(name)
        picard_solve(spec, degree, config)
        (system,) = systems
        fresh = assemble_linear(spec, degree)
        assert system.matrix.tobytes() == fresh.matrix.tobytes()
        assert system.rhs.tobytes() == fresh.rhs.tobytes()

    def test_grid_values_match_evaluate_off_the_unit_interval(self):
        # off [0, 1] the grid table is the cached one, scaled: it matches a
        # fresh tabulation to round-off, not bit for bit
        spec = sin_cos_problem(-1.3, 1.7, "a")
        sol = picard_solve(spec, 30)
        grid = np.linspace(*spec.domain, _GRID_POINTS)
        expected = sol.evaluate(grid, "pq")
        assert np.max(np.abs(sol.grid_values - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_grid_values_are_read_only(self):
        sol = picard_solve(preset("example1"), 4)
        with pytest.raises(ValueError):
            sol.grid_values[0, 0] = 1.0

    def test_hand_built_solution_has_neither(self):
        sol = picard_solve(preset("example1"), 4)
        bare = gb.Solution(
            basis=sol.basis, offset_p=sol.offset_p, offset_q=sol.offset_q,
            coeffs_p=sol.coeffs_p, coeffs_q=sol.coeffs_q, iterations_used=0, converged=True,
        )
        assert bare.grid_values is None


class TestRefineSolve:
    def test_example1_sweep_stops_after_entering_the_trial_space(self):
        spec = preset("example1")
        sol, history = refine_solve(spec, SolverConfig(min_degree=3, max_degree=6))
        assert history.converged
        assert history.degrees == [3, 4, 5]
        assert sol.basis.degree == 5
        assert history.distances[0] is None
        # the 3->4 distance sits at the degree-3 error scale
        assert 1e-2 <= history.distances[1] <= 1e-1  # dominated by q
        assert history.distances[2] <= 1e-8

    def test_consecutive_degree_distance_tracks_coarse_error(self):
        spec = preset("example1")
        sol3 = picard_solve(spec, 3)
        sol4 = picard_solve(spec, 4)
        xs = np.linspace(0, 1, 101)
        dist_p = np.max(np.abs(sol3.evaluate(xs, "p") - sol4.evaluate(xs, "p")))
        assert 1e-4 <= dist_p <= 4e-4  # ~2e-4, the degree-3 error scale for p

    def test_distances_are_those_of_the_solutions(self):
        spec = preset("example1")
        _, history = refine_solve(spec, SolverConfig(min_degree=3, max_degree=5))
        vals = [picard_solve(spec, n).grid_values for n in history.degrees]
        expected = [None] + [
            float(np.max(np.abs(v - u))) for u, v in zip(vals, vals[1:])
        ]
        assert history.distances == expected

    def test_single_degree_sweep(self):
        spec = preset("example2")
        sol, history = refine_solve(spec, SolverConfig(min_degree=5, max_degree=5))
        assert history.degrees == [5]
        assert history.distances == [None]
        assert not history.converged

    def test_unconverged_sweep_returns_best(self):
        spec = preset("example3")
        sol, history = refine_solve(spec, SolverConfig(min_degree=3, max_degree=4))
        assert not history.converged
        assert sol.basis.degree == 4
        assert len(history.degrees) == 2

    def test_one_grid_table_per_degree(self, monkeypatch):
        # the sweep compares the grid values each solve returns; it builds
        # no basis table of its own, and a cold solve builds its degree's
        # tables once, for the cache, which a warm rerun reads
        calls = []
        original = gb.BernsteinBasis.interior_table

        def counting(self, x, order=0):
            calls.append(self.degree)
            return original(self, x, order)

        monkeypatch.setattr(gb.BernsteinBasis, "interior_table", counting)
        _reference_tables.cache_clear()
        config = SolverConfig(min_degree=3, max_degree=6)
        _, history = refine_solve(preset("example1"), config)
        assert history.degrees == [3, 4, 5]
        assert _reference_tables.cache_info().misses == len(history.degrees)
        _, rerun = refine_solve(preset("example1"), config)
        assert rerun.degrees == history.degrees
        assert _reference_tables.cache_info().misses == len(history.degrees)
        assert calls == []


class TestSolverConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(picard_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(degree_tol=-1e-8)
        with pytest.raises(ValueError):
            SolverConfig(max_picard_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(min_degree=2)
        with pytest.raises(ValueError):
            SolverConfig(min_degree=6, max_degree=5)
        with pytest.raises(ValueError):
            SolverConfig(fixed_iters=-1)
        with pytest.raises(ValueError):
            SolverConfig(picard_tol=float("nan"))
        with pytest.raises(ValueError):
            SolverConfig(degree_tol=float("nan"))
        with pytest.raises(ValueError, match="positive and finite"):
            SolverConfig(picard_tol=float("inf"))
        with pytest.raises(ValueError, match="positive and finite"):
            SolverConfig(degree_tol=float("inf"))
        with pytest.raises(ValueError, match="positive and finite"):
            SolverConfig(picard_tol="1e-3")
        with pytest.raises(ValueError, match="positive and finite"):
            SolverConfig(picard_tol=True)
        with pytest.raises(ValueError, match="max_degree 31 exceeds the degree cap 30"):
            SolverConfig(max_degree=31)
        # counts must be integers: a float or bool would reach range() or the report
        for name, value in [
            ("max_picard_iters", 2.5),
            ("max_picard_iters", True),
            ("fixed_iters", 2.5),
            ("fixed_iters", False),
            ("min_degree", 3.5),
            ("max_degree", 12.0),
            ("max_degree", "12"),
        ]:
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
                SolverConfig(**{name: value})

    def test_accepts_the_edge_values(self):
        SolverConfig(min_degree=30, max_degree=30, picard_tol=1e300)
        SolverConfig(max_picard_iters=np.int64(1), fixed_iters=np.int32(0),
                     min_degree=np.int64(3), max_degree=np.int64(3))

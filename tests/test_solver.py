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
from galbern.cli import preset

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
        with pytest.raises(ValueError):
            solve_dense(np.eye(3), np.zeros(2))


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

    def test_divergence_error(self):
        spec = preset("example1")
        explosive = ProblemSpec(
            domain=spec.domain, p_coeffs=spec.p_coeffs, q_coeffs=spec.q_coeffs,
            f=spec.f, g=spec.g, m1=None, m2=gb.parse("20 * (1/6 * d2p * d2q)"),
            bc_p=spec.bc_p, bc_q=spec.bc_q,
        )
        with pytest.raises(DivergenceError):
            picard_solve(explosive, 3)

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
        with pytest.raises(ValueError):
            sol.evaluate(0.5, "r")
        with pytest.raises(ValueError):
            sol.evaluate(0.5, "p", order=3)

    def test_coefficients_are_frozen(self):
        sol = picard_solve(preset("example1"), 3)
        with pytest.raises(ValueError):
            sol.coeffs_p[0] = 1.0


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
            SolverConfig(grid_points=1)
        with pytest.raises(ValueError):
            SolverConfig(fixed_iters=-1)

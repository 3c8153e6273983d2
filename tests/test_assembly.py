import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
import sympy as sp
from numpy.polynomial import Legendre
from numpy.polynomial import polynomial as P

import galbern as gb
from galbern import (
    AssemblyError,
    BernsteinBasis,
    BoundaryData,
    ProblemSpec,
    SpecValidationError,
    assemble_linear,
    assemble_nonlinear_rhs,
    build_offset,
    gauss_legendre,
    picard_solve,
    residual_norm,
)
from galbern.assembly import AffineOffset, _reference_tables, _Workspace
from galbern.cli import PRESETS, preset
from galbern.solver import Solution


def make_rule(degree, domain=(0.0, 1.0)):
    return gauss_legendre(gb.default_order(degree), *domain)


# ---------------------------------------------------------------------------
# symbolic assembly oracle: the same weak form, evaluated by sympy integration
# instead of quadrature

X = sp.Symbol("x")


def _sym_bernstein(n):
    return [sp.binomial(n, i) * X**i * (1 - X) ** (n - i) for i in range(n + 1)]


def _sym_shen(n):
    # phi_k = (L_k - L_{k+2}) / sqrt(4k + 6) in t = 2x - 1, k = 0..n-2
    t = 2 * X - 1
    return [(sp.legendre(k, t) - sp.legendre(k + 2, t)) / sp.sqrt(4 * k + 6) for k in range(n - 1)]


def shen_table(n, x, order=0, domain=(0.0, 1.0)):
    """phi_k^(order) at x, k = 0..n-2, by numpy's Legendre series on the domain."""
    L = [Legendre.basis(k, domain=list(domain)) for k in range(n + 1)]
    return np.array(
        [((L[k] - L[k + 2]) / np.sqrt(4 * k + 6)).deriv(order)(x) for k in range(n - 1)]
    )


def _integrate01(e):
    """int_0^1 of the polynomial e, by its exact antiderivative."""
    antiderivative = sp.Poly(e, X).integrate()
    return antiderivative.eval(1) - antiderivative.eval(0)


def _sym_offset(bc):
    return sp.Integer(0) + bc.value_a * (1 - X) + bc.value_b * X


def _sym_equation(n, coeffs, forcing, bc, theta_own, theta_cross):
    phi = _sym_shen(n)
    c1, c2, c3, c4, c5, c6 = [sp.sympify(c) for c in coeffs]
    own = sp.zeros(n - 1, n - 1)
    cross = sp.zeros(n - 1, n - 1)
    rhs = sp.zeros(n - 1, 1)
    e_nat = bc.natural_end
    s = -1 if e_nat == "b" else 1
    x_nat = 1 if e_nat == "b" else 0
    x_pre = 0 if e_nat == "b" else 1
    for row, phi_i in enumerate(phi):
        dphi_i = sp.diff(phi_i, X)
        for col, phi_j in enumerate(phi):
            own[row, col] = _integrate01(
                sp.diff(phi_i, X, 2) * sp.diff(phi_j, X)
                + (c1 * sp.diff(phi_j, X, 2) + c2 * sp.diff(phi_j, X) + c3 * phi_j) * phi_i
            ) + s * dphi_i.subs(X, x_nat) * sp.diff(phi_j, X).subs(X, x_nat)
            cross[row, col] = _integrate01(
                (c4 * sp.diff(phi_j, X, 2) + c5 * sp.diff(phi_j, X) + c6 * phi_j) * phi_i
            )
        load = _integrate01(sp.sympify(forcing) * phi_i)
        load -= _integrate01(
            (
                c1 * sp.diff(theta_own, X, 2)
                + c2 * sp.diff(theta_own, X)
                + c3 * theta_own
                + c4 * sp.diff(theta_cross, X, 2)
                + c5 * sp.diff(theta_cross, X)
                + c6 * theta_cross
            )
            * phi_i
        )
        load -= _integrate01(sp.diff(phi_i, X, 2) * sp.diff(theta_own, X))
        bracket = dphi_i * bc.deriv_value
        load += bracket.subs(X, x_pre) * (1 if bc.deriv_end == "b" else -1)
        load -= s * dphi_i.subs(X, x_nat) * sp.diff(theta_own, X).subs(X, x_nat)
        rhs[row] = load
    return own, cross, rhs


def symbolic_system(n, spec):
    theta_p = _sym_offset(spec.bc_p)
    theta_q = _sym_offset(spec.bc_q)

    def as_sym(e):
        return sp.Integer(0) if e is None else sp.sympify(gb.to_source(e).replace("^", "**"))

    A, H, F = _sym_equation(
        n, [as_sym(c) for c in spec.p_coeffs], as_sym(spec.f), spec.bc_p, theta_p, theta_q
    )
    C, D, G = _sym_equation(
        n, [as_sym(c) for c in spec.q_coeffs], as_sym(spec.g), spec.bc_q, theta_q, theta_p
    )
    m = n - 1
    K = sp.zeros(2 * m, 2 * m)
    K[:m, :m] = A
    K[:m, m:] = H
    K[m:, :m] = D
    K[m:, m:] = C
    rhs = sp.zeros(2 * m, 1)
    rhs[:m, 0] = F
    rhs[m:, 0] = G
    return np.array(K.evalf(20), dtype=float), np.array(rhs.evalf(20), dtype=float).ravel()


class TestBuildOffset:
    def test_homogeneous_is_zero(self):
        theta = build_offset(BoundaryData(0.0, 0.0, "a", 0.0), (0.0, 1.0))
        assert theta.value(0.3) == 0.0
        assert theta.value(0.3, 1) == 0.0

    def test_unit_rise_is_identity(self):
        theta = build_offset(BoundaryData(0.0, 1.0, "a", 0.0), (0.0, 1.0))
        assert theta.value(0.7) == pytest.approx(0.7, abs=1e-15)
        assert theta.value(0.2, 1) == pytest.approx(1.0, abs=1e-15)

    def test_unit_fall(self):
        theta = build_offset(BoundaryData(1.0, 0.0, "a", 0.0), (0.0, 1.0))
        assert theta.value(0.25) == pytest.approx(0.75, abs=1e-15)

    @pytest.mark.parametrize("va,vb,a,b", [(2.5, -1.0, -2.0, 5.0), (0.0, 4.0, 1.0, 1.5)])
    def test_endpoint_interpolation(self, va, vb, a, b):
        theta = build_offset(BoundaryData(va, vb, "b", 0.0), (a, b))
        scale = 1 + abs(va) + abs(vb)
        assert abs(theta.value(a) - va) <= 1e-13 * scale
        assert abs(theta.value(b) - vb) <= 1e-13 * scale


class TestAffineOffsetValue:
    """Horner's rule on the coefficients k c_k is numpy's polyval of polyder."""

    @pytest.mark.parametrize("degree", range(5))
    def test_bitwise_equal_to_polyval_of_polyder(self, degree):
        rng = np.random.default_rng(degree)
        c = rng.normal(size=degree + 1)
        theta = AffineOffset(tuple(c))
        xs = rng.uniform(-2.0, 2.0, 60)
        for order in range(4):
            reference = P.polyder(c, order)
            assert theta.value(xs, order).tobytes() == P.polyval(xs, reference).tobytes()
            for x in (float(xs[0]), 0.0, -1.5):
                got = theta.value(x, order)
                assert isinstance(got, float)
                assert np.float64(got).tobytes() == np.float64(P.polyval(x, reference)).tobytes()


class TestAssembleLinear:
    def test_example1_corner_entries(self):
        spec = preset("example1")
        system = assemble_linear(spec, 3)
        # phi_0 = sqrt(6) x (1 - x); own-p entry (0,0):
        # int(phi_0'' phi_0' + 2 phi_0' phi_0) - phi_0'(1)^2 = 0 + 0 - 6
        assert system.matrix[0, 0] == pytest.approx(-6.0, abs=1e-12)
        # cross entry (0,0): int x phi_0^2 dx = 6 * Beta(4, 3) = 1/10
        assert system.matrix[0, 2] == pytest.approx(0.1, rel=1e-12)

    def test_example1_against_symbolic_oracle(self):
        spec = preset("example1")
        n = 3
        system = assemble_linear(spec, n)
        K, rhs = symbolic_system(n, spec)
        assert system.matrix == pytest.approx(K, abs=1e-12)
        assert system.rhs == pytest.approx(rhs, abs=1e-12)

    def test_general_problem_against_symbolic_oracle(self):
        # every term populated, nonzero offsets, one derivative at each end
        spec = ProblemSpec(
            domain=(0.0, 1.0),
            p_coeffs=tuple(gb.parse(s) for s in ("x", "2", "1", "-4", "x^2", "x")),
            q_coeffs=tuple(gb.parse(s) for s in ("1", "-1", "x", "3", "2*x", "-2")),
            f=gb.parse("x^3 - 1"),
            g=gb.parse("5*x"),
            bc_p=BoundaryData(1.0, 2.0, "b", 3.0),
            bc_q=BoundaryData(-1.0, 0.5, "a", 0.5),
        )
        n = 4
        system = assemble_linear(spec, n)
        K, rhs = symbolic_system(n, spec)
        assert system.matrix == pytest.approx(K, abs=1e-11)
        assert system.rhs == pytest.approx(rhs, abs=1e-11)

    def test_all_zero_problem_has_zero_rhs(self):
        spec = ProblemSpec(
            domain=(0.0, 1.0),
            bc_p=BoundaryData(0.0, 0.0, "a", 0.0),
            bc_q=BoundaryData(0.0, 0.0, "a", 0.0),
        )
        system = assemble_linear(spec, 5)
        assert np.all(system.rhs == 0.0)

    def test_deterministic(self):
        spec = preset("example2")
        s1 = assemble_linear(spec, 4)
        s2 = assemble_linear(spec, 4)
        assert np.array_equal(s1.matrix, s2.matrix)
        assert np.array_equal(s1.rhs, s2.rhs)

    def test_quadrature_order_stability(self):
        # polynomial coefficients: entries are already exact at the default
        # order, so raising it changes nothing; compare with exact integrals
        spec = preset("example1")
        system = assemble_linear(spec, 4)
        K, rhs = symbolic_system(4, spec)
        assert np.max(np.abs(system.matrix - K)) <= 1e-12
        assert np.max(np.abs(system.rhs - rhs)) <= 1e-12

    def test_decoupling_without_cross_terms(self):
        spec = ProblemSpec(
            domain=(0.0, 1.0),
            p_coeffs=(None, gb.parse("2"), None, None, None, None),
            q_coeffs=(None, None, gb.parse("x"), None, None, None),
            f=gb.parse("1"),
            g=gb.parse("x"),
            bc_p=BoundaryData(0.0, 1.0, "a", 0.0),
            bc_q=BoundaryData(1.0, 0.0, "a", 0.0),
        )
        m = 4
        system = assemble_linear(spec, 5)
        assert np.all(system.matrix[:m, m:] == 0.0)
        assert np.all(system.matrix[m:, :m] == 0.0)

    def test_natural_end_rank_one_term(self):
        # the own block is the pure integral part plus -phi_i'(1) phi_j'(1)
        spec = preset("example1")
        n = 3
        rule = make_rule(n)
        system = assemble_linear(spec, n)
        d1b = shen_table(n, 1.0, 1)
        for i in range(n - 1):
            for j in range(n - 1):
                integral = gb.integrate(
                    lambda x: shen_table(n, x, 2)[i] * shen_table(n, x, 1)[j]
                    + 2.0 * shen_table(n, x, 1)[j] * shen_table(n, x)[i],
                    rule,
                )
                assert system.matrix[i, j] == pytest.approx(integral - d1b[i] * d1b[j], abs=1e-12)

    def test_non_finite_coefficient_reported(self):
        spec = ProblemSpec(
            domain=(0.0, 1.0),
            p_coeffs=(gb.parse("1e308 + 1e308"), None, None, None, None, None),
            bc_p=BoundaryData(0.0, 0.0, "a", 0.0),
            bc_q=BoundaryData(0.0, 0.0, "a", 0.0),
        )
        with pytest.raises(AssemblyError):
            assemble_linear(spec, 3)

    def test_mismatched_offset_rejected(self):
        spec = preset("example2")
        theta_q = AffineOffset((0.0, 1.0))
        # the p offset misses p(1)=1, or is NaN at the left end, which no
        # tolerance comparison may let through
        for theta_p in (AffineOffset((0.0, 0.5)), AffineOffset((np.nan, 1.0))):
            with pytest.raises(SpecValidationError, match="offset for p"):
                assemble_linear(spec, 3, (theta_p, theta_q))
        example1 = preset("example1")
        nan_p = (AffineOffset((np.nan, 1.0)), build_offset(example1.bc_q, example1.domain))
        with pytest.raises(SpecValidationError, match="offset for p"):
            picard_solve(example1, 5, offsets=nan_p)


def _manual_solution(basis, coeffs_p, coeffs_q, bc_p, bc_q):
    domain = basis.interval
    return Solution(
        basis=basis,
        offset_p=build_offset(bc_p, domain),
        offset_q=build_offset(bc_q, domain),
        coeffs_p=np.asarray(coeffs_p, dtype=float),
        coeffs_q=np.asarray(coeffs_q, dtype=float),
        iterations_used=0,
        converged=False,
    )


class TestNonlinearRhs:
    def test_absent_term_gives_zero_block(self):
        spec = preset("example1")  # nonlinear term only in the q equation
        basis = BernsteinBasis(3, (0.0, 1.0))
        sol = _manual_solution(basis, [0.5, -0.25], [1.0, 2.0], spec.bc_p, spec.bc_q)
        vec = assemble_nonlinear_rhs(spec, sol)
        assert np.all(vec[:2] == 0.0)
        assert np.any(vec[2:] != 0.0)

    def test_zero_iterate_gives_zero_vector(self):
        spec = preset("example1")
        basis = BernsteinBasis(3, (0.0, 1.0))
        sol = _manual_solution(basis, [0.0, 0.0], [0.0, 0.0], spec.bc_p, spec.bc_q)
        assert np.all(assemble_nonlinear_rhs(spec, sol) == 0.0)

    def test_vanishing_factor_gives_zero_vector(self):
        # q coefficients all zero make q'' identically zero in the product
        spec = preset("example1")
        basis = BernsteinBasis(3, (0.0, 1.0))
        sol = _manual_solution(basis, [3.0, 0.0], [0.0, 0.0], spec.bc_p, spec.bc_q)
        assert np.all(assemble_nonlinear_rhs(spec, sol) == 0.0)

    def test_against_symbolic_integration(self):
        spec = preset("example1")
        n = 3
        basis = BernsteinBasis(n, (0.0, 1.0))
        coeffs_p = [sp.Rational(1, 3), sp.Rational(-1, 5)]
        coeffs_q = [sp.Rational(1, 2), sp.Rational(1, 7)]
        sol = _manual_solution(
            basis, [float(c) for c in coeffs_p], [float(c) for c in coeffs_q],
            spec.bc_p, spec.bc_q,
        )
        vec = assemble_nonlinear_rhs(spec, sol)

        bern = _sym_bernstein(n)
        p2 = sum(c * sp.diff(bern[j], X, 2) for c, j in zip(coeffs_p, (1, 2)))
        q2 = sum(c * sp.diff(bern[j], X, 2) for c, j in zip(coeffs_q, (1, 2)))
        for row, phi_i in enumerate(_sym_shen(n)):
            expected = -sp.integrate(sp.Rational(1, 6) * p2 * q2 * phi_i, (X, 0, 1))
            assert vec[2 + row] == pytest.approx(float(expected), rel=1e-12)

    def test_offsets_enter_the_trial_functions(self):
        # with nonzero endpoint data, a zero coefficient vector still feeds
        # the offset derivatives into the nonlinear term
        spec = preset("example2")  # m1 = p'' q', m2 = p' q''
        basis = BernsteinBasis(3, (0.0, 1.0))
        sol = _manual_solution(basis, [0.0, 0.0], [0.0, 0.0], spec.bc_p, spec.bc_q)
        vec = assemble_nonlinear_rhs(spec, sol)
        # offsets are linear (theta'' = 0), so both products vanish here
        assert np.all(vec == 0.0)
        # a curved offset does not vanish
        curved = AffineOffset((0.0, 0.0, 1.0))  # x^2 interpolates (0, 1) as well
        sol2 = Solution(
            basis=basis, offset_p=curved, offset_q=curved,
            coeffs_p=np.zeros(2), coeffs_q=np.zeros(2),
            iterations_used=0, converged=False,
        )
        vec2 = assemble_nonlinear_rhs(spec, sol2)
        for row, phi_i in enumerate(_sym_shen(3)):
            expected = -sp.integrate(2 * 2 * X * phi_i, (X, 0, 1))  # p''q' = 2 * 2x
            assert vec2[row] == pytest.approx(float(expected), rel=1e-12)


def assert_close_to(got, expected):
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


class TestShenBasis:
    """The solve's basis spans the Bernstein interior space and conditions K well."""

    @pytest.mark.parametrize("name", PRESETS)
    def test_condition_number_stays_small(self, name):
        spec = preset(name)
        conds = [np.linalg.cond(assemble_linear(spec, n).matrix) for n in range(3, 31)]
        assert max(conds) <= 1e3, conds

    def test_map_to_bernstein_is_exact_at_degree_5(self):
        # b_j = sum_{i <= j} C(j, i) / C(n, i) a_i for monomial coefficients a_i
        n = 5
        to_bern = _reference_tables(n)[3]
        assert to_bern.shape == (n - 1, n - 1)
        for k, phi in enumerate(_sym_shen(n)):
            a = [sp.Poly(phi, X).coeff_monomial(X**i) for i in range(n + 1)]
            exact = [sum(sp.binomial(j, i) / sp.binomial(n, i) * a[i] for i in range(j + 1))
                     for j in range(n + 1)]
            assert exact[0] == 0 and sp.simplify(exact[n]) == 0
            assert np.max(np.abs(to_bern[k] - np.array(exact[1:n], dtype=float))) <= 1e-15

    @pytest.mark.parametrize("n", range(3, 13))
    def test_map_reproduces_the_grid_table(self, n):
        _, _, grid_table, to_bern = _reference_tables(n)
        bernstein = BernsteinBasis(n, (0.0, 1.0)).interior_table(np.linspace(0.0, 1.0, 101))
        assert np.max(np.abs(to_bern @ bernstein - grid_table)) <= 1e-13


class TestWorkspace:
    """The one-pass tables must equal a direct tabulation of the basis."""

    def test_tables_equal_separate_calls(self):
        spec = preset("example4")
        a, b = spec.domain
        rule = make_rule(30, (a, b))
        grid = np.linspace(a, b, 101)
        ws = _Workspace(spec, 30)
        assert ws.xs.tobytes() == rule.points.tobytes()
        assert ws.w.tobytes() == rule.weights.tobytes()
        assert ws.grid.tobytes() == grid.tobytes()
        for order, table in enumerate(ws.tables):
            assert table.flags.c_contiguous
            assert_close_to(table, shen_table(30, rule.points, order))
        ends = shen_table(30, np.array(spec.domain), 1)
        assert_close_to(ws.d1["a"], ends[:, 0])
        assert_close_to(ws.d1["b"], ends[:, 1])
        assert ws.grid_table.flags.c_contiguous
        assert_close_to(ws.grid_table, shen_table(30, grid))

    @pytest.mark.parametrize("domain", [(0.0, 1.0), (-1.3, 1.7)])
    def test_trial_tables_append_the_offset(self, domain):
        spec = _bare_spec(domain)
        ws = _Workspace(spec, 12)
        for u, theta in ws.theta.items():
            for order, (test, trial) in enumerate(zip(ws.tables, ws.trial[u])):
                assert trial.shape == (ws.m + 1, len(ws.xs))
                assert trial[:-1].tobytes() == test.tobytes()
                assert trial[-1].tobytes() == theta.value(ws.xs, order).tobytes()
            e = getattr(spec, f"bc_{u}").natural_end
            assert ws.trial_d1[u][:-1].tobytes() == ws.d1[e].tobytes()
            assert ws.trial_d1[u][-1] == theta.value(domain[e == "b"], 1)


def _bare_spec(domain, **terms):
    bc = BoundaryData(0.5, -1.0, "a", 2.0)
    return ProblemSpec(domain=domain, bc_p=bc, bc_q=bc, **terms)


class TestReferenceTables:
    """Tables cached on [0, 1] and scaled must match a direct tabulation."""

    DOMAIN = (-1.3, 1.7)

    @pytest.mark.parametrize("degree", [3, 12, 30])
    def test_scaled_tables_match_direct_calls(self, degree):
        rule = make_rule(degree, self.DOMAIN)
        grid = np.linspace(*self.DOMAIN, 101)
        ws = _Workspace(_bare_spec(self.DOMAIN), degree)
        direct = [shen_table(degree, rule.points, order, self.DOMAIN) for order in (0, 1, 2)]
        ends = shen_table(degree, np.array(self.DOMAIN), 1, self.DOMAIN)
        direct += [ends[:, 0], ends[:, 1], shen_table(degree, grid, 0, self.DOMAIN)]
        for got, expected in zip([*ws.tables, ws.d1["a"], ws.d1["b"], ws.grid_table], direct):
            assert_close_to(got, expected)

    def test_domains_of_one_degree_share_one_read_only_entry(self):
        _reference_tables.cache_clear()
        for domain in ((0.0, 1.0), self.DOMAIN, (2.0, 2.5)):
            _Workspace(_bare_spec(domain), 12)
        info = _reference_tables.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        tables, ends, grid_table, to_bern = _reference_tables(12)
        for array in (*tables, *ends, grid_table, to_bern):
            assert not array.flags.writeable


class TestAbsentCoefficients:
    """An explicit zero coefficient assembles exactly what None does."""

    @staticmethod
    def _zeros_for_none(spec):
        zero = gb.parse("0")
        p_coeffs, q_coeffs = (
            tuple(zero if c is None else c for c in coeffs)
            for coeffs in (spec.p_coeffs, spec.q_coeffs)
        )
        return replace(
            spec, p_coeffs=p_coeffs, q_coeffs=q_coeffs, f=spec.f or zero, g=spec.g or zero
        )

    @pytest.mark.parametrize("spec", [
        preset("example1"),
        preset("example2"),
        _bare_spec((-1.3, 1.7)),
        _bare_spec((0.0, 2.0), p_coeffs=(None, None, gb.parse("x"), None, None, None)),
    ], ids=["example1", "example2", "no-terms", "one-term"])
    def test_zero_coefficients_assemble_what_none_does(self, spec):
        zeros = self._zeros_for_none(spec)
        assert all(c is not None for c in zeros.p_coeffs + zeros.q_coeffs)
        with_none = assemble_linear(spec, 9)
        with_zero = assemble_linear(zeros, 9)
        assert np.array_equal(with_none.matrix, with_zero.matrix)
        assert np.array_equal(with_none.rhs, with_zero.rhs)


class TestResidualNorm:
    def test_zero_problem_zero_solution(self):
        spec = ProblemSpec(
            domain=(0.0, 1.0),
            bc_p=BoundaryData(0.0, 0.0, "a", 0.0),
            bc_q=BoundaryData(0.0, 0.0, "a", 0.0),
        )
        basis = BernsteinBasis(3, (0.0, 1.0))
        sol = _manual_solution(basis, [0.0, 0.0], [0.0, 0.0], spec.bc_p, spec.bc_q)
        assert residual_norm(spec, sol) == 0.0

    def test_in_space_solution_is_a_fixed_point(self):
        spec = preset("example1")
        sol = picard_solve(spec, 4)
        assert residual_norm(spec, sol) <= 1e-8

    def test_converged_coarse_solution_is_a_fixed_point(self):
        spec = preset("example2")
        sol = picard_solve(spec, 3)
        assert residual_norm(spec, sol) <= 1e-8

    def test_perturbed_solution_scores_badly(self):
        spec = preset("example1")
        sol = picard_solve(spec, 3)
        worse = Solution(
            basis=sol.basis, offset_p=sol.offset_p, offset_q=sol.offset_q,
            coeffs_p=sol.coeffs_p + 0.1, coeffs_q=sol.coeffs_q,
            iterations_used=0, converged=False,
        )
        assert residual_norm(spec, worse) > 1e-3


class TestOffsetInvariance:
    def test_example2_quadratic_offset(self):
        # replacing both linear offsets by x^2 (same endpoint values) moves
        # the coefficients but not the converged trial functions
        spec = preset("example2")
        sol_linear = picard_solve(spec, 3)
        quadratic = (AffineOffset((0.0, 0.0, 1.0)), AffineOffset((0.0, 0.0, 1.0)))
        sol_quad = picard_solve(spec, 3, offsets=quadratic)
        xs = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(sol_linear.evaluate(xs, "p") - sol_quad.evaluate(xs, "p"))) <= 1e-9
        assert np.max(np.abs(sol_linear.evaluate(xs, "q") - sol_quad.evaluate(xs, "q"))) <= 1e-9
        assert not np.allclose(sol_linear.coeffs_p, sol_quad.coeffs_p)

    @pytest.mark.parametrize("name", PRESETS)
    @pytest.mark.parametrize("degree", [3, 5, 12, 30])
    def test_discrete_offset_invariance(self, name, degree):
        # theta + alpha (t^2 - t), t = (x - a)/(b - a), spans the same trial
        # set: t^2 - t = -phi_0 / sqrt(6) = sum_i d_i phi_i, so
        # c_lin = c_quad + alpha d and rhs_lin - rhs_quad = K [alpha d; beta d]
        spec = preset(name)
        a, b = spec.domain
        h = b - a
        alpha, beta = 0.7, -1.3

        def bumped(theta, s):
            c0, c1 = theta.coefficients
            return AffineOffset(
                (c0 + s * (a / h + (a / h) ** 2), c1 - s * (1 / h + 2 * a / h**2), s / h**2)
            )

        linear = (build_offset(spec.bc_p, spec.domain), build_offset(spec.bc_q, spec.domain))
        quadratic = (bumped(linear[0], alpha), bumped(linear[1], beta))
        lin = assemble_linear(spec, degree, linear)
        quad = assemble_linear(spec, degree, quadratic)
        assert np.array_equal(lin.matrix, quad.matrix)
        d = np.zeros(degree - 1)
        d[0] = -1 / np.sqrt(6)
        K = lin.matrix
        shift = K @ np.concatenate([alpha * d, beta * d])
        bound = 1e-13 * np.max(np.abs(K)) * np.max(np.abs(d)) * max(abs(alpha), abs(beta))
        assert np.max(np.abs(lin.rhs - quad.rhs - shift)) <= bound


class TestSpecValidation:
    def test_coefficient_must_use_only_x(self):
        with pytest.raises(SpecValidationError):
            ProblemSpec(
                domain=(0.0, 1.0),
                p_coeffs=(gb.parse("p"), None, None, None, None, None),
                bc_p=BoundaryData(0.0, 0.0, "a", 0.0),
                bc_q=BoundaryData(0.0, 0.0, "a", 0.0),
            )

    def test_domain_must_be_increasing(self):
        with pytest.raises(SpecValidationError):
            ProblemSpec(
                domain=(1.0, 0.0),
                bc_p=BoundaryData(0.0, 0.0, "a", 0.0),
                bc_q=BoundaryData(0.0, 0.0, "a", 0.0),
            )

    @pytest.mark.parametrize("domain", [(0, 10**400), ("0", "1"), (0, 1, 2), 1.0],
                             ids=["beyond float range", "strings", "three ends", "a number"])
    def test_domain_must_be_two_finite_reals(self, domain):
        bc = BoundaryData(0.0, 0.0, "a", 0.0)
        with pytest.raises(SpecValidationError, match="domain must be two finite reals"):
            ProblemSpec(domain=domain, bc_p=bc, bc_q=bc)

    @pytest.mark.parametrize("domain", [(0.0, 1e-160), (1e-300, 1e-299), (-1e-155, 1e-155)])
    def test_domain_too_short_to_scale(self, domain):
        # a solve scales its tables by (b - a)^-2, which must not overflow
        bc = BoundaryData(0.0, 0.0, "a", 0.0)
        message = f"domain {domain!r} is too short: (b - a)^-2 overflows"
        with pytest.raises(SpecValidationError, match=re.escape(message)):
            ProblemSpec(domain=domain, bc_p=bc, bc_q=bc)

    def test_shortest_scalable_domain_fails_typed_without_a_warning(self):
        # (b - a)^-2 = 1e308 is finite, but the scaled second-derivative
        # tables overflow, and the solve refuses the non-finite matrix
        bc = BoundaryData(0.0, 0.0, "a", 0.0)
        spec = ProblemSpec(domain=(0.0, 1e-154), f=gb.parse("1"), bc_p=bc, bc_q=bc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AssemblyError, match="non-finite matrix entry"):
                picard_solve(spec, 5)

    @pytest.mark.parametrize("field, value, what", [
        ("f", "x", "forcing f"),
        ("p_coeffs", (1,) * 6, "coefficient a1"),
        ("m2", gb.expr.BinOp("*", gb.parse("p"), 2.0), "nonlinear term of equation q"),
    ])
    def test_fields_must_be_expressions(self, field, value, what):
        bc = BoundaryData(0.0, 0.0, "a", 0.0)
        with pytest.raises(SpecValidationError, match=f"{what} must be an expression"):
            ProblemSpec(domain=(0.0, 1.0), bc_p=bc, bc_q=bc, **{field: value})

    def test_boundary_data_must_be_boundary_data(self):
        bc = BoundaryData(0.0, 0.0, "a", 0.0)
        with pytest.raises(SpecValidationError, match="BoundaryData required"):
            ProblemSpec(domain=(0.0, 1.0), bc_p=(0, 0, "a", 0), bc_q=bc)

    def test_five_coefficients_refused(self):
        bc = BoundaryData(0.0, 0.0, "a", 0.0)
        with pytest.raises(SpecValidationError, match="a1..a6 must have length 6"):
            ProblemSpec(domain=(0.0, 1.0), p_coeffs=(None,) * 5, bc_p=bc, bc_q=bc)

    def test_overflowing_load_is_an_assembly_error(self):
        bc = BoundaryData(0.0, 0.0, "a", 0.0)
        spec = ProblemSpec(domain=(0.0, 1.0), f=gb.parse("1e200 * 1e200 * x"), bc_p=bc, bc_q=bc)
        with pytest.raises(AssemblyError, match="non-finite load entry at row 0"):
            assemble_linear(spec, 5)

    def test_bad_deriv_end(self):
        with pytest.raises(SpecValidationError):
            BoundaryData(0.0, 0.0, "left", 0.0)

    @pytest.mark.parametrize("args,name", [
        ((np.nan, 0.0, "a", 0.0), "value_a"),
        ((0.0, np.inf, "a", 0.0), "value_b"),
        ((0.0, 0.0, "b", -np.inf), "deriv_value"),
    ])
    def test_non_finite_boundary_data(self, args, name):
        with pytest.raises(SpecValidationError, match=name):
            BoundaryData(*args)

    def test_boundary_numbers_stored_as_floats(self):
        bc = BoundaryData(np.float64(0.5), np.int64(2), "b", np.float32(0.25))
        assert (bc.value_a, bc.value_b, bc.deriv_value) == (0.5, 2.0, 0.25)
        assert all(type(v) is float for v in (bc.value_a, bc.value_b, bc.deriv_value))

    @pytest.mark.parametrize("value", [
        "1.0", None, 1 + 0j, pytest.param(10**400, id="beyond float range"),
    ])
    def test_non_real_boundary_data(self, value):
        with pytest.raises(SpecValidationError, match="value_a must be a finite real number"):
            BoundaryData(value, 0.0, "a", 0.0)

    def test_basis_domain_mismatch(self):
        # a solution on another interval cannot be scored against the problem
        spec = preset("example1")
        other = BernsteinBasis(3, (0.0, 2.0))
        sol = _manual_solution(other, [0.5, -0.25], [1.0, 2.0], spec.bc_p, spec.bc_q)
        message = r"solution interval \(0\.0, 2\.0\) differs from the problem domain"
        with pytest.raises(SpecValidationError, match=message):
            residual_norm(spec, sol)
        with pytest.raises(SpecValidationError, match=message):
            assemble_nonlinear_rhs(spec, sol)


class TestAffineOffsetCoefficients:
    @pytest.mark.parametrize("coefficients", [
        1.0, (), [], ("1", "2"), "12", (1.0, "2"), (1 + 2j,), ((1.0, 2.0),), None, np.float64(3.0),
        (10**400, 1.0),
    ])
    def test_non_real_or_empty_refused(self, coefficients):
        with pytest.raises(SpecValidationError, match="offset needs real coefficients"):
            AffineOffset(coefficients)

    @pytest.mark.parametrize("coefficients", [
        [1, 2], np.array([1.0, 2.0]), (np.float64(1.0), np.int64(2)), (c for c in (1.0, 2.0)),
    ])
    def test_reals_stored_as_a_tuple_of_floats(self, coefficients):
        theta = AffineOffset(coefficients)
        assert theta.coefficients == (1.0, 2.0)
        assert all(type(c) is float for c in theta.coefficients)


class TestSolutionSystem:
    """A solve's solution carries the system it was solved on, and the
    residual check scores it there instead of assembling again."""

    @pytest.mark.parametrize("name", PRESETS)
    @pytest.mark.parametrize("degree", [3, 12, 30])
    def test_linked_residual_equals_a_fresh_assembly(self, name, degree):
        spec = preset(name)
        sol = picard_solve(spec, degree)
        unlinked = replace(sol)
        assert sol._system is not None and unlinked._system is None
        assert unlinked == sol
        assert residual_norm(spec, sol) == residual_norm(spec, unlinked)
        linked_load = assemble_nonlinear_rhs(spec, sol)
        assert linked_load.tobytes() == assemble_nonlinear_rhs(spec, unlinked).tobytes()

    @staticmethod
    def _count_workspaces(monkeypatch):
        built = []
        original = _Workspace.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(_Workspace, "__init__", counting)
        return built

    def test_residual_norm_assembles_afresh_at_the_solution_offsets(self, monkeypatch):
        spec = preset("example2")
        sol = picard_solve(spec, 9)
        built = self._count_workspaces(monkeypatch)
        expected = sol.residual
        assert built == []
        # an equal spec loaded again: one fresh workspace, the same score
        again = preset("example2")
        assert again == spec and again is not spec
        assert residual_norm(again, sol) == expected
        assert len(built) == 1
        # replaced offsets drop the link, and the new offsets are what is scored
        quadratic = AffineOffset((0.0, 0.0, 1.0))
        moved = replace(sol, offset_p=quadratic)
        assert moved._system is None and moved.residual is None
        score = residual_norm(spec, moved)
        assert len(built) == 2 and built[-1][2] == (quadratic, sol.offset_q)
        assert score != expected

    def test_residual_builds_no_workspace_and_no_assembly(self, monkeypatch):
        sol = picard_solve(preset("example4"), 12)
        built = self._count_workspaces(monkeypatch)
        assembled = self._count_assemblies(monkeypatch)
        assert isinstance(sol.residual, float) and sol.residual <= 1e-8
        assert built == [] and assembled == []

    @pytest.mark.parametrize("name", PRESETS)
    @pytest.mark.parametrize("degree", [3, 12, 30])
    def test_residual_is_residual_norm_on_the_solved_system(self, name, degree):
        spec = preset(name)
        sol = picard_solve(spec, degree)
        assert sol.residual == residual_norm(spec, replace(sol))

    def test_hand_built_solution_has_no_residual(self):
        spec = preset("example1")
        sol = _manual_solution(BernsteinBasis(4, spec.domain), [0.1, 0.2, 0.3],
                               [0.0, -0.1, 0.2], spec.bc_p, spec.bc_q)
        assert sol.residual is None and residual_norm(spec, sol) > 0.0

    def test_hand_built_solution_builds_one_workspace_per_call(self, monkeypatch):
        spec = preset("example1")
        basis = BernsteinBasis(4, spec.domain)
        sol = _manual_solution(basis, [0.1, 0.2, 0.3], [0.0, -0.1, 0.2], spec.bc_p, spec.bc_q)
        built = self._count_workspaces(monkeypatch)
        residual_norm(spec, sol)
        assert len(built) == 1
        assemble_nonlinear_rhs(spec, sol)
        assert len(built) == 2

    @staticmethod
    def _count_assemblies(monkeypatch):
        assembled = []
        original = gb.assembly.assemble_linear

        def counting(*args, **kwargs):
            assembled.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(gb.assembly, "assemble_linear", counting)
        return assembled

    def test_unlinked_nonlinear_load_assembles_no_system(self, monkeypatch):
        # the load needs the workspace's tables only, not K and rhs
        spec = preset("example1")
        sol = _manual_solution(BernsteinBasis(4, spec.domain), [0.1, 0.2, 0.3],
                               [0.0, -0.1, 0.2], spec.bc_p, spec.bc_q)
        assembled = self._count_assemblies(monkeypatch)
        assemble_nonlinear_rhs(spec, sol)
        assert assembled == []
        residual_norm(spec, sol)
        assert len(assembled) == 1

    def test_unlinked_load_ignores_a_blown_up_coefficient(self):
        # a1 overflows to inf: K cannot be assembled, but the load needs no K
        spec = preset("example1")
        spec = replace(spec, p_coeffs=(gb.parse("1e200 * 1e200"),) + spec.p_coeffs[1:])
        sol = _manual_solution(BernsteinBasis(4, spec.domain), [0.1, 0.2, 0.3],
                               [0.0, -0.1, 0.2], spec.bc_p, spec.bc_q)
        load = assemble_nonlinear_rhs(spec, sol)
        assert load.shape == (6,) and np.all(np.isfinite(load)) and np.any(load)
        with pytest.raises(AssemblyError, match="non-finite matrix entry"):
            residual_norm(spec, sol)

    def test_solution_lives_in_assembly(self):
        assert gb.solver.Solution is gb.assembly.Solution is gb.Solution

    def test_link_is_no_constructor_argument_and_stays_out_of_repr_and_eq(self):
        spec = preset("example1")
        system = assemble_linear(spec, 5)
        assert system._workspace.spec is spec
        with pytest.raises(TypeError):
            gb.AssembledSystem(system.matrix, system.rhs, system.size, _workspace=None)
        twin = gb.AssembledSystem(system.matrix, system.rhs, system.size)
        assert twin == system and repr(twin) == repr(system)
        sol = picard_solve(spec, 5)
        with pytest.raises(TypeError):
            Solution(sol.basis, sol.offset_p, sol.offset_q, sol.coeffs_p, sol.coeffs_q,
                     sol.iterations_used, sol.converged, sol.grid_values, sol._system)
        assert "_system" not in repr(sol) and "_workspace" not in repr(system)

    @pytest.mark.parametrize("domain", [(0.0, 1.0), (-1.3, 1.7)])
    def test_test_tables_are_views_of_the_p_trial_tables(self, domain):
        ws = _Workspace(_bare_spec(domain), 12)
        for table, trial in zip(ws.tables, ws.trial["p"]):
            assert table.base is trial
            assert table.shape == (ws.m, len(ws.xs))

import numpy as np
import pytest
import sympy as sp

import galbern as gb
from galbern import BoundaryData, ProblemSpec, SixthOrderSpec, SpecValidationError, reduce
from galbern.cli import sixth_order_preset
from galbern.expr import Neg, Num


def _bc(va, vb, end, dv):
    return BoundaryData(va, vb, end, dv)


class TestReduceMapping:
    def test_linear_sixth_order_preset(self):
        spec6 = sixth_order_preset("example3")
        spec = reduce(spec6)
        # p-equation: p''' - q = 0
        assert spec.p_coeffs[:5] == (None,) * 5
        assert spec.p_coeffs[5] == Neg(Num(1.0))
        assert spec.f is None and spec.m1 is None
        # q-equation: q''' - p = -6 e^x
        assert spec.q_coeffs[:5] == (None,) * 5
        assert spec.q_coeffs[5] == spec6.coeffs[0]
        assert spec.g == spec6.forcing
        assert spec.m2 is None
        assert spec.bc_p == spec6.bc_p and spec.bc_q == spec6.bc_q

    def test_nonlinear_sixth_order_preset(self):
        spec6 = sixth_order_preset("example4")
        spec = reduce(spec6)
        assert spec.q_coeffs == (None,) * 6
        assert spec.g is None
        assert spec.m2 == gb.parse("-exp(-x) * p^2")
        assert spec.exact_p == spec6.exact_p

    def test_coefficient_reversal(self):
        coeffs = tuple(gb.parse(s) for s in ("1", "x", "2", "x^2", "3", "x^3"))
        spec6 = SixthOrderSpec(
            domain=(0.0, 1.0),
            coeffs=coeffs,  # c0..c5 on p, p', ..., p^(5)
            forcing=gb.parse("x"),
            bc_p=_bc(0.0, 0.0, "a", 0.0),
            bc_q=_bc(0.0, 0.0, "a", 0.0),
        )
        spec = reduce(spec6)
        # b1..b6 multiply q'', q', q, p'', p', p  <-  c5, c4, c3, c2, c1, c0
        assert spec.q_coeffs == coeffs[::-1]

    def test_all_zero_input_decouples(self):
        spec6 = SixthOrderSpec(
            domain=(0.0, 1.0),
            bc_p=_bc(0.0, 0.0, "a", 0.0),
            bc_q=_bc(0.0, 0.0, "a", 0.0),
        )
        spec = reduce(spec6)
        assert spec.q_coeffs == (None,) * 6
        assert spec.g is None and spec.m2 is None

    def test_reduced_spec_is_structurally_valid(self):
        # ProblemSpec validation runs in its constructor; surviving it means
        # unit own third derivative and x-only coefficients hold
        spec = reduce(sixth_order_preset("example4"))
        assert isinstance(spec, ProblemSpec)


class TestValidation:
    def test_nonlinear_term_may_not_touch_q(self):
        with pytest.raises(SpecValidationError):
            SixthOrderSpec(
                domain=(0.0, 1.0),
                nonlinear=gb.parse("p * dq"),
                bc_p=_bc(0.0, 0.0, "a", 0.0),
                bc_q=_bc(0.0, 0.0, "a", 0.0),
            )

    def test_nonlinear_term_may_not_use_third_derivatives(self):
        # d2q would stand for p^(5); no reduced-variable counterpart exists
        with pytest.raises(SpecValidationError):
            SixthOrderSpec(
                domain=(0.0, 1.0),
                nonlinear=gb.parse("d2q^2"),
                bc_p=_bc(0.0, 0.0, "a", 0.0),
                bc_q=_bc(0.0, 0.0, "a", 0.0),
            )

    def test_coefficients_use_only_x(self):
        with pytest.raises(SpecValidationError):
            SixthOrderSpec(
                domain=(0.0, 1.0),
                coeffs=(gb.parse("p"), None, None, None, None, None),
                bc_p=_bc(0.0, 0.0, "a", 0.0),
                bc_q=_bc(0.0, 0.0, "a", 0.0),
            )

    def test_five_coefficients_refused(self):
        with pytest.raises(SpecValidationError, match="c0..c5 must have length 6"):
            SixthOrderSpec(
                domain=(0.0, 1.0),
                coeffs=(None,) * 5,
                bc_p=_bc(0.0, 0.0, "a", 0.0),
                bc_q=_bc(0.0, 0.0, "a", 0.0),
            )

    def test_boundary_data_required(self):
        with pytest.raises(SpecValidationError):
            SixthOrderSpec(domain=(0.0, 1.0), bc_p=_bc(0.0, 0.0, "a", 0.0))


def _spec_residual(spec, which, x, u_derivs, v_derivs):
    """Residual of one reduced equation given values/derivatives of (p, q)."""
    own, cross = (u_derivs, v_derivs) if which == "p" else (v_derivs, u_derivs)
    coeffs = spec.p_coeffs if which == "p" else spec.q_coeffs
    forcing = spec.f if which == "p" else spec.g
    nonlinear = spec.m1 if which == "p" else spec.m2
    state = gb.PointState(
        x=x, p=u_derivs[0], dp=u_derivs[1], d2p=u_derivs[2],
        q=v_derivs[0], dq=v_derivs[1], d2q=v_derivs[2],
    )
    total = own[3]
    for c, val in zip(coeffs, (own[2], own[1], own[0], cross[2], cross[1], cross[0])):
        if c is not None:
            total += gb.evaluate(c, state) * val
    if nonlinear is not None:
        total += gb.evaluate(nonlinear, state)
    if forcing is not None:
        total -= gb.evaluate(forcing, state)
    return total


class TestDifferentialRoundTrip:
    def test_reduced_residuals_match_the_sixth_order_residual(self):
        # substitute a smooth u (with v = u''') into both formulations
        spec6 = SixthOrderSpec(
            domain=(0.0, 1.0),
            coeffs=tuple(gb.parse(s) for s in ("-1", "x", "0", "2", "x^2", "1")),
            forcing=gb.parse("x^2 - 3"),
            nonlinear=gb.parse("exp(-x) * p^2 + dp * d2p"),
            bc_p=_bc(0.0, 0.0, "a", 0.0),
            bc_q=_bc(0.0, 0.0, "a", 0.0),
        )
        spec = reduce(spec6)

        xs = sp.Symbol("x")
        u_sym = sp.sin(2 * xs) * sp.exp(xs / 3) + xs**3
        u_lams = [sp.lambdify(xs, sp.diff(u_sym, xs, k)) for k in range(7)]

        rng = np.random.default_rng(3)
        for xv in rng.uniform(0.0, 1.0, size=50):
            u = [u_lams[k](xv) for k in range(4)]
            v = [u_lams[k + 3](xv) for k in range(4)]  # v = u'''
            # original residual: u^(6) + sum c_k u^(k) + M - r
            state = gb.PointState(x=xv, p=u[0], dp=u[1], d2p=u[2])
            original = u_lams[6](xv)
            for k, c in enumerate(spec6.coeffs):
                if c is not None:
                    original += gb.evaluate(c, state) * u_lams[k](xv)
            original += gb.evaluate(spec6.nonlinear, state)
            original -= gb.evaluate(spec6.forcing, state)

            assert _spec_residual(spec, "p", xv, u, v) == pytest.approx(0.0, abs=1e-10)
            assert _spec_residual(spec, "q", xv, u, v) == pytest.approx(
                original, rel=1e-10, abs=1e-10
            )


class TestReducedSolve:
    def test_linear_preset_solves_accurately(self):
        spec = reduce(sixth_order_preset("example3"))
        sol = gb.picard_solve(spec, 5)
        xs = np.linspace(0.0, 1.0, 101)
        exact = (1 - xs) * np.exp(xs)
        assert np.max(np.abs(exact - sol.evaluate(xs, "p"))) <= 4e-5

    def test_nonlinear_preset_solves_accurately(self):
        spec = reduce(sixth_order_preset("example4"))
        sol = gb.picard_solve(spec, 5)
        assert sol.converged
        xs = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(np.exp(xs) - sol.evaluate(xs, "p"))) <= 1e-4

    def test_auxiliary_function_tracks_third_derivative(self):
        # q approximates p''' of the underlying sixth-order solution
        spec = reduce(sixth_order_preset("example3"))
        sol = gb.picard_solve(spec, 7)
        xs = np.linspace(0.0, 1.0, 51)
        exact_q = -(2 + xs) * np.exp(xs)
        assert np.max(np.abs(exact_q - sol.evaluate(xs, "q"))) <= 1e-6

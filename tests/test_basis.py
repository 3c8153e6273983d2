import numpy as np
import pytest
import sympy as sp

from galbern import BernsteinBasis, DomainError

UNIT = BernsteinBasis(3, (0.0, 1.0))


def sympy_member(n, i, a, b):
    """Independent closed-form member for cross-checking values/derivatives."""
    x = sp.Symbol("x")
    return x, sp.binomial(n, i) * (x - a) ** i * (b - x) ** (n - i) / (b - a) ** n


class TestEval:
    def test_degree3_midpoint(self):
        assert UNIT.eval(2, 0.5) == pytest.approx(0.375, abs=1e-15)

    def test_degree4_left_end(self):
        assert BernsteinBasis(4, (0.0, 1.0)).eval(0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_degree5_interior(self):
        # 10 * 0.3^3 * 0.7^2
        assert BernsteinBasis(5, (0.0, 1.0)).eval(3, 0.3) == pytest.approx(0.1323, rel=1e-14)

    def test_out_of_range_index_is_zero(self):
        assert UNIT.eval(-1, 0.5) == 0.0
        assert UNIT.eval(4, 0.5) == 0.0

    def test_non_integer_index_rejected(self):
        with pytest.raises(ValueError, match="member index"):
            UNIT.eval(1.5, 0.5)
        with pytest.raises(ValueError, match="member index"):
            UNIT.eval_deriv("1", 0.5, 1)

    def test_array_argument(self):
        xs = np.linspace(0, 1, 7)
        vals = UNIT.eval(1, xs)
        assert vals.shape == xs.shape
        assert vals == pytest.approx(3 * xs * (1 - xs) ** 2)

    def test_outside_domain_raises(self):
        with pytest.raises(DomainError):
            UNIT.eval(1, 1.0 + 1e-6)
        with pytest.raises(DomainError):
            UNIT.eval(1, -0.001)

    def test_nan_raises(self):
        with pytest.raises(DomainError):
            UNIT.eval(2, np.nan)
        with pytest.raises(DomainError):
            UNIT.eval_deriv(2, np.array([0.5, np.nan]), 1)
        with pytest.raises(DomainError):
            UNIT.interior_table([0.5, np.nan])

    def test_roundoff_overshoot_clamped(self):
        assert UNIT.eval(1, 1.0 + 1e-13) == UNIT.eval(1, 1.0)
        assert UNIT.eval(1, -1e-13) == UNIT.eval(1, 0.0)

    @pytest.mark.parametrize("n,i", [(3, 1), (4, 2), (6, 5), (9, 4), (20, 7), (30, 15)])
    def test_matches_symbolic_form(self, n, i):
        a, b = -1.5, 2.25
        basis = BernsteinBasis(n, (a, b))
        x, phi = sympy_member(n, i, a, b)
        for xv in np.linspace(a, b, 11):
            expected = float(phi.subs(x, sp.Float(xv, 30)))
            assert basis.eval(i, xv) == pytest.approx(expected, rel=1e-12, abs=1e-14)


class TestDerivatives:
    def test_first_derivative_left_end(self):
        # member 1 of degree 3 rises with slope n at the left end
        assert UNIT.eval_deriv(1, 0.0, 1) == pytest.approx(3.0, abs=1e-13)

    def test_first_derivative_right_end(self):
        assert UNIT.eval_deriv(1, 1.0, 1) == pytest.approx(0.0, abs=1e-13)

    def test_second_derivative_midpoint(self):
        # oracle: d2/dx2 [6 x^2 (1-x)^2] = 6 (2 - 12 x + 12 x^2) -> -6 at 1/2
        x = sp.Symbol("x")
        expected = float(sp.diff(6 * x**2 * (1 - x) ** 2, x, 2).subs(x, sp.Rational(1, 2)))
        assert expected == -6.0
        assert BernsteinBasis(4, (0.0, 1.0)).eval_deriv(2, 0.5, 2) == pytest.approx(
            expected, abs=1e-12
        )

    def test_bad_order_rejected(self):
        for order in (0, 4, -1):
            with pytest.raises(ValueError):
                UNIT.eval_deriv(1, 0.5, order)
        for order in (4, -1, 2.5, (0, 4)):
            with pytest.raises(ValueError, match="derivative order"):
                UNIT.interior_table([0.5], order)

    @pytest.mark.parametrize(
        "n,i,order",
        [(3, 2, 1), (5, 3, 2), (7, 4, 3), (4, 1, 3), (20, 7, 2), (30, 1, 1), (30, 15, 3)],
    )
    def test_matches_symbolic_derivative(self, n, i, order):
        a, b = 0.5, 3.0
        basis = BernsteinBasis(n, (a, b))
        x, phi = sympy_member(n, i, a, b)
        dphi = sp.diff(phi, x, order)
        for xv in np.linspace(a, b, 9):
            expected = float(dphi.subs(x, sp.Float(xv, 30)))
            assert basis.eval_deriv(i, xv, order) == pytest.approx(
                expected, rel=1e-11, abs=1e-11
            )

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_finite_difference_consistency(self, n):
        basis = BernsteinBasis(n, (0.0, 1.0))
        rng = np.random.default_rng(42)
        xs = rng.uniform(0.01, 0.99, size=100)
        h = 1e-6
        for i in basis.interior_indices():
            d1 = basis.eval_deriv(i, xs, 1)
            fd1 = (basis.eval(i, xs + h) - basis.eval(i, xs - h)) / (2 * h)
            scale = np.max(np.abs(d1))
            assert np.allclose(fd1, d1, rtol=1e-6, atol=1e-6 * scale)
            d2 = basis.eval_deriv(i, xs, 2)
            fd2 = (basis.eval_deriv(i, xs + h, 1) - basis.eval_deriv(i, xs - h, 1)) / (2 * h)
            assert np.allclose(fd2, d2, rtol=1e-6, atol=1e-6 * np.max(np.abs(d2)))
            d3 = basis.eval_deriv(i, xs, 3)
            fd3 = (basis.eval_deriv(i, xs + h, 2) - basis.eval_deriv(i, xs - h, 2)) / (2 * h)
            assert np.allclose(fd3, d3, rtol=1e-6, atol=1e-6 * np.max(np.abs(d3)))


class TestInteriorTable:
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_rows_match_members(self, order):
        basis = BernsteinBasis(12, (-0.75, 2.5))
        xs = np.linspace(-0.75, 2.5, 17)
        table = basis.interior_table(xs, order)
        assert table.shape == (11, 17)
        for j in basis.interior_indices():
            member = basis.eval(j, xs) if order == 0 else basis.eval_deriv(j, xs, order)
            scale = np.max(np.abs(member))
            np.testing.assert_allclose(table[j - 1], member, rtol=1e-13, atol=1e-13 * scale)


def loop_reference_table(basis, x, k):
    """The degree recurrence as first written: one fresh padded array per
    degree step.  The in-place recurrence must reproduce it bit for bit."""
    n = basis.degree
    a, b = basis.interval
    x = np.clip(np.asarray(x, dtype=float), a, b)
    t = (x - a) / (b - a)
    s = (b - x) / (b - a)
    zero = np.zeros((1,) + x.shape)
    table = np.ones((1,) + x.shape)
    for _ in range(n - k):
        padded = np.concatenate([zero, table, zero])
        table = s * padded[1:] + t * padded[:-1]
    for m in range(n - k + 1, n + 1):
        padded = np.concatenate([zero, table, zero])
        table = m / (b - a) * (padded[:-1] - padded[1:])
    return table


def assert_bitwise_equal(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


class TestRecurrenceMatchesLoopReference:
    INTERVAL = (-0.75, 2.5)
    XS = np.concatenate([[-0.75, 2.5, 2.5 + 1e-13], np.linspace(-0.75, 2.5, 37)[1:-1]])

    @pytest.mark.parametrize("n", [3, 12, 30])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_interior_table(self, n, order):
        basis = BernsteinBasis(n, self.INTERVAL)
        expected = loop_reference_table(basis, self.XS, order)[1:-1]
        assert_bitwise_equal(basis.interior_table(self.XS, order), expected)

    @pytest.mark.parametrize("n", [3, 12, 30])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_members_at_scalar_and_array_x(self, n, order):
        basis = BernsteinBasis(n, self.INTERVAL)
        member = basis.eval if order == 0 else lambda i, x: basis.eval_deriv(i, x, order)
        for i in (0, 1, n // 2, n):
            assert_bitwise_equal(member(i, self.XS), loop_reference_table(basis, self.XS, order)[i])
            for x in (-0.75, 0.1, 2.5):
                assert_bitwise_equal(member(i, x), loop_reference_table(basis, x, order)[i])

    @pytest.mark.parametrize("n", [3, 12, 30])
    def test_stacked_orders_equal_single_orders(self, n):
        basis = BernsteinBasis(n, self.INTERVAL)
        orders = (0, 1, 2, 3)
        stacked = basis.interior_table(self.XS, orders)
        assert stacked.shape == (4, n - 1, len(self.XS))
        for k, table in zip(orders, stacked):
            assert_bitwise_equal(table, basis.interior_table(self.XS, k))
        assert_bitwise_equal(basis.interior_table(self.XS, (2, 0))[0], stacked[2])


class TestInteriorIndices:
    def test_degree3(self):
        assert UNIT.interior_indices() == [1, 2]

    def test_degree5(self):
        assert BernsteinBasis(5, (0.0, 1.0)).interior_indices() == [1, 2, 3, 4]

    @pytest.mark.parametrize("n", range(3, 11))
    def test_length(self, n):
        assert len(BernsteinBasis(n, (0.0, 1.0)).interior_indices()) == n - 1


class TestFamilyProperties:
    @pytest.mark.parametrize("n,interval", [(3, (0.0, 1.0)), (5, (-2.0, 3.0)), (10, (0.0, 1.0))])
    def test_partition_of_unity(self, n, interval):
        basis = BernsteinBasis(n, interval)
        xs = np.linspace(*interval, 1000)
        total = sum(basis.eval(i, xs) for i in range(n + 1))
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 7, 12])
    def test_interior_members_vanish_at_endpoints(self, n):
        basis = BernsteinBasis(n, (-1.0, 2.0))
        for i in basis.interior_indices():
            assert abs(basis.eval(i, -1.0)) <= 1e-15
            assert abs(basis.eval(i, 2.0)) <= 1e-15

    def test_non_negativity(self):
        basis = BernsteinBasis(6, (0.0, 2.0))
        xs = np.linspace(0, 2, 501)
        for i in range(7):
            assert np.all(basis.eval(i, xs) >= 0.0)

    @pytest.mark.parametrize("n,i", [(3, 1), (5, 4), (8, 3)])
    def test_interval_invariance(self, n, i):
        a, b = -0.75, 4.0
        shifted = BernsteinBasis(n, (a, b))
        unit = BernsteinBasis(n, (0.0, 1.0))
        for xv in np.linspace(a, b, 13):
            t = (xv - a) / (b - a)
            assert shifted.eval(i, xv) == pytest.approx(unit.eval(i, t), rel=1e-12, abs=1e-14)


class TestValidation:
    def test_degree_too_small(self):
        with pytest.raises(ValueError):
            BernsteinBasis(2, (0.0, 1.0))

    def test_degree_above_cap(self):
        with pytest.raises(ValueError):
            BernsteinBasis(31, (0.0, 1.0))

    def test_numpy_integer_degree_is_stored_as_int(self):
        basis = BernsteinBasis(np.int64(5), (0.0, 1.0))
        assert type(basis.degree) is int and basis == BernsteinBasis(5, (0.0, 1.0))
        with pytest.raises(ValueError, match="degree must be an integer >= 3, got 5.0"):
            BernsteinBasis(5.0, (0.0, 1.0))

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            BernsteinBasis(3, (1.0, 1.0))
        with pytest.raises(ValueError):
            BernsteinBasis(3, (2.0, -1.0))
        with pytest.raises(ValueError, match="interval must satisfy finite a < b"):
            BernsteinBasis(5, (0, 10**400))
        with pytest.raises(ValueError, match="interval must satisfy finite a < b"):
            BernsteinBasis(5, (0, 1, 2))
        with pytest.raises(ValueError, match="interval must satisfy finite a < b"):
            BernsteinBasis(5, 1.0)

import math

import numpy as np
import pytest

from galbern import QuadratureOrderError, gauss_legendre, integrate
from galbern.quadrature import default_order


class TestRuleConstruction:
    def test_one_point_is_midpoint(self):
        rule = gauss_legendre(1, 0.0, 1.0)
        assert rule.points == pytest.approx([0.5])
        assert rule.weights == pytest.approx([1.0])

    def test_two_point_closed_form(self):
        rule = gauss_legendre(2, 0.0, 1.0)
        lo = (3 - math.sqrt(3)) / 6
        hi = (3 + math.sqrt(3)) / 6
        assert rule.points == pytest.approx([lo, hi], abs=1e-15)
        assert rule.weights == pytest.approx([0.5, 0.5], abs=1e-15)

    @pytest.mark.parametrize("G", [1, 2, 3, 5, 8, 13, 24, 37, 64])
    def test_matches_numpy_leggauss(self, G):
        rule = gauss_legendre(G, -1.0, 1.0)
        t, w = np.polynomial.legendre.leggauss(G)
        assert rule.points == pytest.approx(t, abs=2e-14)
        assert rule.weights == pytest.approx(w, abs=2e-14)

    @pytest.mark.parametrize("G,a,b", [(4, 0.0, 1.0), (9, -3.0, 2.5), (30, 1.0, 1.5)])
    def test_structure(self, G, a, b):
        rule = gauss_legendre(G, a, b)
        assert rule.order == G
        assert np.all(np.diff(rule.points) > 0)
        assert rule.points[0] > a and rule.points[-1] < b
        assert np.all(rule.weights > 0)
        assert np.sum(rule.weights) == pytest.approx(b - a, abs=1e-13)

    def test_rules_are_immutable(self):
        rule = gauss_legendre(4, 0.0, 1.0)
        with pytest.raises(ValueError):
            rule.points[0] = 0.0

    def test_order_bounds(self):
        for G in (0, True, 2.5, "3"):
            with pytest.raises(ValueError):
                gauss_legendre(G, 0.0, 1.0)
        with pytest.raises(QuadratureOrderError):
            gauss_legendre(65, 0.0, 1.0)
        rule = gauss_legendre(np.int64(3), 0.0, 1.0)
        assert type(rule.order) is int and rule.order == 3

    def test_bad_interval(self):
        for a, b in ((1.0, 0.0), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0, 10**400)):
            with pytest.raises(ValueError):
                gauss_legendre(3, a, b)


class TestIntegrate:
    def test_constant(self):
        for G in (1, 4, 16):
            assert integrate(lambda x: 1.0, gauss_legendre(G, 0.0, 1.0)) == pytest.approx(
                1.0, abs=1e-14
            )

    def test_monomial_at_exactness_edge(self):
        # 5 points integrate degree 9 exactly
        rule = gauss_legendre(5, 0.0, 1.0)
        assert integrate(lambda x: x**9, rule) == pytest.approx(0.1, abs=1e-14)

    def test_quintic_forcing_polynomial(self):
        # antiderivative x^6/6 - x^4/4 - 6x^3 + 6x^2 - 18x over [0, 1]: -217/12
        rule = gauss_legendre(8, 0.0, 1.0)
        value = integrate(lambda x: x**5 - x**3 - 18 * x**2 + 12 * x - 18, rule)
        assert value == pytest.approx(-217.0 / 12.0, rel=1e-14)

    def test_exponential(self):
        rule = gauss_legendre(16, 0.0, 1.0)
        assert integrate(math.exp, rule) == pytest.approx(math.e - 1.0, abs=1e-14)

    def test_callable_errors_propagate(self):
        rule = gauss_legendre(3, 0.0, 1.0)
        with pytest.raises(ZeroDivisionError):
            integrate(lambda x: 1.0 / (x - x), rule)

    @pytest.mark.parametrize("G", [2, 3, 6, 11])
    def test_polynomial_exactness_to_2G_minus_1(self, G):
        rng = np.random.default_rng(7)
        a, b = -1.25, 0.75
        rule = gauss_legendre(G, a, b)
        coeffs = rng.uniform(-2, 2, size=2 * G)  # degree 2G-1
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(b) - poly.integ()(a)
        got = integrate(poly, rule)
        assert got == pytest.approx(exact, rel=1e-12, abs=1e-13)

    def test_affine_map_consistency(self):
        a, b = 2.0, 5.0
        f = lambda x: math.sin(x) * math.exp(-0.3 * x)
        direct = integrate(f, gauss_legendre(20, a, b))
        pulled = integrate(
            lambda t: f(a + (b - a) * t) * (b - a), gauss_legendre(20, 0.0, 1.0)
        )
        assert direct == pytest.approx(pulled, rel=1e-13)


def test_default_order_covers_assembly_integrands():
    # lagged products reach degree 3n; need 2G - 1 >= 3n
    for n in range(3, 31):
        G = default_order(n)
        assert G == max(24, 2 * n)
        assert 2 * G - 1 >= 3 * n

"""Gauss-Legendre quadrature on [a, b].

Nodes and weights on [-1, 1] come from numpy.polynomial.legendre.leggauss,
computed once per order and mapped affinely to [a, b].  A G-point rule
integrates polynomials of degree <= 2G - 1 exactly, which is what the
Galerkin assembly relies on.
"""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from numbers import Real

import numpy as np

from .errors import QuadratureOrderError

MAX_ORDER = 64


def _finite_real(x):
    """True for a real number that a float holds finitely (not NaN, inf or 10**400)."""
    try:
        return isinstance(x, Real) and math.isfinite(x)
    except OverflowError:  # an integer beyond float range
        return False


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on some interval (a, b).

    points are strictly increasing and strictly inside the interval; weights
    are positive and sum to b - a.  Instances are immutable and safe to share.
    """

    points: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)


@lru_cache(maxsize=None)  # bounded by MAX_ORDER distinct orders
def _reference_rule(G):
    """Read-only G-point nodes and weights on [-1, 1]."""
    t, w = np.polynomial.legendre.leggauss(G)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def gauss_legendre(G, a, b):
    """G-point Gauss-Legendre rule mapped affinely to [a, b].

    Args:
        G: number of nodes, 1 <= G <= 64.
        a, b: interval endpoints, a < b.

    Raises:
        QuadratureOrderError: G above the supported cap.
        ValueError: G not an integer >= 1 (bool refused), or not finite a < b.
    """
    try:
        order = operator.index(G)
    except TypeError:
        order = None
    if order is None or isinstance(G, bool) or order < 1:
        raise ValueError(f"quadrature order must be an integer >= 1, got {G!r}")
    if order > MAX_ORDER:
        raise QuadratureOrderError(f"order {order} exceeds the supported cap {MAX_ORDER}")
    if not (_finite_real(a) and _finite_real(b) and float(b) > float(a)):
        raise ValueError(f"interval must satisfy finite a < b, got ({a}, {b})")

    t, w = _reference_rule(order)
    half = 0.5 * (b - a)
    return QuadratureRule(points=0.5 * (a + b) + half * t, weights=half * w, order=order)


def integrate(f, rule):
    """Apply the rule: sum of w_k f(x_k).

    f is called once per node with a float argument; exceptions it raises
    propagate unchanged.
    """
    return float(sum(w * f(float(x)) for x, w in zip(rule.points, rule.weights)))


def default_order(degree):
    """Assembly default: max(24, 2n) keeps 2G-1 >= 3n with margin, so every
    polynomial integrand that assembly produces is integrated exactly."""
    return max(24, 2 * degree)

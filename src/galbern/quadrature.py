"""Gauss-Legendre quadrature on [a, b].

Nodes and weights on [-1, 1] come from numpy.polynomial.legendre.leggauss,
computed once per order and mapped affinely to [a, b].  A G-point rule
integrates polynomials of degree <= 2G - 1 exactly, which is what the
Galerkin assembly relies on.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureOrderError

MAX_ORDER = 64


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
        ValueError: G < 1 or a >= b.
    """
    if G < 1:
        raise ValueError(f"quadrature order must be >= 1, got {G}")
    if G > MAX_ORDER:
        raise QuadratureOrderError(f"order {G} exceeds the supported cap {MAX_ORDER}")
    if not b > a:
        raise ValueError(f"interval must satisfy a < b, got ({a}, {b})")

    t, w = _reference_rule(G)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return QuadratureRule(points=mid + half * t, weights=half * w, order=G)


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

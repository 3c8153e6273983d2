"""Bernstein polynomial basis on an arbitrary interval, with exact derivatives.

The degree-n basis over [a, b] is

    B_i(x) = C(n, i) (x - a)^i (b - x)^(n-i) / (b - a)^n,   i = 0..n.

The interior members i = 1..n-1 vanish at both endpoints, which makes them
the trial space for two-point problems whose endpoint values are carried by
a separate offset polynomial.  All members are tabulated at once by the
degree recurrence

    B_{i,m} = s B_{i,m-1} + t B_{i-1,m-1},   t = (x-a)/(b-a), s = (b-x)/(b-a),

and derivatives follow exactly from the identity

    B'_{i,m} = m/(b-a) (B_{i-1,m-1} - B_{i,m-1})

(never finite differences), so Galerkin integrands built from them stay
exact polynomials.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

MAX_DEGREE = 30

# slack for quadrature nodes that land a round-off outside the interval
_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class BernsteinBasis:
    """Degree and interval of a Bernstein family.

    Attributes:
        degree: polynomial degree n, 3 <= n <= 30.
        interval: (a, b) with a < b.
    """

    degree: int
    interval: tuple

    def __post_init__(self):
        n = self.degree
        a, b = self.interval
        if not isinstance(n, int) or n < 3:
            raise ValueError(f"degree must be an integer >= 3, got {n!r}")
        if n > MAX_DEGREE:
            raise ValueError(f"degree {n} exceeds the supported cap {MAX_DEGREE}")
        if not (np.isfinite(a) and np.isfinite(b) and b > a):
            raise ValueError(f"interval must satisfy a < b, got {self.interval!r}")
        object.__setattr__(self, "interval", (float(a), float(b)))

    @property
    def a(self):
        return self.interval[0]

    @property
    def b(self):
        return self.interval[1]

    def interior_indices(self):
        """Indices of the members vanishing at both endpoints: [1, ..., n-1]."""
        return list(range(1, self.degree))

    def _checked(self, x):
        """Validate x against [a, b], clamping round-off overshoot."""
        a, b = self.interval
        x = np.asarray(x, dtype=float)
        tol = _CLAMP_TOL * max(1.0, abs(a), abs(b))
        if np.any(x < a - tol) or np.any(x > b + tol):
            bad = x[(x < a - tol) | (x > b + tol)] if x.ndim else x
            raise DomainError(f"x = {bad} outside [{a}, {b}]")
        return np.clip(x, a, b)

    def _table(self, x, k):
        """k-th derivatives of all n+1 members at x (validated), k <= n.

        Runs the degree recurrence up to degree n-k, then the derivative
        identity k times.  Row i holds member i; the trailing axes are x's.
        """
        n = self.degree
        a, b = self.interval
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

    def _member(self, i, x, k):
        xv = self._checked(x)
        out = self._table(xv, k)[i] if 0 <= i <= self.degree else np.zeros_like(xv)
        return float(out) if np.isscalar(x) or out.ndim == 0 else out

    def eval(self, i, x):
        """Value of member i at x; zero for i outside 0..n.

        x may be a scalar or an ndarray inside [a, b] (a 1e-12 overshoot is
        clamped); anything further out raises DomainError.
        """
        return self._member(i, x, 0)

    def eval_deriv(self, i, x, order):
        """Exact derivative of member i at x, order in {1, 2, 3}."""
        if order not in (1, 2, 3):
            raise ValueError(f"derivative order must be 1, 2 or 3, got {order!r}")
        return self._member(i, x, order)

    def interior_table(self, x, order=0):
        """Matrix of interior members at the points x.

        Returns shape (n-1, len(x)); row j-1 holds the order-th derivative of
        member j.  Used by the assembly routines, which need all members at
        all quadrature nodes at once.
        """
        xv = self._checked(np.atleast_1d(x))
        return self._table(xv, order)[1:-1]

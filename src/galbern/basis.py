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

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import _finite_real

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
        try:
            n = operator.index(self.degree)  # numpy integers too, not 5.0
        except TypeError:
            n = None
        a, b = self.interval
        if n is None or n < 3:
            raise ValueError(f"degree must be an integer >= 3, got {self.degree!r}")
        if n > MAX_DEGREE:
            raise ValueError(f"degree {n} exceeds the supported cap {MAX_DEGREE}")
        if not (_finite_real(a) and _finite_real(b) and float(b) > float(a)):
            raise ValueError(f"interval must satisfy finite a < b, got {self.interval!r}")
        object.__setattr__(self, "degree", n)
        object.__setattr__(self, "interval", (float(a), float(b)))

    def interior_indices(self):
        """Indices of the members vanishing at both endpoints: [1, ..., n-1]."""
        return list(range(1, self.degree))

    def _checked(self, x):
        """Validate x against [a, b], clamping round-off overshoot."""
        a, b = self.interval
        x = np.asarray(x, dtype=float)
        tol = _CLAMP_TOL * max(1.0, abs(a), abs(b))
        outside = ~((x >= a - tol) & (x <= b + tol))  # NaN is outside too
        if np.any(outside):
            bad = x[outside] if x.ndim else x
            raise DomainError(f"x = {bad} outside [{a}, {b}]")
        return np.clip(x, a, b)

    def _tables(self, x, orders):
        """k-th derivatives of all n+1 members at x (validated), each k in orders.

        One pass of the degree recurrence runs in place on a single array; the
        table at degree n-k is copied out for each order k and then raised to
        degree n by the derivative identity k times.  Returns a list in the
        order of `orders`; row i of each table holds member i, and the
        trailing axes are x's.
        """
        n = self.degree
        a, b = self.interval
        t = (x - a) / (b - a)
        s = (b - x) / (b - a)
        # member i lives in row i+1; rows 0 and beyond the current degree are 0
        work = np.zeros((n + 2,) + x.shape)
        work[1] = 1.0
        raised = {}
        for m in range(n + 1):
            if m:
                carry = t * work[1 : m + 1]
                work[1 : m + 1] *= s
                work[2 : m + 2] += carry
            if n - m in orders:
                raised[n - m] = work.copy() if m < n else work
        for k, table in raised.items():
            for m in range(n - k + 1, n + 1):
                table[1 : m + 2] = m / (b - a) * (table[: m + 1] - table[1 : m + 2])
        return [raised[k][1:] for k in orders]

    def _member(self, i, x, k):
        try:
            i = operator.index(i)
        except TypeError:
            raise ValueError(f"member index must be an integer, got {i!r}") from None
        xv = self._checked(x)
        out = self._tables(xv, (k,))[0][i] if 0 <= i <= self.degree else np.zeros_like(xv)
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
        member j.  order may also be a tuple of orders, which returns the
        tables stacked on a leading axis, all from one recurrence pass.  Used
        by the assembly routines, which need all members at all quadrature
        nodes at once.  An order outside 0..n raises ValueError.
        """
        orders = order if isinstance(order, tuple) else (order,)
        if not all(k in range(self.degree + 1) for k in orders):
            raise ValueError(f"derivative order must be in 0..{self.degree}, got {order!r}")
        tables = [t[1:-1] for t in self._tables(self._checked(np.atleast_1d(x)), orders)]
        return np.stack(tables) if isinstance(order, tuple) else tables[0]

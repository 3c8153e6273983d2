"""Reduce a sixth-order problem to the canonical coupled third-order system.

With the auxiliary unknown q = p''', the sixth-order equation

    p^(6) + c5 p^(5) + c4 p^(4) + c3 p''' + c2 p'' + c1 p' + c0 p
          + M(x, p, p', p'') = r(x)

is equivalent to the pair

    p''' - q = 0
    q''' + c5 q'' + c4 q' + c3 q + c2 p'' + c1 p' + c0 p + M = r.

Boundary data for the reduced pair is supplied by the caller: there is no
general translation from conditions on p'', p^(4), ... into conditions on
(p, q), so problems posed with such data need their q-values derived by
other means (the bundled presets carry values consistent with the known
solutions).
"""

from dataclasses import dataclass

from . import expr as ex
from .assembly import COEFF_VARS, BoundaryData, ProblemSpec, _check_vars, _checked_domain
from .errors import SpecValidationError

_M_VARS = frozenset(("x", "p", "dp", "d2p"))


@dataclass(frozen=True)
class SixthOrderSpec:
    """One sixth-order equation with unit leading coefficient.

    coeffs holds (c0, ..., c5), the coefficients of p, p', ..., p^(5), as
    expression ASTs in x with None meaning zero.  The optional nonlinear
    term may use x, p, dp, d2p only; anything involving third or higher
    derivatives has no counterpart in the reduced form.
    """

    domain: tuple
    coeffs: tuple = (None,) * 6
    forcing: "ex.Expr | None" = None
    nonlinear: "ex.Expr | None" = None
    bc_p: BoundaryData = None
    bc_q: BoundaryData = None
    exact_p: "ex.Expr | None" = None
    exact_q: "ex.Expr | None" = None

    def __post_init__(self):
        object.__setattr__(self, "domain", _checked_domain(self.domain))
        if len(self.coeffs) != 6:
            raise SpecValidationError("c0..c5 must have length 6")
        for k, c in enumerate(self.coeffs):
            _check_vars(c, COEFF_VARS, f"coefficient c{k}")
        _check_vars(self.forcing, COEFF_VARS, "forcing")
        _check_vars(
            self.nonlinear, _M_VARS, "nonlinear term",
            " (derivatives above second order cannot be carried through the reduction)",
        )
        if not (isinstance(self.bc_p, BoundaryData) and isinstance(self.bc_q, BoundaryData)):
            raise SpecValidationError("reduced BoundaryData for both p and q must be supplied")


def reduce(spec6):
    """Map a SixthOrderSpec to the equivalent coupled ProblemSpec.

    The p-equation becomes p''' - q = 0; the q-equation inherits the
    coefficients (b1..b6) = (c5, c4, c3, c2, c1, c0), the forcing and the
    nonlinear term.  Boundary and exact-solution data pass through.
    """
    c0, c1, c2, c3, c4, c5 = spec6.coeffs
    return ProblemSpec(
        domain=spec6.domain,
        p_coeffs=(None, None, None, None, None, ex.parse("-1")),
        q_coeffs=(c5, c4, c3, c2, c1, c0),
        f=None,
        g=spec6.forcing,
        m1=None,
        m2=spec6.nonlinear,
        bc_p=spec6.bc_p,
        bc_q=spec6.bc_q,
        exact_p=spec6.exact_p,
        exact_q=spec6.exact_q,
    )

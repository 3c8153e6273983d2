"""Seeded manufactured problems on long, shifted domains.

Every problem has the exact solution p = sin(x), q = cos(x) with the
nonlinear terms M1 = p*q and M2 = dq*p, so the forcings are

    f = p''' + M1 = -cos(x) + sin(x)*cos(x)
    g = q''' + M2 = sin(x) - sin(x)^2.

What the seed draws is the domain [s, s + L], the end that carries the
derivative condition, and the trial degree.  The lagged iteration needs more
steps as L grows (about 11 on [0, 2], 16 on [0, 2.5], 22 on [0, 3]), so the
drawn lengths set the iteration count of each request.

Problems come in blocks of 15: three length strata [1.5, 2), [2, 2.5),
[2.5, 3] crossed with the degrees 12..16, so every block has the same mix
of lengths and degrees and only the positions inside the strata vary.
"""

import math
import random

P_EXACT, Q_EXACT = "sin(x)", "cos(x)"
M1, M2 = "p*q", "dq*p"
F = "-cos(x) + sin(x)*cos(x)"
G = "sin(x) - sin(x)^2"

LENGTH_STRATA = ((1.5, 2.0), (2.0, 2.5), (2.5, 3.0))
DEGREES = (12, 13, 14, 15, 16)
SHIFT_RANGE = (-1.5, 1.5)
BLOCK = len(LENGTH_STRATA) * len(DEGREES)


def exact(x):
    """(p, q) of every generated problem at x."""
    return math.sin(x), math.cos(x)


def _derivative(which, x):
    return math.cos(x) if which == "p" else -math.sin(x)


def problem_text(a, b, deriv_end):
    """Problem-file text for the manufactured pair on [a, b]."""
    lines = ["[domain]", f"a = {a!r}", f"b = {b!r}", ""]
    lines += ["[equation.p]", f"f = {F}", f"nonlinear = {M1}", ""]
    lines += ["[equation.q]", f"g = {G}", f"nonlinear = {M2}", ""]
    x_d = a if deriv_end == "a" else b
    for which, fn in (("p", math.sin), ("q", math.cos)):
        lines += [
            f"[bc.{which}]",
            f"value_a = {fn(a)!r}",
            f"value_b = {fn(b)!r}",
            f"deriv_{deriv_end} = {_derivative(which, x_d)!r}",
            "",
        ]
    lines += ["[exact]", f"p = {P_EXACT}", f"q = {Q_EXACT}"]
    return "\n".join(lines) + "\n"


def block(seed, index):
    """The index-th block of problems for a seed: [(a, b, deriv_end, degree)].

    Blocks are independent of each other and of how many are drawn, so a
    block reads the same whenever it is generated.
    """
    rng = random.Random(f"long-domain/{seed}/{index}")
    out = []
    for lo, hi in LENGTH_STRATA:
        for degree in DEGREES:
            length = round(rng.uniform(lo, hi), 3)
            shift = round(rng.uniform(*SHIFT_RANGE), 3)
            deriv_end = rng.choice("ab")
            out.append((shift, round(shift + length, 3), deriv_end, degree))
    rng.shuffle(out)
    return out


def verify_with_sympy(problems):
    """Check each problem's data symbolically; returns a list of faults.

    The forcings must equal p''' + M1 and q''' + M2 at the exact solution,
    and the boundary values must be the exact solution's, to 1e-15 relative.
    """
    import sympy as sp

    x = sp.Symbol("x")
    p, q = sp.sin(x), sp.cos(x)
    env = {"x": x, "p": p, "dp": p.diff(x), "d2p": p.diff(x, 2),
           "q": q, "dq": q.diff(x), "d2q": q.diff(x, 2)}

    def parse(text):
        return sp.sympify(text.replace("^", "**"), locals=env)

    faults = []
    for lhs, m, rhs in ((p, M1, F), (q, M2, G)):
        if sp.simplify(lhs.diff(x, 3) + parse(m) - parse(rhs)) != 0:
            faults.append(f"forcing {rhs!r} is not the manufactured load")
    for a, b, deriv_end, _ in problems:
        x_d = a if deriv_end == "a" else b
        for u, value_a, value_b, deriv in (
            (p, math.sin(a), math.sin(b), _derivative("p", x_d)),
            (q, math.cos(a), math.cos(b), _derivative("q", x_d)),
        ):
            for want, got in ((u.subs(x, a), value_a), (u.subs(x, b), value_b),
                              (u.diff(x).subs(x, x_d), deriv)):
                if abs(float(want) - got) > 1e-15 * (1.0 + abs(got)):
                    faults.append(f"boundary value {got!r} on [{a}, {b}] differs from {want}")
    return faults

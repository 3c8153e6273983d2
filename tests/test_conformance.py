"""Manufactured-solution conformance suite.

A seeded generator draws problems with a known solution pair: the exact pair,
each of the twelve linear coefficient slots, both nonlinear terms, the end
that carries each unknown's derivative condition and a shifted domain.  sympy
derives the forcings f and g from the exact pair.  Every problem must come
within 1e-6 of its exact pair at degree 16, and raising the degree to 30 must
not make it worse: err(30) <= 10 err(16) + 1e-13.

The seed and the count are fixed; a failing problem is investigated, never
drawn away.  A problem on which both degrees raise a typed GalbernError may
stay, listed in TYPED_FAILURES, which holds at most 5% of the suite.
"""

import random
from typing import NamedTuple

import numpy as np
import pytest
import sympy as sp

import galbern as gb

SEED = 21
COUNT = 40
TYPED_FAILURES = frozenset()

EXACT = ("sin(x)", "cos(x)", "exp(x/2)", "x^3 - x", "x^4 + 1", "x*exp(-x)", "sin(2*x) + x",
         "1/(2 + x)")
COEFFICIENTS = (None, "1", "-2", "x", "1 + x^2", "cos(x)", "exp(-x)", "x/3")
NONLINEAR = (None, "p*q", "dp*q", "d2p*p/4", "p^2", "q*dq", "sin(p)", "d2q*dp/5", "exp(-q^2)")

X = sp.Symbol("x")
STATE = sp.symbols("p dp d2p q dq d2q")


class Draw(NamedTuple):
    exact: tuple  # (p, q) sources
    coeffs: tuple  # (a1..a6, b1..b6) sources or None
    nonlinear: tuple  # (m1, m2) sources or None
    ends: tuple  # derivative end of p and of q
    domain: tuple


def draw(index):
    rng = random.Random(f"conformance/{SEED}/{index}")
    start, length = rng.uniform(-1.5, 1.0), rng.uniform(0.5, 1.8)
    return Draw(
        exact=(rng.choice(EXACT), rng.choice(EXACT)),
        coeffs=tuple(tuple(rng.choice(COEFFICIENTS) for _ in range(6)) for _ in "pq"),
        nonlinear=(rng.choice(NONLINEAR), rng.choice(NONLINEAR)),
        ends=(rng.choice("ab"), rng.choice("ab")),
        domain=(round(start, 3), round(start + length, 3)),
    )


def _sym(source):
    return sp.sympify(source.replace("^", "**"), locals={s.name: s for s in (X, *STATE)})


def _parse(source):
    return None if source is None else gb.parse(source)


def build(d):
    """The ProblemSpec of a draw, with forcings derived by sympy."""
    a, b = d.domain
    p, q = (_sym(e) for e in d.exact)
    values = dict(zip(STATE, (p, p.diff(X), p.diff(X, 2), q, q.diff(X), q.diff(X, 2))))
    forcings, bcs = [], []
    for own, cross, coeffs, m, end in zip((p, q), (q, p), d.coeffs, d.nonlinear, d.ends):
        lhs = own.diff(X, 3)
        for k, c in enumerate(coeffs):  # own u'', u', u, then cross v'', v', v
            if c is not None:
                lhs += _sym(c) * (own if k < 3 else cross).diff(X, 2 - k % 3)
        if m is not None:
            lhs += _sym(m).subs(values)
        forcings.append(gb.parse(str(lhs).replace("**", "^")))
        slope = own.diff(X).subs(X, a if end == "a" else b)
        bcs.append(gb.BoundaryData(float(own.subs(X, a)), float(own.subs(X, b)), end,
                                   float(slope)))
    return gb.ProblemSpec(
        domain=d.domain,
        p_coeffs=tuple(map(_parse, d.coeffs[0])),
        q_coeffs=tuple(map(_parse, d.coeffs[1])),
        f=forcings[0], g=forcings[1],
        m1=_parse(d.nonlinear[0]), m2=_parse(d.nonlinear[1]),
        bc_p=bcs[0], bc_q=bcs[1],
        exact_p=gb.parse(d.exact[0]), exact_q=gb.parse(d.exact[1]),
    )


def grid_error(spec, degree):
    """Sup error of the degree-n solve on its grid, or the typed error it raised."""
    try:
        sol = gb.picard_solve(spec, degree)
    except gb.GalbernError as exc:
        return exc
    grid = gb.PointState(x=np.linspace(*spec.domain, 101))
    exact = np.array([gb.evaluate(e, grid) for e in (spec.exact_p, spec.exact_q)])
    return float(np.max(np.abs(sol.grid_values - exact)))


@pytest.mark.parametrize("index", range(COUNT))
def test_manufactured_problem(index):
    spec = build(draw(index))
    err16, err30 = grid_error(spec, 16), grid_error(spec, 30)
    if index in TYPED_FAILURES:
        assert isinstance(err16, gb.GalbernError) and isinstance(err30, gb.GalbernError)
        return
    assert not isinstance(err16, Exception) and not isinstance(err30, Exception), (err16, err30)
    assert err16 <= 1e-6
    # a larger trial space must not lose accuracy to the conditioning of K
    assert err30 <= 10 * err16 + 1e-13, (err16, err30)


def test_typed_failures_are_few():
    assert len(TYPED_FAILURES) <= 0.05 * COUNT


def test_draws_cover_every_slot_form_and_end():
    draws = [draw(i) for i in range(COUNT)]
    for u in range(2):
        for slot in range(6):
            assert any(d.coeffs[u][slot] is not None for d in draws), (u, slot)
        assert {d.ends[u] for d in draws} == {"a", "b"}
    assert {c for d in draws for cs in d.coeffs for c in cs} == set(COEFFICIENTS)
    assert {m for d in draws for m in d.nonlinear} == set(NONLINEAR)
    assert {e for d in draws for e in d.exact} == set(EXACT)

"""The three benchmark workloads and the checks on their answers.

Each workload is a closed loop run in rounds.  ``round(k)`` prepares the
k-th round (untimed) and returns its requests in seeded order; a request's
``run`` is the only timed part, and its ``check`` judges the answer
afterwards against exact solutions written down here, independently of the
package.  Rounds are deterministic in (seed, k), so a traced pass can replay
exactly the requests of an untraced one.
"""

import contextlib
import csv
import hashlib
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import longdomain


@dataclass(frozen=True)
class Request:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "Outcome"]


@dataclass(frozen=True)
class Outcome:
    ok: bool
    err: "float | None"  # max abs error against the exact solution, if it applies
    fingerprint: str  # digest of the full-precision answer
    note: str = ""


def _exact(p, q):
    return lambda x: (p(x), q(x))


# exact solutions of the bundled problems, written independently of the package
EXACT = {
    "example1": _exact(lambda x: 3 * x**2 - 3 * x**3, lambda x: x**4 - x**2),
    "example2": _exact(lambda x: x**4, lambda x: x**3),
    "example3": _exact(lambda x: (1 - x) * math.exp(x), lambda x: -(2 + x) * math.exp(x)),
    "example4": _exact(math.exp, math.exp),
}

# example1 at degree 3 after five lagged iterations: the published interior
# Bernstein coefficients, scaled by 3, of p and q on [0, 1]
REPLICATION_P = (0.00054548, 2.99843577)
REPLICATION_Q = (0.39311569, -2.07669616)
REPLICATION_TOL = 1e-7


def _replication(x):
    def poly(d):
        return d[0] * x * (1 - x) ** 2 + d[1] * x**2 * (1 - x)

    return poly(REPLICATION_P), poly(REPLICATION_Q)


def report_grid(a, b):
    """The nine interior tenth points where answers are compared."""
    return [a + (k * (b - a)) / 10.0 for k in range(1, 10)]


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def check_solution(sol, domain, exact, tol):
    """Judge a library Solution: converged and within tol of the exact pair."""
    xs = np.array(report_grid(*domain))
    p = np.asarray(sol.evaluate(xs, "p"), dtype=float)
    q = np.asarray(sol.evaluate(xs, "q"), dtype=float)
    want = np.array([exact(float(x)) for x in xs])
    err = float(max(np.max(np.abs(p - want[:, 0])), np.max(np.abs(q - want[:, 1]))))
    fingerprint = _digest(
        np.asarray(sol.coeffs_p, dtype=float).tobytes(),
        np.asarray(sol.coeffs_q, dtype=float).tobytes(),
        p.tobytes(), q.tobytes(), sol.iterations_used, sol.converged,
    )
    if not sol.converged:
        return Outcome(False, err, fingerprint, f"not converged after {sol.iterations_used}")
    if not err <= tol:
        return Outcome(False, err, fingerprint, f"max error {err:.3e} above {tol:.0e}")
    return Outcome(True, err, fingerprint)


def _parse_report(text, fmt):
    """Rows (x, p_approx, q_approx) of a table or CSV error report."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0][:3] != ["x", "p_exact", "p_approx"]:
            raise ValueError(f"unexpected CSV header {rows[0]}")
        return [(float(r[0]), float(r[2]), float(r[5])) for r in rows[1:]]
    lines = text.splitlines()
    if not lines[-1].startswith("max |p err|"):
        raise ValueError("table report lacks its summary line")
    return [tuple(float(v) for v in (r.split()[0], r.split()[2], r.split()[5]))
            for r in lines[1:-1]]


def check_report(result, domain, exact, tol, fmt, counts_error=True):
    """Judge a CLI solve: exit 0 and nine report rows within tol of exact.

    Table reports print x to two decimals and values to eight, so for them
    the comparison uses the report grid's own x and allows the 5e-9 rounding.
    """
    code, out, err_text = result
    fingerprint = _digest(code, out, err_text)
    if code != 0:
        return Outcome(False, None, fingerprint, f"exit {code}: {err_text.strip()[-200:]}")
    try:
        rows = _parse_report(out, fmt)
    except (ValueError, IndexError) as exc:
        return Outcome(False, None, fingerprint, f"unreadable report: {exc}")
    xs = report_grid(*domain)
    if len(rows) != len(xs):
        return Outcome(False, None, fingerprint, f"{len(rows)} report rows, expected 9")
    slack = 5e-9 if fmt == "table" else 0.0
    worst = 0.0
    for (x_out, p, q), x in zip(rows, xs):
        if abs(x_out - x) > (5e-3 if fmt == "table" else 0.0):
            return Outcome(False, None, fingerprint, f"report row at x={x_out}, expected {x}")
        pe, qe = exact(x)
        worst = max(worst, abs(p - pe), abs(q - qe))
    if not worst <= tol + slack:
        return Outcome(False, worst, fingerprint, f"max error {worst:.3e} above {tol:.0e}")
    return Outcome(True, worst if counts_error else None, fingerprint)


def check_reduce(result, path):
    """Judge a CLI reduce: exit 0 and a coupled problem file written."""
    code, out, err_text = result
    text = path.read_text() if path.exists() else ""
    fingerprint = _digest(code, out, err_text, text)
    if code != 0:
        return Outcome(False, None, fingerprint, f"exit {code}: {err_text.strip()[-200:]}")
    for section in ("[equation.p]", "[equation.q]", "[bc.p]", "[bc.q]", "[exact]"):
        if section not in text:
            return Outcome(False, None, fingerprint, f"reduced file lacks {section}")
    return Outcome(True, None, fingerprint)


class Workload:
    """Constructed with (galbern, checkout root, scratch dir, seed)."""

    name = ""
    TOL = 0.0  # max abs error against the exact solution

    def round(self, k):
        """The requests of round k, deterministic in (seed, k)."""
        raise NotImplementedError

    def faults(self):
        """Problems found in the workload's own inputs, checked after timing."""
        return []


class HighDeg(Workload):
    """picard_solve on nonlinear presets at high degree; inputs repeat."""

    name = "highdeg"
    PRESETS = ("example1", "example2", "example4")
    # five degrees per preset: 15 request kinds, so p50 and p90 of a round
    # fall inside a kind's spread rather than on the edge between two kinds
    DEGREES = (20, 22, 25, 28, 30)
    TOL = 1e-9

    def __init__(self, gb, root, workdir, seed):
        self.gb = gb
        self.seed = seed
        self.specs = {name: gb.preset(name) for name in self.PRESETS}

    def round(self, k):
        gb = self.gb
        pairs = [(name, d) for name in self.PRESETS for d in self.DEGREES]
        random.Random(f"highdeg/{self.seed}/{k}").shuffle(pairs)
        reqs = []
        for name, degree in pairs:
            spec = self.specs[name]
            reqs.append(Request(
                f"{name}@{degree}",
                lambda spec=spec, degree=degree: gb.picard_solve(spec, degree),
                lambda sol, spec=spec, name=name: check_solution(
                    sol, spec.domain, EXACT[name], self.TOL),
            ))
        return reqs


class LongDomain(Workload):
    """load_problem + picard_solve on generated problems; every input is new."""

    name = "long-domain"
    TOL = 1e-9

    def __init__(self, gb, root, workdir, seed):
        self.gb = gb
        self.seed = seed
        self.dir = workdir / "long-domain"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.generated = set()

    def faults(self):
        """Symbolic check of every problem generated so far."""
        return longdomain.verify_with_sympy(sorted(self.generated))

    def round(self, k):
        gb = self.gb
        reqs = []
        for i, (a, b, deriv_end, degree) in enumerate(longdomain.block(self.seed, k)):
            self.generated.add((a, b, deriv_end, degree))
            path = self.dir / f"r{k}-{i}.prob"
            path.write_text(longdomain.problem_text(a, b, deriv_end))
            reqs.append(Request(
                f"[{a}, {b}] {deriv_end} @{degree}",
                lambda path=path, degree=degree: gb.picard_solve(gb.load_problem(str(path)), degree),
                lambda sol, a=a, b=b: check_solution(sol, (a, b), longdomain.exact, self.TOL),
            ))
        return reqs


class CliSweep(Workload):
    """cli.run in-process over sweeps, reductions and a replication solve."""

    name = "cli-sweep"
    TOL = 1e-7

    def __init__(self, gb, root, workdir, seed):
        self.gb = gb
        self.seed = seed
        problems = root / "problems"
        reduced_lin = workdir / "sixth_order_linear.reduced.prob"
        reduced_nl = workdir / "sixth_order_nonlinear.reduced.prob"
        unit = (0.0, 1.0)

        def solve(argv, exact, fmt, tol=self.TOL, counts_error=True):
            return Request(" ".join(argv), lambda: self._cli(argv),
                           lambda r: check_report(r, unit, exact, tol, fmt, counts_error))

        def reduce(src, dst):
            argv = ["reduce", str(src), "--out", str(dst)]
            return Request(" ".join(argv), lambda: self._cli(argv),
                           lambda r: check_reduce(r, dst))

        sweep = ["--sweep", "3..12"]
        csv_fmt = ["--format", "csv"]
        # units keep a reduce ahead of the solve that reads its output
        self.units = [
            [solve(["solve", str(problems / "example1.prob")] + sweep, EXACT["example1"], "table")],
            [solve(["solve", str(problems / "example1.prob")] + sweep + csv_fmt, EXACT["example1"], "csv")],
            [solve(["solve", str(problems / "example2.prob")] + sweep, EXACT["example2"], "table")],
            [solve(["solve", str(problems / "example2.prob")] + sweep + csv_fmt, EXACT["example2"], "csv")],
            [solve(["solve", "--preset", "example3"] + sweep, EXACT["example3"], "table")],
            [solve(["solve", "--preset", "example4"] + sweep + csv_fmt, EXACT["example4"], "csv")],
            [reduce(problems / "sixth_order_linear.prob", reduced_lin),
             solve(["solve", str(reduced_lin), "--degree", "8"], EXACT["example3"], "table")],
            [reduce(problems / "sixth_order_nonlinear.prob", reduced_nl),
             solve(["solve", str(reduced_nl), "--degree", "8"] + csv_fmt, EXACT["example4"], "csv")],
            # replication mode: judged against the published iterate, not the
            # exact solution, so its (large) error stays out of max_err
            [solve(["solve", "--preset", "example1", "--degree", "3", "--fixed-iters", "5"] + csv_fmt,
                   _replication, "csv", REPLICATION_TOL, counts_error=False)],
        ]

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.gb.cli.run(list(argv))
        return code, out.getvalue(), err.getvalue()

    def round(self, k):
        units = list(self.units)
        random.Random(f"cli-sweep/{self.seed}/{k}").shuffle(units)
        return [req for unit in units for req in unit]


WORKLOADS = {w.name: w for w in (HighDeg, LongDomain, CliSweep)}

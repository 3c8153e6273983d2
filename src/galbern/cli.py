"""Problem files, bundled example problems, error tables and the CLI.

Problem files are INI-style text (see README for the full format):

    [domain]      a, b
    [equation.p]  a1..a6, f, nonlinear
    [equation.q]  b1..b6, g, nonlinear
    [bc.p]        value_a, value_b, deriv_a | deriv_b
    [bc.q]        likewise
    [exact]       p, q          (optional, enables error tables)

Sixth-order files replace the two equation sections with a single
[equation] section holding c0..c5, r and nonlinear.  All function-valued
fields are expression strings in the grammar of the expr module.
"""

import argparse
import configparser
import csv
import io
import re
import sys
from pathlib import Path

import numpy as np

from . import expr as ex
from .assembly import BoundaryData, ProblemSpec
from .basis import MAX_DEGREE
from .errors import ExprSyntaxError, GalbernError, ProblemFileError
from .reduction import SixthOrderSpec, reduce
from .solver import SolverConfig, picard_solve, refine_solve

_DEFAULT_DEGREE = 5


# ---------------------------------------------------------------------------
# problem files

def _get_parser(path):
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as err:
        raise ProblemFileError(f"cannot read problem file: {err}") from err
    except configparser.Error as err:
        raise ProblemFileError(f"malformed problem file: {err}") from err
    return cp


def _expr_field(cp, section, key):
    if not cp.has_option(section, key):
        return None
    try:
        return ex.parse(cp.get(section, key))
    except ExprSyntaxError as err:
        raise ProblemFileError(f"[{section}] {key}: {err}") from err


def _float_field(cp, section, key, required=True):
    if not cp.has_option(section, key):
        if required:
            raise ProblemFileError(f"[{section}] {key}: missing required key")
        return None
    raw = cp.get(section, key)
    try:
        value = float(raw)
    except ValueError as err:
        raise ProblemFileError(f"[{section}] {key}: not a number: {raw!r}") from err
    if not np.isfinite(value):
        raise ProblemFileError(f"[{section}] {key}: not a finite number: {raw!r}")
    return value


def _check_keys(cp, section, allowed):
    for key in cp.options(section):
        if key not in allowed:
            raise ProblemFileError(f"[{section}] {key}: unknown key")


def _check_sections(cp, required):
    present = set(cp.sections())
    for sec in required:
        if sec not in present:
            raise ProblemFileError(f"[{sec}]: missing required section")
    for sec in present - set(required) - {"exact"}:
        raise ProblemFileError(f"[{sec}]: unknown section")


def _load_bc(cp, section):
    _check_keys(cp, section, ("value_a", "value_b", "deriv_a", "deriv_b"))
    value_a = _float_field(cp, section, "value_a")
    value_b = _float_field(cp, section, "value_b")
    deriv_a = _float_field(cp, section, "deriv_a", required=False)
    deriv_b = _float_field(cp, section, "deriv_b", required=False)
    if (deriv_a is None) == (deriv_b is None):
        raise ProblemFileError(
            f"[{section}] deriv_a/deriv_b: exactly one endpoint derivative required"
        )
    if deriv_a is not None:
        return BoundaryData(value_a, value_b, "a", deriv_a)
    return BoundaryData(value_a, value_b, "b", deriv_b)


def _shared_fields(cp):
    """Domain, boundary data and exact solutions, as both kinds of problem file hold them."""
    if cp.has_section("exact"):
        _check_keys(cp, "exact", ("p", "q"))
    exact_p, exact_q = _expr_field(cp, "exact", "p"), _expr_field(cp, "exact", "q")
    _check_keys(cp, "domain", ("a", "b"))
    return dict(
        domain=(_float_field(cp, "domain", "a"), _float_field(cp, "domain", "b")),
        bc_p=_load_bc(cp, "bc.p"), bc_q=_load_bc(cp, "bc.q"), exact_p=exact_p, exact_q=exact_q,
    )


def load_problem(path):
    """Read and validate a coupled-system problem file into a ProblemSpec."""
    cp = _get_parser(path)
    _check_sections(cp, ("domain", "equation.p", "equation.q", "bc.p", "bc.q"))
    _check_keys(cp, "equation.p", tuple(f"a{k}" for k in range(1, 7)) + ("f", "nonlinear"))
    _check_keys(cp, "equation.q", tuple(f"b{k}" for k in range(1, 7)) + ("g", "nonlinear"))
    return ProblemSpec(
        **_shared_fields(cp),
        p_coeffs=tuple(_expr_field(cp, "equation.p", f"a{k}") for k in range(1, 7)),
        q_coeffs=tuple(_expr_field(cp, "equation.q", f"b{k}") for k in range(1, 7)),
        f=_expr_field(cp, "equation.p", "f"),
        g=_expr_field(cp, "equation.q", "g"),
        m1=_expr_field(cp, "equation.p", "nonlinear"),
        m2=_expr_field(cp, "equation.q", "nonlinear"),
    )


def load_sixth_order(path):
    """Read and validate a sixth-order problem file into a SixthOrderSpec."""
    cp = _get_parser(path)
    _check_sections(cp, ("domain", "equation", "bc.p", "bc.q"))
    _check_keys(cp, "equation", tuple(f"c{k}" for k in range(6)) + ("r", "nonlinear"))
    return SixthOrderSpec(
        **_shared_fields(cp),
        coeffs=tuple(_expr_field(cp, "equation", f"c{k}") for k in range(6)),
        forcing=_expr_field(cp, "equation", "r"),
        nonlinear=_expr_field(cp, "equation", "nonlinear"),
    )


def _bc_lines(section, bc):
    lines = [f"[{section}]", f"value_a = {bc.value_a!r}", f"value_b = {bc.value_b!r}"]
    lines.append(f"deriv_{bc.deriv_end} = {bc.deriv_value!r}")
    return lines


def dump_problem(spec):
    """Render a ProblemSpec as problem-file text (inverse of load_problem)."""
    a, b = spec.domain
    lines = ["[domain]", f"a = {a!r}", f"b = {b!r}", ""]
    for section, prefix, coeffs, forcing_key, forcing, nonlinear in (
        ("equation.p", "a", spec.p_coeffs, "f", spec.f, spec.m1),
        ("equation.q", "b", spec.q_coeffs, "g", spec.g, spec.m2),
    ):
        lines.append(f"[{section}]")
        for k, c in enumerate(coeffs, start=1):
            if c is not None:
                lines.append(f"{prefix}{k} = {ex.to_source(c)}")
        if forcing is not None:
            lines.append(f"{forcing_key} = {ex.to_source(forcing)}")
        if nonlinear is not None:
            lines.append(f"nonlinear = {ex.to_source(nonlinear)}")
        lines.append("")
    lines.extend(_bc_lines("bc.p", spec.bc_p))
    lines.append("")
    lines.extend(_bc_lines("bc.q", spec.bc_q))
    exact = [(u, e) for u, e in (("p", spec.exact_p), ("q", spec.exact_q)) if e is not None]
    if exact:
        lines += ["", "[exact]"] + [f"{u} = {ex.to_source(e)}" for u, e in exact]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# bundled example problems: the shipped problem files, read as package data

_PROBLEMS_DIR = Path(__file__).with_name("problems")
_PRESET_FILES = {
    "example1": "example1.prob",
    "example2": "example2.prob",
    "example3": "sixth_order_linear.prob",
    "example4": "sixth_order_nonlinear.prob",
}
_SIXTH_ORDER_PRESETS = ("example3", "example4")
PRESETS = tuple(_PRESET_FILES)


def sixth_order_preset(name):
    """The bundled sixth-order problems before reduction: example3 is linear
    with solution (1 - x) e^x, example4 nonlinear with solution e^x."""
    if name not in _SIXTH_ORDER_PRESETS:
        raise ValueError(f"no sixth-order preset named {name!r}")
    return load_sixth_order(_PROBLEMS_DIR / _PRESET_FILES[name])


def preset(name):
    """Bundled benchmark problems as ready-to-solve ProblemSpecs.

    example1: coupled nonlinear pair with polynomial solutions 3x^2 - 3x^3
    and x^4 - x^2.  example2: coupled nonlinear pair with solutions x^4 and
    x^3.  example3 and example4 are the sixth-order problems of
    sixth_order_preset, reduced.
    """
    if name not in _PRESET_FILES:
        raise ValueError(f"no preset named {name!r}")
    if name in _SIXTH_ORDER_PRESETS:
        return reduce(sixth_order_preset(name))
    return load_problem(_PROBLEMS_DIR / _PRESET_FILES[name])


# ---------------------------------------------------------------------------
# reports

class ErrorTable:
    """Exact, approximate and absolute-error samples at the nine interior
    tenth points of the domain."""

    def __init__(self, xs, p_exact, p_approx, q_exact, q_approx):
        self.xs = list(xs)
        self.p_exact = list(p_exact)
        self.p_approx = list(p_approx)
        self.p_error = [abs(e - v) for e, v in zip(p_exact, p_approx)]
        self.q_exact = list(q_exact)
        self.q_approx = list(q_approx)
        self.q_error = [abs(e - v) for e, v in zip(q_exact, q_approx)]

    @property
    def max_p_error(self):
        return max(self.p_error)

    @property
    def max_q_error(self):
        return max(self.q_error)


def sample_points(domain):
    """x = a + k (b - a)/10 for k = 1..9."""
    a, b = domain
    return [a + (k * (b - a)) / 10.0 for k in range(1, 10)]


def error_table(spec, sol):
    """Tabulate the solution against the problem's exact expressions."""
    if spec.exact_p is None or spec.exact_q is None:
        raise ValueError("error_table requires both [exact] expressions")
    xs = sample_points(spec.domain)
    state = ex.PointState(x=np.array(xs))
    p_exact = ex.evaluate(spec.exact_p, state).tolist()
    q_exact = ex.evaluate(spec.exact_q, state).tolist()
    p_approx, q_approx = sol.evaluate(xs, "pq").tolist()
    return ErrorTable(xs, p_exact, p_approx, q_exact, q_approx)


def format_table(table):
    header = (
        f"{'x':>6} {'p exact':>15} {'p approx':>15} {'|p err|':>12}"
        f" {'q exact':>15} {'q approx':>15} {'|q err|':>12}"
    )
    lines = [header]
    for k in range(len(table.xs)):
        lines.append(
            f"{table.xs[k]:6.2f} {table.p_exact[k]:15.8f} {table.p_approx[k]:15.8f}"
            f" {table.p_error[k]:12.6e} {table.q_exact[k]:15.8f}"
            f" {table.q_approx[k]:15.8f} {table.q_error[k]:12.6e}"
        )
    lines.append(
        f"max |p err| = {table.max_p_error:.6e}   max |q err| = {table.max_q_error:.6e}"
    )
    return "\n".join(lines) + "\n"


def _csv_text(header, rows):
    """CSV with one header line; every value written as its exact repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(value) for value in row] for row in rows)
    return buf.getvalue()


def format_csv(table):
    return _csv_text(
        ["x", "p_exact", "p_approx", "p_abs_err", "q_exact", "q_approx", "q_abs_err"],
        zip(table.xs, table.p_exact, table.p_approx, table.p_error,
            table.q_exact, table.q_approx, table.q_error),
    )


def format_samples(sol, domain, as_csv=False):
    """Fallback report when no exact solution is available."""
    xs = sample_points(domain)
    rows = list(zip(xs, *sol.evaluate(xs, "pq").tolist()))
    if as_csv:
        return _csv_text(["x", "p_approx", "q_approx"], rows)
    lines = [f"{'x':>6} {'p approx':>18} {'q approx':>18}"]
    for x, p, q in rows:
        lines.append(f"{x:6.2f} {p:18.10f} {q:18.10f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command line

def _build_argparser():
    parser = argparse.ArgumentParser(
        prog="galbern",
        description="Galerkin-Bernstein solver for coupled third-order "
        "two-point boundary value problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve a problem file or bundled preset")
    sp.add_argument("problem", nargs="?", help="path to a problem file")
    sp.add_argument("--preset", choices=PRESETS, help="bundled example problem")
    deg = sp.add_mutually_exclusive_group()
    deg.add_argument("--degree", type=int,
                     help=f"trial degree, 3 to {MAX_DEGREE} (default {_DEFAULT_DEGREE})")
    deg.add_argument("--sweep", metavar="MIN..MAX",
                     help=f"refine over a degree range within 3..{MAX_DEGREE}")
    sp.add_argument("--fixed-iters", type=int, metavar="K",
                    help="run exactly K lagged iterations after the bootstrap")
    sp.add_argument("--tol-picard", type=float, default=1e-10, metavar="TOL",
                    help="successive-iterate tolerance, positive and finite (default 1e-10)")
    sp.add_argument("--tol-degree", type=float, default=1e-8, metavar="TOL",
                    help="consecutive-degree tolerance for --sweep, positive and finite "
                    "(default 1e-8)")
    sp.add_argument("--format", choices=("table", "csv"), default="table")
    sp.add_argument("--out", help="write the report to a file instead of stdout")

    rp = sub.add_parser("reduce", help="reduce a sixth-order problem file "
                        "to a coupled third-order problem file")
    rp.add_argument("problem", help="path to a sixth-order problem file")
    rp.add_argument("--out", help="write the reduced file here instead of stdout")
    return parser


_ARGPARSER = _build_argparser()


def _parse_sweep(text):
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not m:
        raise ValueError(f"--sweep expects MIN..MAX, got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise ValueError(f"--sweep expects MIN <= MAX, got {text!r}")
    if lo < 3:
        raise ValueError(f"--sweep expects MIN >= 3, got {text!r}")
    if hi > MAX_DEGREE:
        raise ValueError(f"--sweep expects MAX <= {MAX_DEGREE}, got {text!r}")
    return lo, hi


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _run_solve(args):
    if (args.problem is None) == (args.preset is None):
        raise ValueError("give exactly one of a problem file or --preset")
    spec = preset(args.preset) if args.preset else load_problem(args.problem)

    kwargs = dict(
        picard_tol=args.tol_picard,
        fixed_iters=args.fixed_iters,
        degree_tol=args.tol_degree,
    )
    if args.sweep:
        lo, hi = _parse_sweep(args.sweep)
        sol, history = refine_solve(spec, SolverConfig(min_degree=lo, max_degree=hi, **kwargs))
        for deg, dist in zip(history.degrees, history.distances):
            note = "" if dist is None else f": distance from previous degree {dist:.3e}"
            print(f"degree {deg}{note}", file=sys.stderr)
        converged = history.converged
        replication = False
    else:
        degree = args.degree if args.degree is not None else _DEFAULT_DEGREE
        sol = picard_solve(spec, degree, SolverConfig(**kwargs))
        converged = sol.converged
        replication = args.fixed_iters is not None

    print(
        f"degree {sol.basis.degree}, {sol.iterations_used} iterations, "
        f"converged={converged}, residual={sol.residual:.3e}",
        file=sys.stderr,
    )

    if spec.exact_p is not None and spec.exact_q is not None:
        table = error_table(spec, sol)
        text = format_csv(table) if args.format == "csv" else format_table(table)
    else:
        text = format_samples(sol, spec.domain, as_csv=args.format == "csv")
    _emit(text, args.out)
    return 0 if (converged or replication) else 2


def _run_reduce(args):
    spec6 = load_sixth_order(args.problem)
    _emit(dump_problem(reduce(spec6)), args.out)
    return 0


def run(argv):
    """Execute a command line; returns the process exit status."""
    args = _ARGPARSER.parse_args(argv)
    try:
        if args.command == "solve":
            return _run_solve(args)
        return _run_reduce(args)
    except (GalbernError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main(argv=None):
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())

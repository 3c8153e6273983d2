import math
import operator
import os
import re
import runpy
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

import galbern as gb
from galbern import ProblemFileError, dump_problem, load_problem, load_sixth_order, preset
from galbern.assembly import BoundaryData, _reference_tables, _Workspace
from galbern.cli import PRESETS, error_table, format_samples, run, sample_points

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"
from galbern.expr import BinOp, Neg, Num, Pow, Var

EXAMPLE1_FILE = """\
[domain]
a = 0
b = 1

[equation.p]
a2 = 2
a6 = x
f = x^5 - x^3 - 18*x^2 + 12*x - 18

[equation.q]
g = -36*x^3 + 12*x^2 + 30*x - 2
nonlinear = 1/6 * d2p * d2q

[bc.p]
value_a = 0
value_b = 0
deriv_a = 0

[bc.q]
value_a = 0
value_b = 0
deriv_a = 0

[exact]
p = 3*x^2 - 3*x^3
q = x^4 - x^2
"""

SIXTH_ORDER_FILE = """\
[domain]
a = 0
b = 1

[equation]
c0 = -1
r = -6*exp(x)

[bc.p]
value_a = 1
value_b = 0
deriv_a = 0

[bc.q]
value_a = -2
value_b = -8.154845485377136
deriv_a = -3

[exact]
p = (1 - x) * exp(x)
q = -(2 + x) * exp(x)
"""


@pytest.fixture
def example1_path(tmp_path):
    path = tmp_path / "example1.prob"
    path.write_text(EXAMPLE1_FILE)
    return str(path)


@pytest.fixture
def sixth_path(tmp_path):
    path = tmp_path / "sixth.prob"
    path.write_text(SIXTH_ORDER_FILE)
    return str(path)


def write_problem(tmp_path, text, name="bad.prob"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadProblem:
    def test_example1_fields(self, example1_path):
        spec = load_problem(example1_path)
        assert spec.domain == (0.0, 1.0)
        assert spec.p_coeffs[1] == Num(2.0)
        assert spec.p_coeffs[5] == Var("x")
        assert spec.p_coeffs[0] is None
        assert spec.m1 is None
        assert spec.m2 == gb.parse("1/6 * d2p * d2q")
        assert spec.bc_p.value_a == 0.0 and spec.bc_p.deriv_end == "a"
        assert spec.exact_p == gb.parse("3*x^2 - 3*x^3")

    def test_matches_preset(self, example1_path):
        spec = load_problem(example1_path)
        built = preset("example1")
        assert spec.p_coeffs == built.p_coeffs
        assert spec.q_coeffs == built.q_coeffs
        assert spec.f == built.f and spec.g == built.g
        assert spec.m2 == built.m2
        assert spec.bc_p == built.bc_p and spec.bc_q == built.bc_q

    def test_missing_value_b_named(self, tmp_path):
        text = EXAMPLE1_FILE.replace("value_b = 0\n", "", 1)  # drop it from [bc.p]
        with pytest.raises(ProblemFileError) as info:
            load_problem(write_problem(tmp_path, text))
        assert "[bc.p] value_b" in str(info.value)

    def test_unknown_variable_in_nonlinear(self, tmp_path):
        text = EXAMPLE1_FILE.replace("1/6 * d2p * d2q", "1/6 * d3p * d2q")
        with pytest.raises(ProblemFileError) as info:
            load_problem(write_problem(tmp_path, text))
        assert "d3p" in str(info.value)
        assert "[equation.q] nonlinear" in str(info.value)

    def test_both_derivs_rejected(self, tmp_path):
        text = EXAMPLE1_FILE.replace("deriv_a = 0\n\n[bc.q]", "deriv_a = 0\nderiv_b = 1\n\n[bc.q]")
        with pytest.raises(ProblemFileError) as info:
            load_problem(write_problem(tmp_path, text))
        assert "exactly one endpoint derivative" in str(info.value)

    def test_unknown_key_rejected(self, tmp_path):
        text = EXAMPLE1_FILE.replace("a2 = 2", "a2 = 2\na9 = 1")
        with pytest.raises(ProblemFileError) as info:
            load_problem(write_problem(tmp_path, text))
        assert "[equation.p] a9" in str(info.value)

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ProblemFileError):
            load_problem(write_problem(tmp_path, EXAMPLE1_FILE + "\n[extras]\nz = 1\n"))

    def test_missing_section_named(self, tmp_path):
        text = EXAMPLE1_FILE.replace("[bc.q]", "[bc.q.typo]")
        with pytest.raises(ProblemFileError) as info:
            load_problem(write_problem(tmp_path, text))
        assert "bc.q" in str(info.value)

    def test_malformed_file(self, tmp_path):
        text = EXAMPLE1_FILE.replace("[domain]\n", "a = 0\n[domain]\n", 1)  # key before any section
        with pytest.raises(ProblemFileError, match="malformed problem file"):
            load_problem(write_problem(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProblemFileError):
            load_problem(str(tmp_path / "nope.prob"))

    def test_non_numeric_bc(self, tmp_path):
        text = EXAMPLE1_FILE.replace("value_a = 0\nvalue_b = 0\nderiv_a = 0\n\n[bc.q]",
                                     "value_a = zero\nvalue_b = 0\nderiv_a = 0\n\n[bc.q]")
        with pytest.raises(ProblemFileError) as info:
            load_problem(write_problem(tmp_path, text))
        assert "[bc.p] value_a" in str(info.value)


class TestLoadSixthOrder:
    def test_fields(self, sixth_path):
        spec6 = load_sixth_order(sixth_path)
        assert spec6.coeffs[0] == gb.parse("-1")
        assert spec6.coeffs[1:] == (None,) * 5
        assert spec6.forcing == gb.parse("-6*exp(x)")
        assert spec6.bc_q.value_b == pytest.approx(-3 * math.e)

    def test_matches_builtin(self, sixth_path):
        spec6 = load_sixth_order(sixth_path)
        built = gb.sixth_order_preset("example3")
        assert spec6.coeffs == built.coeffs
        assert spec6.forcing == built.forcing
        assert spec6.bc_p == built.bc_p
        assert spec6.bc_q.value_b == pytest.approx(built.bc_q.value_b)


class TestDumpProblem:
    def test_round_trip_through_text(self, tmp_path):
        spec = preset("example2")
        path = tmp_path / "dumped.prob"
        path.write_text(dump_problem(spec))
        again = load_problem(str(path))
        assert again.p_coeffs == spec.p_coeffs
        assert again.q_coeffs == spec.q_coeffs
        assert again.f == spec.f and again.g == spec.g
        assert again.m1 == spec.m1 and again.m2 == spec.m2
        assert again.bc_p == spec.bc_p and again.bc_q == spec.bc_q
        assert again.exact_p == spec.exact_p

    def test_numpy_boundary_data_round_trip(self, tmp_path):
        spec = preset("example1")
        bc = BoundaryData(np.float64(0.0), np.float64(0.0), "a", np.float64(0.0))
        numpy_spec = replace(spec, bc_p=bc, bc_q=bc)
        text = dump_problem(numpy_spec)
        assert "np.float64" not in text
        again = load_problem(write_problem(tmp_path, text, "numpy.prob"))
        assert again.bc_p == spec.bc_p and again.bc_q == spec.bc_q

    def test_derivative_at_b_round_trip(self, tmp_path):
        text = EXAMPLE1_FILE.replace("deriv_a = 0\n\n[bc.q]", "deriv_b = 0.5\n\n[bc.q]")
        spec = load_problem(write_problem(tmp_path, text, "deriv_b.prob"))
        assert spec.bc_p == BoundaryData(0.0, 0.0, "b", 0.5) and spec.bc_q.deriv_end == "a"
        dumped = dump_problem(spec)
        assert "deriv_b = 0.5\n" in dumped
        assert load_problem(write_problem(tmp_path, dumped, "again.prob")) == spec

    def test_bc_floats_survive_exactly(self, tmp_path):
        spec = preset("example3")
        path = tmp_path / "dumped.prob"
        path.write_text(dump_problem(spec))
        again = load_problem(str(path))
        assert again.bc_q.value_b == spec.bc_q.value_b  # bitwise


class TestPresets:
    def test_example2(self):
        spec = preset("example2")
        assert spec.bc_p.value_b == 1.0 and spec.bc_q.value_b == 1.0
        assert spec.bc_p.deriv_end == "a" and spec.bc_p.deriv_value == 0.0
        assert spec.f == gb.parse("36*x^4")
        assert spec.g == gb.parse("24*x^4 + 6")

    def test_example3_reduced_boundary_data(self):
        spec = preset("example3")
        assert spec.bc_p.value_a == 1.0 and spec.bc_p.value_b == 0.0
        assert spec.bc_q.value_a == -2.0
        assert spec.bc_q.value_b == pytest.approx(-3 * math.e)
        assert spec.bc_q.deriv_value == -3.0

    def test_example1_exact_expressions(self):
        spec = preset("example1")
        assert spec.exact_p == gb.parse("3*x^2 - 3*x^3")
        assert spec.exact_q == gb.parse("x^4 - x^2")

    def test_example4_boundary_data(self):
        spec = preset("example4")
        for bc in (spec.bc_p, spec.bc_q):
            assert bc.value_a == 1.0
            assert bc.value_b == pytest.approx(math.e)
            assert bc.deriv_end == "a" and bc.deriv_value == 1.0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            preset("example9")

    def test_coupled_preset_is_no_sixth_order_preset(self):
        with pytest.raises(ValueError, match="no sixth-order preset named 'example1'"):
            gb.sixth_order_preset("example1")


X = sp.Symbol("x")
SYMPY_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
SYMPY_FUNCS = {"exp": sp.exp, "sin": sp.sin, "cos": sp.cos, "ln": sp.log, "sqrt": sp.sqrt}


def to_sympy(e, env):
    """An expression AST as an exact sympy expression; env maps variable names."""
    if e is None:
        return sp.Integer(0)
    if isinstance(e, Num):
        return sp.Rational(e.value)
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Neg):
        return -to_sympy(e.operand, env)
    if isinstance(e, BinOp):
        lhs, rhs = to_sympy(e.left, env), to_sympy(e.right, env)
        return SYMPY_OPS[e.op](lhs, rhs)
    if isinstance(e, Pow):
        exponent = int(e.exponent) if float(e.exponent).is_integer() else sp.Rational(e.exponent)
        return to_sympy(e.base, env) ** exponent
    return SYMPY_FUNCS[e.func](to_sympy(e.arg, env))


@pytest.mark.parametrize("name", PRESETS)
class TestPresetsAgainstSympy:
    """The exact pair of each preset solves its own equations and boundary data.

    For the reduced sixth-order presets the p-equation is p''' - q = 0, so
    this also checks q = p'''.
    """

    def test_exact_pair_satisfies_both_equations(self, name):
        spec = preset(name)
        p = to_sympy(spec.exact_p, {"x": X})
        q = to_sympy(spec.exact_q, {"x": X})
        env = {"x": X, "p": p, "dp": p.diff(X), "d2p": p.diff(X, 2),
               "q": q, "dq": q.diff(X), "d2q": q.diff(X, 2)}
        for u, v, coeffs, m, forcing in ((p, q, spec.p_coeffs, spec.m1, spec.f),
                                         (q, p, spec.q_coeffs, spec.m2, spec.g)):
            terms = (u.diff(X, 2), u.diff(X), u, v.diff(X, 2), v.diff(X), v)
            residual = (u.diff(X, 3) + sum(to_sympy(c, env) * t for c, t in zip(coeffs, terms))
                        + to_sympy(m, env) - to_sympy(forcing, env))
            assert sp.simplify(residual) == 0

    def test_boundary_data_matches_exact_pair(self, name):
        spec = preset(name)
        a, b = (sp.Rational(end) for end in spec.domain)
        for exact, bc in ((spec.exact_p, spec.bc_p), (spec.exact_q, spec.bc_q)):
            u = to_sympy(exact, {"x": X})
            end = a if bc.deriv_end == "a" else b
            for given, value in ((bc.value_a, u.subs(X, a)), (bc.value_b, u.subs(X, b)),
                                 (bc.deriv_value, u.diff(X).subs(X, end))):
                assert math.isclose(given, float(value), rel_tol=1e-15, abs_tol=0.0)


class TestErrorTable:
    def test_unit_domain_grid_is_exact_tenths(self):
        assert sample_points((0.0, 1.0)) == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]

    def test_shape_and_signs(self):
        spec = preset("example1")
        sol = gb.picard_solve(spec, 3)
        table = error_table(spec, sol)
        assert len(table.xs) == 9
        assert all(e >= 0 for e in table.p_error)
        assert all(e >= 0 for e in table.q_error)

    def test_one_basis_table_per_report(self, monkeypatch):
        spec = preset("example2")
        sol = gb.picard_solve(spec, 12)
        calls = []
        original = gb.BernsteinBasis.interior_table

        def counting(self, x, order=0):
            calls.append(len(x))
            return original(self, x, order)

        monkeypatch.setattr(gb.BernsteinBasis, "interior_table", counting)
        table = error_table(spec, sol)
        samples = format_samples(sol, spec.domain, as_csv=True)
        assert calls == [9, 9]
        assert table.p_approx == sol.evaluate(table.xs, "p").tolist()
        assert table.q_approx == sol.evaluate(table.xs, "q").tolist()
        assert samples.splitlines()[1:] == [
            f"{x!r},{p!r},{q!r}" for x, p, q in zip(table.xs, table.p_approx, table.q_approx)
        ]

    def test_requires_exact_expressions(self):
        spec = preset("example1")
        bare = gb.ProblemSpec(
            domain=spec.domain, p_coeffs=spec.p_coeffs, q_coeffs=spec.q_coeffs,
            f=spec.f, g=spec.g, m2=spec.m2, bc_p=spec.bc_p, bc_q=spec.bc_q,
        )
        sol = gb.picard_solve(bare, 3)
        with pytest.raises(ValueError):
            error_table(bare, sol)


class TestRunSolve:
    def test_preset_table_output(self, capsys):
        status = run(["solve", "--preset", "example1", "--degree", "3", "--fixed-iters", "4"])
        out = capsys.readouterr().out
        assert status == 0
        lines = [ln for ln in out.splitlines() if ln.strip() and not ln.startswith("max")]
        assert len(lines) == 10  # header + 9 rows
        # replication at degree 3 sits at the benchmark error level ~2e-4
        max_line = [ln for ln in out.splitlines() if ln.startswith("max")][0]
        p_err = float(max_line.split("=")[1].split()[0])
        assert 1e-5 <= p_err <= 1e-3

    def test_csv_output_and_round_trip(self, tmp_path):
        out_path = tmp_path / "table.csv"
        status = run([
            "solve", "--preset", "example3", "--degree", "5",
            "--format", "csv", "--out", str(out_path),
        ])
        assert status == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "x,p_exact,p_approx,p_abs_err,q_exact,q_approx,q_abs_err"
        assert len(lines) == 10
        first = lines[1].split(",")
        assert float(first[0]) == 0.1
        assert float(first[1]) == pytest.approx(0.99465383, abs=5e-9)
        assert float(first[2]) == pytest.approx(0.99464299, abs=5e-6)
        assert float(first[3]) <= 4e-5
        # numeric fields round-trip exactly through their printed form
        for line in lines[1:]:
            for fieldtext in line.split(","):
                value = float(fieldtext)
                assert repr(value) == fieldtext

    def test_problem_file_solve(self, example1_path, capsys):
        status = run(["solve", example1_path, "--degree", "4"])
        assert status == 0
        assert "p exact" in capsys.readouterr().out

    def test_sweep(self, capsys):
        status = run(["solve", "--preset", "example1", "--sweep", "3..6"])
        captured = capsys.readouterr()
        assert status == 0
        assert "degree 5" in captured.err  # sweep stops once degrees agree

    def test_samples_without_exact(self, tmp_path, capsys):
        text = EXAMPLE1_FILE.split("[exact]")[0]
        path = write_problem(tmp_path, text, "noexact.prob")
        status = run(["solve", path, "--degree", "3"])
        out = capsys.readouterr().out
        assert status == 0
        assert "p approx" in out and "exact" not in out

    def test_conflicting_degree_flags(self):
        with pytest.raises(SystemExit):
            run(["solve", "--preset", "example1", "--degree", "3", "--sweep", "3..5"])

    def test_preset_and_file_conflict(self, example1_path, capsys):
        status = run(["solve", example1_path, "--preset", "example1"])
        assert status == 1
        assert "exactly one" in capsys.readouterr().err

    def test_neither_preset_nor_file(self, capsys):
        assert run(["solve"]) == 1

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            run(["solve", "--preset", "example9"])

    def test_unwritable_output_path(self, tmp_path, capsys):
        status = run([
            "solve", "--preset", "example1", "--degree", "3",
            "--out", str(tmp_path / "missing_dir" / "x.csv"),
        ])
        assert status == 1
        assert "error:" in capsys.readouterr().err

    def test_divergent_problem_exits_nonzero(self, tmp_path, capsys):
        text = EXAMPLE1_FILE.replace("1/6 * d2p * d2q", "20/6 * d2p * d2q")
        path = write_problem(tmp_path, text, "explosive.prob")
        status = run(["solve", path, "--degree", "3"])
        assert status == 1
        assert "diverged" in capsys.readouterr().err

    def test_overflowing_solve_is_one_error_line(self, tmp_path, capsys):
        text = ("[domain]\na = 0\nb = 1e6\n\n[equation.p]\nf = 1e295\n\n[equation.q]\n\n"
                "[bc.p]\nvalue_a = 0\nvalue_b = 0\nderiv_a = 0\n\n"
                "[bc.q]\nvalue_a = 0\nvalue_b = 0\nderiv_a = 0\n")
        path = write_problem(tmp_path, text, "overflow.prob")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = run(["solve", path, "--degree", "8"])
        captured = capsys.readouterr()
        assert status == 1 and captured.out == ""
        assert captured.err == "error: iterate became non-finite (after 0 iterations)\n"

    def test_domain_too_short_to_scale_is_one_error_line(self, tmp_path, capsys):
        text = (PROBLEMS_DIR / "example1.prob").read_text()
        assert text.count("[domain]\na = 0\nb = 1\n") == 1
        text = text.replace("[domain]\na = 0\nb = 1\n", "[domain]\na = 0\nb = 1e-160\n")
        path = write_problem(tmp_path, text, "short.prob")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = run(["solve", path, "--degree", "5"])
        captured = capsys.readouterr()
        assert status == 1 and captured.out == ""
        message = "error: domain (0.0, 1e-160) is too short: (b - a)^-2 overflows\n"
        assert captured.err == message

    @pytest.mark.parametrize("name, degree", [("example4", 25), ("example1", 27)])
    def test_replication_past_convergence_exits_zero(self, capsys, name, degree):
        status = run(["solve", "--preset", name, "--degree", str(degree), "--fixed-iters", "30"])
        assert status == 0
        assert f"degree {degree}, 30 iterations, converged=True" in capsys.readouterr().err

    def test_bad_sweep_spec(self, capsys):
        assert run(["solve", "--preset", "example1", "--sweep", "3-5"]) == 1

    def test_reversed_sweep_names_the_flag(self, capsys):
        assert run(["solve", "--preset", "example1", "--sweep", "12..3"]) == 1
        assert capsys.readouterr().err == "error: --sweep expects MIN <= MAX, got '12..3'\n"

    @pytest.mark.parametrize("text, message", [
        ("2..5", "--sweep expects MIN >= 3, got '2..5'"),
        ("0..0", "--sweep expects MIN >= 3, got '0..0'"),
        ("3..31", "--sweep expects MAX <= 30, got '3..31'"),
        ("31..40", "--sweep expects MAX <= 30, got '31..40'"),
    ])
    def test_sweep_bounds_name_the_flag(self, capsys, text, message):
        assert run(["solve", "--preset", "example1", "--sweep", text]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("section,key,raw", [
        ("bc.p", "value_b", "nan"), ("bc.q", "value_b", "nan"), ("bc.p", "value_a", "inf"),
        ("bc.p", "value_b", "-inf"), ("bc.q", "deriv_a", "nan"), ("domain", "b", "inf"),
    ])
    def test_non_finite_file_number_exits_with_its_field(self, tmp_path, capsys, section, key, raw):
        head, sep, tail = EXAMPLE1_FILE.partition(f"[{section}]\n")
        tail = re.sub(rf"^{key} = .*$", f"{key} = {raw}", tail, count=1, flags=re.M)
        path = write_problem(tmp_path, head + sep + tail, "nonfinite.prob")
        assert run(["solve", path, "--degree", "4"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [{section}] {key}: not a finite number: {raw!r}\n"

    def test_singular_system_exits_with_its_pivot(self, tmp_path, capsys):
        # a6 = 1e20 dwarfs the rest of K, so the first diagonal entry of its
        # R factor, the norm of K's first column, falls below the threshold
        text = (PROBLEMS_DIR / "example1.prob").read_text()
        assert text.count("a6 = x\n") == 1
        path = write_problem(tmp_path, text.replace("a6 = x\n", "a6 = 1e20\n"), "singular.prob")
        assert run(["solve", path, "--degree", "5"]) == 1
        message = "error: singular system: pivot 0 has magnitude 1.674e+01\n"
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("flag", ["--quad-order", "--grid"])
    def test_removed_discretization_flags_are_refused(self, capsys, flag):
        # a Gauss order below the degree can give a wrong answer with exit 0
        with pytest.raises(SystemExit) as info:
            run(["solve", "--preset", "example2", "--degree", "12", flag, "5"])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: unrecognized arguments: {flag}\n")

    @pytest.mark.parametrize("flags, message", [
        (["--degree", "5", "--tol-picard", "1e999"], "tolerances must be positive and finite"),
        (["--degree", "5", "--tol-picard", "inf"], "tolerances must be positive and finite"),
        (["--sweep", "3..12", "--tol-degree", "inf"], "tolerances must be positive and finite"),
    ])
    def test_vacuous_convergence_settings_rejected(self, capsys, flags, message):
        assert run(["solve", "--preset", "example1"] + flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_sweep_past_the_degree_cap_solves_nothing(self, capsys, monkeypatch):
        solved = []
        monkeypatch.setattr(gb.solver, "picard_solve", lambda *args: solved.append(args))
        status = run(["solve", "--preset", "example1", "--sweep", "3..40", "--tol-degree", "1e-30"])
        assert status == 1
        assert capsys.readouterr().err == "error: --sweep expects MAX <= 30, got '3..40'\n"
        assert solved == []

    @pytest.mark.parametrize("a6", [
        "(" * 200 + "x" + ")" * 200,
        "+".join(["x"] * 1200),
    ], ids=["200 parentheses", "1200-term sum"])
    def test_too_deep_expression_exits_with_its_field(self, tmp_path, capsys, a6):
        path = write_problem(tmp_path, EXAMPLE1_FILE.replace("a6 = x\n", f"a6 = {a6}\n"))
        assert run(["solve", path, "--degree", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [equation.p] a6: expression nested deeper than")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["solve", "--preset", "example2", "--degree", "12"],
        ["solve", "--preset", "example1", "--sweep", "3..12"],
    ])
    def test_one_workspace_and_assembly_per_degree_solved(self, capsys, monkeypatch, argv):
        # the residual check scores the solution on the system it was solved on
        built, assembled = [], []
        original_init, original_assemble = _Workspace.__init__, gb.assembly.assemble_linear

        def counting_init(self, *args, **kwargs):
            built.append(args)
            original_init(self, *args, **kwargs)

        def counting_assemble(*args, **kwargs):
            assembled.append(args)
            return original_assemble(*args, **kwargs)

        monkeypatch.setattr(_Workspace, "__init__", counting_init)
        for module in (gb.assembly, gb.solver):
            monkeypatch.setattr(module, "assemble_linear", counting_assemble)
        assert run(argv) == 0
        err = capsys.readouterr().err
        solved = len(re.findall(r"^degree \d+(?::|$)", err, flags=re.M)) or 1
        assert len(built) == len(assembled) == solved

    def test_residual_uses_the_solve_rule(self, capsys):
        # the printed residual is that of the reported solution, on the
        # discretization its degree fixes
        status = run(["solve", "--preset", "example1", "--degree", "5"])
        assert status == 0
        spec = preset("example1")
        res = gb.residual_norm(spec, gb.picard_solve(spec, 5))
        assert f"residual={res:.3e}" in capsys.readouterr().err

    def test_cold_solve_tabulates_each_point_set_once(self, capsys, monkeypatch):
        # the residual check reads the solve's cache entry: one table build
        # for nodes, ends and grid, then one Bernstein table for the 9
        # report points
        sizes = []
        original = gb.BernsteinBasis.interior_table

        def counting(self, x, order=0):
            sizes.append(np.size(x))
            return original(self, x, order)

        monkeypatch.setattr(gb.BernsteinBasis, "interior_table", counting)
        _reference_tables.cache_clear()
        assert run(["solve", "--preset", "example2", "--degree", "12"]) == 0
        assert sizes == [9]
        assert _reference_tables.cache_info().misses == 1
        assert _reference_tables.cache_info().currsize == 1

    def test_help_states_accepted_ranges(self, capsys):
        with pytest.raises(SystemExit):
            run(["solve", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "trial degree, 3 to 30" in text
        assert "within 3..30" in text
        assert text.count("positive and finite") == 2

    def test_parser_built_once(self, monkeypatch, capsys):
        def rebuilt():
            raise AssertionError("run rebuilt the argument parser")

        monkeypatch.setattr(gb.cli, "_build_argparser", rebuilt)
        assert run(["solve", "--preset", "example1", "--degree", "3"]) == 0
        assert capsys.readouterr().out

    def test_readme_synopsis_lists_the_solve_options(self, capsys):
        readme = (PROBLEMS_DIR.parent / "README.md").read_text()
        synopsis = re.search(r"^galbern solve .*?(?=^galbern reduce )", readme, re.M | re.S)
        with pytest.raises(SystemExit):
            run(["solve", "--help"])
        long_option = r"--[a-z][a-z-]*"
        helped = set(re.findall(long_option, capsys.readouterr().out)) - {"--help"}
        assert set(re.findall(long_option, synopsis.group(0))) == helped


class TestShippedProblemFiles:
    """The presets are read from the package-data path; these files are the
    same ones read at the repo root."""

    def test_package_data_is_the_root_copy(self):
        package_dir = Path(gb.cli.__file__).with_name("problems")
        shipped = sorted(path.name for path in PROBLEMS_DIR.glob("*.prob"))
        assert sorted(path.name for path in package_dir.glob("*.prob")) == shipped
        for name in shipped:
            assert (package_dir / name).read_bytes() == (PROBLEMS_DIR / name).read_bytes()

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_coupled_files_match_presets(self, name):
        spec = load_problem(str(PROBLEMS_DIR / f"{name}.prob"))
        built = preset(name)
        assert spec.p_coeffs == built.p_coeffs
        assert spec.q_coeffs == built.q_coeffs
        assert spec.f == built.f and spec.g == built.g
        assert spec.m1 == built.m1 and spec.m2 == built.m2
        assert spec.bc_p == built.bc_p and spec.bc_q == built.bc_q
        assert spec.exact_p == built.exact_p and spec.exact_q == built.exact_q
        assert spec == built

    @pytest.mark.parametrize(
        "filename,preset_name",
        [("sixth_order_linear.prob", "example3"), ("sixth_order_nonlinear.prob", "example4")],
    )
    def test_sixth_order_files_match_presets(self, filename, preset_name):
        spec6 = load_sixth_order(str(PROBLEMS_DIR / filename))
        built = gb.sixth_order_preset(preset_name)
        assert spec6.coeffs == built.coeffs
        assert spec6.forcing == built.forcing
        assert spec6.nonlinear == built.nonlinear
        assert spec6.bc_p == built.bc_p
        assert spec6.bc_q.value_a == built.bc_q.value_a
        assert spec6.bc_q.value_b == pytest.approx(built.bc_q.value_b, abs=1e-15)
        assert spec6.exact_p == built.exact_p
        assert spec6 == built


class TestRunReduce:
    def test_reduce_prints_loadable_problem(self, sixth_path, tmp_path, capsys):
        status = run(["reduce", sixth_path])
        out = capsys.readouterr().out
        assert status == 0
        reduced_path = tmp_path / "reduced.prob"
        reduced_path.write_text(out)
        spec = load_problem(str(reduced_path))
        built = preset("example3")
        assert spec.p_coeffs == built.p_coeffs
        assert spec.q_coeffs == built.q_coeffs
        assert spec.g == built.g
        assert spec.bc_q.value_b == pytest.approx(built.bc_q.value_b)

    def test_reduced_file_solves_like_the_preset(self, sixth_path, tmp_path):
        run(["reduce", sixth_path, "--out", str(tmp_path / "reduced.prob")])
        spec = load_problem(str(tmp_path / "reduced.prob"))
        sol = gb.picard_solve(spec, 5)
        xs = np.linspace(0, 1, 101)
        exact = (1 - xs) * np.exp(xs)
        assert np.max(np.abs(exact - sol.evaluate(xs, "p"))) <= 4e-5


class TestModuleEntryPoint:
    def test_main_takes_an_argument_list(self, capsys):
        assert gb.cli.main(["solve", "--preset", "example1", "--degree", "4"]) == 0
        assert "p exact" in capsys.readouterr().out

    def test_run_module_exits_with_the_status(self, monkeypatch, capsys):
        argv = ["galbern", "solve", "--preset", "example3", "--degree", "5"]
        monkeypatch.setattr(sys, "argv", argv)
        monkeypatch.delitem(sys.modules, "galbern.__main__", raising=False)
        with pytest.raises(SystemExit) as info:
            runpy.run_module("galbern", run_name="__main__")
        assert info.value.code == 0
        assert "p exact" in capsys.readouterr().out

    def test_python_dash_m_galbern_runs_without_warnings(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "galbern", "--help"],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "solve" in proc.stdout and not proc.stderr

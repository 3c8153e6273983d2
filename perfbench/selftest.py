"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, from the root of a source checkout:
  1. the tracer rebinds a function at every import site and restores it, and
     reports a target that does not exist as a missing layer;
  2. a traced run of each workload answers bit-identically to its untraced
     reference (run.py sets ``correct`` false otherwise), and every wrapped
     layer is reached by at least one workload;
  3. the long-domain generator's forcings and boundary data agree with sympy,
     and every generated instance of a range of seeds converges within the
     iteration budget and the workload's error tolerance.
Exits 1 when any check fails.
"""

import json
import subprocess
import sys

import run  # first: pins BLAS threads before numpy is imported
import longdomain
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, LongDomain, check_solution

SEEDS = range(5)
BLOCKS = range(-1, 4)


def check_tracer(gb, faults):
    original = gb.assembly.assemble_linear
    tracer = Tracer({**LAYERS, "solver.renamed": ("galbern.solver", ("no_such_function",))})
    tracer.install()
    try:
        sites = (gb.assembly.assemble_linear, gb.solver.assemble_linear, gb.assemble_linear)
        if any(site is original or getattr(site, "__wrapped__", None) is not original
               for site in sites):
            faults.append("assemble_linear not wrapped at every import site")
        if not any(entry.startswith("solver.renamed") for entry in tracer.missing):
            faults.append("a missing target was not reported")
        if "solver.renamed" in tracer.layer_totals():
            faults.append("a missing layer was given a value")
    finally:
        tracer.uninstall()
    if not (gb.assembly.assemble_linear is original and gb.solver.assemble_linear is original):
        faults.append("uninstall did not restore assemble_linear")


def check_traced_runs(faults):
    reached = {layer: 0.0 for layer in LAYERS}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", name,
             "--seed", "0", "--seconds", "1", "--trace", "1"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            faults.append(f"{name}: traced run exited {proc.returncode}: {proc.stderr[-300:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            faults.append(f"{name}: traced run not correct: {proc.stderr[-300:]}")
        if result["metrics"]["trace.missing_layers"]["value"]:
            faults.append(f"{name}: missing layers: {proc.stderr[-300:]}")
        for layer in LAYERS:
            reached[layer] = max(reached[layer], result["metrics"][f"{layer}.calls"]["value"])
        print(f"{name}: traced run correct={result['correct']}")
    for layer, calls in reached.items():
        if calls <= 0:
            faults.append(f"layer {layer} reached by no workload")


def check_generator(gb, faults):
    problems = sorted({p for seed in SEEDS for k in BLOCKS for p in longdomain.block(seed, k)})
    faults.extend(longdomain.verify_with_sympy(problems))
    iters = []
    path = run.WORK / "selftest.prob"
    path.parent.mkdir(parents=True, exist_ok=True)
    for a, b, deriv_end, degree in problems:
        path.write_text(longdomain.problem_text(a, b, deriv_end))
        label = f"[{a}, {b}] deriv_{deriv_end} degree {degree}"
        try:
            sol = gb.picard_solve(gb.load_problem(str(path)), degree)
        except gb.GalbernError as err:
            faults.append(f"long-domain {label}: {err}")
            continue
        outcome = check_solution(sol, (a, b), longdomain.exact, LongDomain.TOL)
        iters.append(sol.iterations_used)
        if not outcome.ok:
            faults.append(f"long-domain {label}: {outcome.note}")
    path.unlink(missing_ok=True)
    span = f", iterations {min(iters)}..{max(iters)}" if iters else ""
    print(f"long-domain generator: {len(problems)} instances, {len(iters)} solved{span}")


def main():
    gb = run.import_program()
    faults = []
    check_tracer(gb, faults)
    check_generator(gb, faults)
    check_traced_runs(faults)
    for fault in faults:
        print(f"FAIL: {fault}")
    print("selftest", "failed" if faults else "passed")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())

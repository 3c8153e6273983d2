"""Outside-in span tracer for the galbern layers.

The tracer wraps public functions of the package from outside: it replaces
each function at every place it is bound (the defining module, every
``galbern.*`` module that imported it by name, and the package namespace),
and each method on its class.  Nothing in the package is edited.

Spans are kept in memory as flat integer arrays and written out once, by
``write``, as one .npz file.  A span's self time is its duration minus the durations of its
direct child spans.  A call of a layer made while the same layer is already
open (``expr.evaluate`` recursing through its module global) belongs to the
outer span and is not counted again.

A target that cannot be resolved is reported in ``missing``; its metrics are
never reported as a plain zero.
"""

import importlib
import json
import sys
import time
from array import array

# layer name -> (module, attribute paths); several paths share one layer
LAYERS = {
    "quadrature.gauss_legendre": ("galbern.quadrature", ("gauss_legendre",)),
    "basis.interior_table": ("galbern.basis", ("BernsteinBasis.interior_table",)),
    "basis.eval_deriv": ("galbern.basis", ("BernsteinBasis.eval_deriv",)),
    "expr.evaluate": ("galbern.expr", ("evaluate",)),
    "expr.parse": ("galbern.expr", ("parse",)),
    "assembly.assemble_linear": ("galbern.assembly", ("assemble_linear",)),
    "assembly.assemble_nonlinear_rhs": ("galbern.assembly", ("assemble_nonlinear_rhs",)),
    "assembly.residual_norm": ("galbern.assembly", ("residual_norm",)),
    "solver.solve_dense": ("galbern.solver", ("solve_dense",)),
    "solver.Solution.evaluate": ("galbern.solver", ("Solution.evaluate",)),
    "solver.picard_solve": ("galbern.solver", ("picard_solve",)),
    "solver.refine_solve": ("galbern.solver", ("refine_solve",)),
    "reduction.reduce": ("galbern.reduction", ("reduce",)),
    "cli.load_problem": ("galbern.cli", ("load_problem",)),
    "cli.report": (
        "galbern.cli",
        ("error_table", "format_table", "format_csv", "format_samples"),
    ),
}

REQUEST = "request"
ITERS = "solver.picard_iters (Solution.iterations_used)"


class Tracer:
    """Records spans of the wrapped layers while ``active`` is set.

    Use ``install`` before the traced requests and ``uninstall`` after; the
    wrappers pass straight through whenever ``active`` is false.
    """

    def __init__(self, layers=LAYERS):
        self.layers = dict(layers)
        self.names = [REQUEST] + list(self.layers)
        self._ids = {name: k for k, name in enumerate(self.names)}
        self._missing_targets = []  # found by the latest install
        self._unreadable = []  # results the tracer could not read
        self._resolved = {name: 0 for name in self.layers}
        self.active = False
        self.request = -1
        self._patches = []  # (owner, attribute, original)
        self._open = [0] * len(self.names)
        self._stack = []  # [layer id, start ns, child ns, span index]
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.picard_iters = 0
        self.span_layer = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_request = array("q")

    @property
    def missing(self):
        """Targets that could not be wrapped, and counts that could not be read."""
        return self._missing_targets + self._unreadable

    # -- patching ---------------------------------------------------------

    def install(self):
        """Wrap every resolvable target; unresolvable ones go to ``missing``."""
        self._missing_targets = []
        self._resolved = {name: 0 for name in self.layers}
        for layer, (module_name, paths) in self.layers.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self._missing_targets.append(f"{layer} ({module_name})")
                continue
            for path in paths:
                owner, attr = module, path
                if "." in path:
                    cls_name, attr = path.split(".", 1)
                    owner = getattr(module, cls_name, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    self._missing_targets.append(f"{layer} ({module_name}.{path})")
                    continue
                wrapper = self._wrap(self._ids[layer], original, layer == "solver.picard_solve")
                self._resolved[layer] += 1
                if owner is module:
                    self._rebind_everywhere(original, wrapper)
                else:
                    self._patch(owner, attr, wrapper)

    def _rebind_everywhere(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "galbern" or name.startswith("galbern.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Restore every patched binding."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- spans ------------------------------------------------------------

    def _wrap(self, layer_id, fn, counts_iterations):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active or tracer._open[layer_id]:
                return fn(*args, **kwargs)
            tracer._begin(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end()
            if counts_iterations:
                iters = getattr(result, "iterations_used", None)
                if iters is not None:
                    tracer.picard_iters += iters
                elif ITERS not in tracer._unreadable:  # must not read as zero iterations
                    tracer._unreadable.append(ITERS)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _begin(self, layer_id):
        parent = self._stack[-1][3] if self._stack else -1
        index = len(self.span_layer)
        self.span_layer.append(layer_id)
        self.span_start.append(0)
        self.span_end.append(0)
        self.span_parent.append(parent)
        self.span_request.append(self.request)
        self._open[layer_id] += 1
        start = time.perf_counter_ns()
        self.span_start[index] = start
        self._stack.append([layer_id, start, 0, index])

    def _end(self):
        end = time.perf_counter_ns()
        layer_id, start, child_ns, index = self._stack.pop()
        self._open[layer_id] -= 1
        duration = end - start
        self.span_end[index] = end
        self.calls[layer_id] += 1
        self.self_ns[layer_id] += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration

    def begin_request(self, index):
        """Open the root span of one request and start recording."""
        self.request = index
        self.active = True
        self._begin(0)

    def end_request(self):
        """Close the root span of the current request and stop recording."""
        self._end()
        self.active = False

    # -- output -----------------------------------------------------------

    def layer_totals(self):
        """{layer: (calls, self ms)} for every layer with a wrapped function."""
        return {
            name: (self.calls[k], self.self_ns[k] / 1e6)
            for k, name in enumerate(self.names)
            if k > 0 and self._resolved[name]
        }

    def write(self, path, meta):
        """Write all spans to one .npz file.

        Arrays ``request``, ``layer`` (index into ``layers``), ``parent`` (span
        index, -1 for a root), ``start_ns`` and ``end_ns`` hold one entry per
        span; ``meta`` is a JSON string.
        """
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            meta=json.dumps(meta),
            layers=np.array(self.names),
            request=np.frombuffer(self.span_request, dtype=np.int64),
            layer=np.frombuffer(self.span_layer, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )

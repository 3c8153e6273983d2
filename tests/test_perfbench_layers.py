"""Every layer the benchmark tracer wraps still exists in the package.

perfbench/tracer.py names its layers as (module, attribute paths) in LAYERS.
The dict is read from the source with ast, so nothing there is imported or
written; a renamed function then fails here rather than showing up as a
missing layer in a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {TRACER}")


LAYERS = _layers()


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_layer_resolves(layer):
    module_name, paths = LAYERS[layer]
    module = importlib.import_module(module_name)
    for path in paths:
        target = module
        for attr in path.split("."):
            target = getattr(target, attr, None)
        assert callable(target), f"{layer}: {module_name}.{path} does not resolve"

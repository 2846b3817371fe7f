"""The benchmark tracer's layer names must name functions that exist.

``perfbench/spans.py`` wraps each ``<module>.<function>`` in ``LAYERS``; a
refactor that renames or deletes one of them fails here, in the unit suite,
instead of in a traced benchmark run.  The list is read from the file's
source so that nothing in the benchmark is imported or run.
"""
import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layers():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} assigns no LAYERS")


@pytest.mark.parametrize("layer", _layers())
def test_traced_layer_resolves(layer):
    module, function = layer.split(".")
    assert callable(getattr(importlib.import_module(f"geodens.{module}"), function, None))

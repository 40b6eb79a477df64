"""The benchmark traces package functions by name; every name must exist.

The names are read from the tracer's source, so nothing is installed and no
benchmark code runs.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_functions() -> dict:
    """The ``TRACED`` dict of the tracer: module -> function names."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED dict in {TRACER}")


def test_every_traced_function_exists():
    traced = traced_functions()
    assert sum(len(fns) for fns in traced.values()) > 0
    missing = [
        f"g2lab.{mod}.{fn}"
        for mod, fns in traced.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"g2lab.{mod}"), fn, None))
    ]
    assert missing == []

"""The package judges every relative check through one function."""

import ast
import math
import pathlib

from g2lab._linalg import bound

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "g2lab"


def _unit_floors(tree: ast.AST):
    """(enclosing function, line) of every max(..., 1.0) call in a module."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "max"
            and any(
                isinstance(a, ast.Constant) and type(a.value) in (int, float) and a.value == 1
                for a in node.args
            )
        ):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_unit_floor_only_in_bound():
    sites = {
        path.name: _unit_floors(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
    }
    assert [func for func, _ in sites.pop("_linalg.py")] == ["bound"]
    assert {name: found for name, found in sites.items() if found} == {}


def test_the_guard_sees_a_hand_built_floor():
    tree = ast.parse("def gate(r, s):\n    return r <= 1e-9 * max(s, 1.0) and max(1, s)\n")
    assert _unit_floors(tree) == [("gate", 2), ("gate", 2)]


def test_bound():
    assert bound(1e-9) == 1e-9
    assert bound(1e-9, 0.5) == 1e-9
    assert bound(1e-9, 40.0) == 1e-9 * 40.0
    assert bound(0.0, 1e6) == 0.0
    assert math.isnan(bound(1e-9, math.nan))
    assert not math.nan <= bound(1e-9, 2.0)

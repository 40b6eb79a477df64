"""The package judges every relative check through one function."""

import ast
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from g2lab._linalg import bound, max_abs

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


def _least_squares_calls(tree: ast.AST):
    """Lines of every call of `lstsq` in a module, as `np.linalg.lstsq(...)`
    or as a bare `lstsq(...)`."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Attribute) and node.func.attr == "lstsq")
            or (isinstance(node.func, ast.Name) and node.func.id == "lstsq")
        )
    ]


def test_no_least_squares_fit_in_the_package():
    # tables are derived from the form calculus, not fitted
    sites = {
        path.name: _least_squares_calls(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: found for name, found in sites.items() if found} == {}


def test_the_guard_sees_a_hand_written_fit():
    tree = ast.parse(
        "import numpy as np\nfrom numpy.linalg import lstsq\n"
        "def fit(a, b):\n    return np.linalg.lstsq(a, b, rcond=None)[0] + lstsq(a, b)[0]\n"
    )
    assert _least_squares_calls(tree) == [4, 4]


def test_bound():
    assert bound(1e-9) == 1e-9
    assert bound(1e-9, 0.5) == 1e-9
    assert bound(1e-9, 40.0) == 1e-9 * 40.0
    assert bound(0.0, 1e6) == 0.0
    assert math.isnan(bound(1e-9, math.nan))
    assert not math.nan <= bound(1e-9, 2.0)


@pytest.mark.parametrize("where", [0, 1, 2])
def test_max_abs_contract(where):
    arrays = [np.array([1e-13, -2.0]), np.zeros((3, 3)), [0.5]]
    assert max_abs(*arrays) == 2.0
    # a NaN in the first, a middle or the last array gives NaN
    arrays[where] = np.array([0.0, np.nan, 1.0])
    assert math.isnan(max_abs(*arrays))
    # empty arrays give 0.0, and nothing at all does too
    for empty in ((), (np.zeros(0),), (np.zeros((0, 3)), [])):
        got = max_abs(*empty)
        assert got == 0.0 and type(got) is float
    # lists, scalars and Fraction object arrays, as plain floats
    fractions = np.array([Fraction(-7, 2), Fraction(1, 3)], dtype=object)
    for args, want in (
        (([1, -3],), 3.0),
        ((-2.5,), 2.5),
        ((fractions,), 3.5),
        ((np.array([1.0]), fractions, 4), 4.0),
    ):
        got = max_abs(*args)
        assert got == want and type(got) is float, args
    assert math.isnan(max_abs(np.array([Fraction(1), math.nan], dtype=object)))
    # -0.0 gives 0.0
    for args in ((np.array([-0.0]),), (-0.0, np.array([-0.0]))):
        assert math.copysign(1.0, max_abs(*args)) == 1.0

"""Every cached constant table is built by `_linalg.table` and is read-only.

A table is shared by every caller of its builder, so a write into one would
change every later result: `p = projector_matrix(3, 27); p *= 2` once
turned the next `analyze` of Bryant's example from PASS to FAIL.
"""

import ast
import importlib
import numbers
import pathlib
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

import numpy as np
import pytest

from g2lab._linalg import frozen, table
from g2lab.curvature import CurvatureTensor
from g2lab.exterior_algebra import DIM, Form, phi_arrays
from g2lab.g2_algebra import projector_matrix
from g2lab.homogeneous import analyze, builtin_examples

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "g2lab"

MODES = [(False,), (True,)]
DEGREES = [(k,) for k in range(DIM + 1)]
#: (ka, kb) with ka + kb <= 7, the degrees the wedge table takes
WEDGE_DEGREES = [(ka, kb) for ka in range(DIM + 1) for kb in range(DIM + 1 - ka)]
#: the degree tuples of the alternation and connection tables: one form of
#: each degree, and the four forms of the canonical-connection pass
PASS_DEGREES = [((k,),) for k in range(DIM + 1)] + [((3, 2, 2, 3),)]

#: every `table` builder of the package, by module and name, with the
#: arguments the package calls it with
BUILDERS = {
    "_linalg.identity": [(DIM, False), (DIM, True)],
    "exterior_algebra._wedge_table": WEDGE_DEGREES,
    "exterior_algebra._alternation_table": PASS_DEGREES[:DIM] + PASS_DEGREES[-1:],
    "exterior_algebra._derivation_table": [(k, r) for r in (1, 2) for k in range(DIM + 2 - r)],
    "exterior_algebra._connection_table": PASS_DEGREES,
    "exterior_algebra.wedge_phi_matrix": [(k,) for k in range(5)],
    "exterior_algebra._hodge_gather": DEGREES,
    "exterior_algebra._frame_interior_table": DEGREES[1:],
    "exterior_algebra._contract_table": [(ka, kb) for kb in range(DIM + 1) for ka in range(kb + 1)],
    "exterior_algebra._antisym_table": DEGREES,
    "exterior_algebra.phi_coefficients": [()],
    "exterior_algebra._phi_templates": MODES,
    "exterior_algebra._phi_component_arrays": MODES,
    "g2_algebra._projectors": MODES,
    "g2_algebra.iphi_matrix": [()],
    "g2_algebra._lambda3_matrix": MODES,
    "g2_algebra._odot_table": [(2, 3), (3, 3)],
    "g2_algebra._quad_tables": [()],
    "g2_algebra._split_v14_tables": MODES,
    "curvature._bianchi_table": [()],
    "curvature._contraction_table": [()],
    "curvature._pair_table": [()],
    "curvature._iphi_matrix": MODES,
    "curvature._kn_table": [()],
    "curvature._kn_metric": MODES,
    "curvature._phi_product_table": [()],
    "curvature._block_table": [()],
    "curvature._decompose_tables": MODES,
    "torsion._wedge_starphi": [()],
    "torsion._structure_tables": MODES,
    "torsion._intrinsic_table": MODES,
    "torsion._one": MODES,
    "torsion._ricci_pass": [()],
    "torsion._conversion_pass": [()],
    "torsion._conversion_weights": MODES,
    "homogeneous._d_table": [()],
    "homogeneous._closed_ricci_weights": MODES,
    "homogeneous._lambda3_1_7": MODES,
    "homogeneous._term2_entries": [()],
    "cohomo_one._nearly_kahler_tables": [()],
    "cohomo_one._flag_tables": [()],
}


def _builder(name: str):
    module, func = name.split(".")
    return getattr(importlib.import_module(f"g2lab.{module}"), func)


def _writable_parts(value, path="result", seen=None) -> list:
    """The paths of every writable ndarray, list and mutable mapping
    reachable from value through containers and object attributes."""
    seen = set() if seen is None else seen
    if id(value) in seen or isinstance(value, (numbers.Number, str, slice, type(None))):
        return []
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        found = [path] if value.flags.writeable else []
        if value.dtype == object:
            for i, v in enumerate(value.reshape(-1)):
                found += _writable_parts(v, f"{path}.flat[{i}]", seen)
        return found
    if isinstance(value, Mapping):
        found = [] if isinstance(value, MappingProxyType) else [path]
        for k, v in value.items():
            found += _writable_parts(v, f"{path}[{k!r}]", seen)
        return found
    if isinstance(value, (tuple, list)):
        found = [path] if isinstance(value, list) else []
        for i, v in enumerate(value):
            found += _writable_parts(v, f"{path}[{i}]", seen)
        return found
    slots = getattr(type(value), "__slots__", ())
    attrs = {name: getattr(value, name, None) for name in slots if name != "__dict__"}
    attrs.update(getattr(value, "__dict__", {}))
    found = []
    for name, v in attrs.items():
        found += _writable_parts(v, f"{path}.{name}", seen)
    return found


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_table_is_read_only(name):
    builder = _builder(name)
    for args in BUILDERS[name]:
        got = builder(*args)
        assert _writable_parts(got) == [], (name, args)
        assert builder(*args) is got  # built once, then shared


@pytest.mark.parametrize(
    "name",
    [
        "cohomo_one.LEIBNIZ",
        "homogeneous._PAIR_IJ",
        "homogeneous._GG_ENTRIES",
        "homogeneous._K",
        "homogeneous._NOT_TAU2",
        "homogeneous.CHECKS",
        "torsion._RICCI_COEFFS",
    ],
)
def test_module_tables_are_read_only(name):
    module, constant = name.split(".")
    assert _writable_parts(getattr(importlib.import_module(f"g2lab.{module}"), constant)) == []


def _table_builders(tree: ast.AST, module: str) -> set:
    """module.name of every function decorated with `table`."""
    return {
        f"{module}.{node.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(d, ast.Name) and d.id == "table" for d in node.decorator_list)
    }


def test_the_builder_list_is_every_table_of_the_package():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _table_builders(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == set(BUILDERS)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_a_shared_projector_cannot_be_scaled(exact):
    p = projector_matrix(3, 27, exact)
    with pytest.raises(ValueError):
        p *= 2
    bryant = builtin_examples(exact)["bryant"]["spec"]
    assert analyze(bryant).passed


def test_phi_arrays_cannot_be_written():
    for exact in (False, True):
        p3, p4 = phi_arrays(exact)
        with pytest.raises(ValueError):
            p3[0, 1, 6] = 0
        with pytest.raises(ValueError):
            p4[...] = 0
    assert phi_arrays()[0][0, 1, 6] == 1.0


class _Pair(NamedTuple):
    first: object
    second: object


def test_frozen_reaches_every_array():
    form, curvature = Form.zero(2), CurvatureTensor(np.zeros((21, 21)))
    value = frozen(_Pair({"a": [np.zeros(2), (np.ones(1),)]}, (form, curvature)))
    assert type(value) is _Pair and isinstance(value.first, MappingProxyType)
    assert type(value.first["a"]) is tuple and value.second[0] is form
    assert _writable_parts(value) == []
    assert not (form.coeffs.flags.writeable or curvature.mat.flags.writeable)


def test_table_is_a_cache_of_frozen_builds():
    calls = []

    @table
    def build(n, exact=False):
        """A test table."""
        calls.append((n, exact))
        return {"m": np.zeros(n)}

    first = build(2)
    assert build(2) is first and calls == [(2, False)]
    assert build.__doc__ == "A test table." and build.__name__ == "build"
    fresh = build.__wrapped__(2)  # the uncached build, frozen as well
    assert fresh is not first and _writable_parts(fresh) == []
    build.cache_clear()
    assert build(2) is not first and len(calls) == 3


# --- the policy: only `_linalg` freezes, and only `table` caches -------------------


def _hand_freezes(tree: ast.AST) -> list:
    """Lines that set ``flags.writeable``, call ``setflags`` with a write flag
    or use `MappingProxyType`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "writeable" and isinstance(node.ctx, ast.Store):
            found.add(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "setflags"
            and (node.args or any(k.arg == "write" for k in node.keywords))
        ):
            found.add(node.lineno)
        elif "MappingProxyType" in (getattr(node, "id", None), getattr(node, "attr", None)):
            found.add(node.lineno)
    return sorted(found)


_CACHES = ("cache", "lru_cache")


def _caches(tree: ast.AST) -> list:
    """Each use of `functools.cache` or `functools.lru_cache`: the name of
    the function it decorates, else its line."""
    decorated = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for d in node.decorator_list:
                decorated.update((id(sub), node.name) for sub in ast.walk(d))
    return [
        decorated.get(id(node), f"line {node.lineno}")
        for node in ast.walk(tree)
        if (isinstance(node, ast.alias) and node.name in _CACHES)
        or (
            isinstance(node, ast.Attribute)
            and node.attr in _CACHES
            and getattr(node.value, "id", None) == "functools"
        )
    ]


def _sites(finder) -> dict:
    return {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if (found := finder(ast.parse(path.read_text(encoding="utf-8"))))
    }


def test_only_linalg_freezes():
    assert list(_sites(_hand_freezes)) == ["_linalg.py"]  # in `frozen`


def test_only_table_caches_bar_two():
    # the parser is not a table, and the Ricci weight stack's key holds the
    # caller's k, so its cache is bounded
    assert _sites(_caches) == {
        "_linalg.py": ["build"],  # in `table`
        "cli.py": ["build_parser"],
        "torsion.py": ["_ricci_stack"],
    }


def test_the_guards_see_hand_written_freezes_and_caches():
    snippet = """
import functools
from functools import lru_cache
from types import MappingProxyType

@functools.cache
def build():
    m = np.zeros(3)
    m.flags.writeable = False
    m.setflags(write=False)
    m.setflags(False)
    return MappingProxyType({"m": m}), map(types.MappingProxyType, ({},))

@functools.lru_cache(maxsize=4)
def bounded(k):
    return k

shared = functools.cache(bounded)
"""
    tree = ast.parse(snippet)
    assert _hand_freezes(tree) == [9, 10, 11, 12]
    assert sorted(_caches(tree)) == ["bounded", "build", "line 18", "line 3"]
    reads = "x.flags.aligned = False\ny.setflags(align=False)\nz = x.flags.writeable\n"
    assert _hand_freezes(ast.parse(reads)) == []

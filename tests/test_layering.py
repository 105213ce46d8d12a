"""Modules of the package use one another only through public names, and
nothing outside the standard library but numpy.

A module that imports or dereferences another module's ``_private`` name
depends on that module's internals; such a helper is either made public or
its job moves behind a public function of its own module.  numpy is the
package's only declared dependency.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "saddlebos"
MODULES = sorted(PACKAGE.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _package_module(node: ast.ImportFrom) -> str | None:
    """Short name of the package module a ``from ... import`` reads, or
    ``""`` for the package itself; None for other packages."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "saddlebos":
        return node.module.partition(".")[2]
    return None


def private_uses(tree: ast.AST) -> list[str]:
    """``module._name`` for each private name of another package module that
    ``tree`` imports or reads as a module attribute, in source order."""
    module_aliases = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("saddlebos.") and alias.asname:
                    module_aliases[alias.asname] = alias.name.partition(".")[2]
        elif isinstance(node, ast.ImportFrom):
            source = _package_module(node)
            if source is None:
                continue
            for alias in node.names:
                if source == "":  # from . import metrics as mt
                    module_aliases[alias.asname or alias.name] = alias.name
                elif _is_private(alias.name):
                    found.append((node.lineno, f"{source}.{alias.name}"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_aliases
            and _is_private(node.attr)
        ):
            found.append((node.lineno, f"{module_aliases[node.value.id]}.{node.attr}"))
    return [name for _, name in sorted(found)]


def test_checker_finds_private_imports_and_attributes():
    source = (
        "from . import metrics as mt\n"
        "from .geometry import BosBoundary, _continuous_shape\n"
        "import saddlebos.oracle as orc\n"
        "from numpy import _private_numpy_name\n"
        "mt._outer_border_indices(mt.outer_border, orc._distance_to_edges, self._shape)\n"
    )
    assert private_uses(ast.parse(source)) == [
        "geometry._continuous_shape",
        "metrics._outer_border_indices",
        "oracle._distance_to_edges",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_private_names_across_modules(path):
    assert private_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


ALLOWED_TOP_LEVEL = sys.stdlib_module_names | {"numpy", "saddlebos"}


def foreign_imports(tree: ast.AST) -> list[str]:
    """Modules that ``tree`` imports from outside the standard library,
    numpy and the package itself, in source order."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append((node.lineno, node.module))
    return [name for _, name in sorted(names) if name.split(".")[0] not in ALLOWED_TOP_LEVEL]


def test_checker_finds_foreign_imports():
    source = (
        "import math, numpy as np\n"
        "from scipy.spatial import cKDTree\n"
        "from . import geometry\n"
        "from saddlebos.errors import SaddleBosError\n"
        "def f():\n"
        "    import pandas\n"
    )
    assert foreign_imports(ast.parse(source)) == ["scipy.spatial", "pandas"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_imports_only_stdlib_and_numpy(path):
    assert foreign_imports(ast.parse(path.read_text(encoding="utf-8"))) == []

"""Every name a module under src/avcs imports is used in that module, no
module imports a sibling's private name, and the two group backends
expose the same multiplication API.

The first check skips ``__init__.py``: its imports are the package's
re-exports.
"""

import ast
import inspect
from pathlib import Path

import pytest

from avcs.groups import CurveGroup, ToyGroup

SRC = Path(__file__).resolve().parent.parent / "src" / "avcs"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


def private_crossings(tree):
    """Private names a module takes from a sibling: imported by name, or
    read off a sibling module that is imported whole."""
    siblings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("avcs")):
            for alias in node.names:
                if node.module in (None, "avcs"):  # from . import transient
                    siblings.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    yield f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")):
            yield f"{node.value.id}.{node.attr}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_crosses_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert list(private_crossings(tree)) == []


MULTIPLICATION_API = ("scalar_mul", "generator_muls", "prepare", "multi_mul", "multi_muls",
                      "fixed_multi_mul", "fixed_multi_muls", "sum_points", "subset_sums", "add")


@pytest.mark.parametrize("name", MULTIPLICATION_API)
def test_toy_group_mirrors_the_curve_multiplication_api(name):
    # the toy group is the tests' oracle for the curves: a method one of
    # them lacks, or takes under other parameters, would split the two
    toy, curve = ([(p.name, p.default) for p in inspect.signature(getattr(cls, name)).parameters.values()]
                  for cls in (ToyGroup, CurveGroup))
    assert toy == curve

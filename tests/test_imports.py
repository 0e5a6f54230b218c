"""Every name a module under src/avcs imports is used in that module, no
module imports a sibling's private name or reads another module's
private attribute, every ``__all__`` entry names what its module
defines, and the two group backends expose the same public methods.

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


def defined_names(tree):
    """Every name a module's classes and functions define: their own names
    and the attributes they store, each class-private ``__name`` also in
    its mangled form ``_Class__name``."""
    names = set()
    for scope in [tree] + [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]:
        for node in ast.walk(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                name = node.attr
            else:
                continue
            names.add(name)
            if scope is not tree and name.startswith("__") and not name.endswith("__"):
                names.add(f"_{scope.name.lstrip('_')}{name}")
    return names


def private_crossings(tree):
    """Private names a module takes from elsewhere: imported by name, read
    off a sibling module that is imported whole, or read as an attribute
    of anything but ``self`` or ``cls`` when the module defines no such
    name itself."""
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
    defined = defined_names(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.endswith("__") and node.attr not in defined
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
            yield ast.unparse(node)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_crosses_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert list(private_crossings(tree)) == []


def exports_and_definitions(tree, package: bool):
    """A module's ``__all__`` entries (none if it has no ``__all__``), and
    the names it defines at its top level: its functions, classes and
    assignment targets, and for the package its imports, which are its
    re-exports."""
    exports, defined = [], set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    exports = ast.literal_eval(node.value)
                defined.update(name.id for name in ast.walk(target) if isinstance(name, ast.Name))
        elif package and isinstance(node, ast.ImportFrom):
            defined.update(alias.asname or alias.name for alias in node.names)
    return exports, defined


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_all_entry_names_a_definition(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exports, defined = exports_and_definitions(tree, package=path.name == "__init__.py")
    assert sorted(set(exports) - defined) == []
    assert len(exports) == len(set(exports))


GROUP_API = sorted(name for name, value in vars(CurveGroup).items()
                   if not name.startswith("_") and inspect.isfunction(value))


@pytest.mark.parametrize("name", GROUP_API)
def test_toy_group_mirrors_the_curve_multiplication_api(name):
    # the toy group is the tests' oracle for the curves: a public curve
    # method it lacks, or takes under other parameters, would split the two
    toy, curve = ([(p.name, p.default) for p in inspect.signature(getattr(cls, name)).parameters.values()]
                  for cls in (ToyGroup, CurveGroup))
    assert toy == curve

"""The package's modules import one another in one direction.

Each module may import only modules of a lower rank, all at module level,
so that a lower layer never needs a deferred import to dodge a cycle.  The
names every layer shares (the verdicts, NumericFailure, GeneralLP) live in
the bottom layer, geometry."""

import ast
from pathlib import Path

import pytest

import shadowlp

PACKAGE = Path(shadowlp.__file__).parent

RANK = {
    "geometry": 0,
    "shadow_walk": 1, "randgen": 1, "oracle": 1,
    "phase1": 2,
    "interpolate": 3, "sections": 3,
    "experiments": 4,
    "verify": 5,
    "cli": 6,
    "__init__": 7,  # re-exports every layer
}


def _package_imports(tree):
    """(node, imported module) for every import of a package module in the
    tree, function bodies included."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import a, b
                found += [(node, alias.name) for alias in node.names]
            elif node.level == 1:  # from .a import x
                found.append((node, node.module.split(".")[0]))
            elif node.module and node.module.split(".")[0] == "shadowlp":
                rest = node.module.split(".")[1:]
                found += ([(node, rest[0])] if rest else
                          [(node, alias.name) for alias in node.names])
        elif isinstance(node, ast.Import):
            found += [(node, alias.name.split(".")[1]) for alias in node.names
                      if alias.name.startswith("shadowlp.")]
    return found


MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}


def test_every_module_has_a_rank():
    assert set(MODULES) == set(RANK)


@pytest.mark.parametrize("name", sorted(RANK))
def test_package_imports_are_at_module_level(name):
    tree = MODULES[name]
    top = set(map(id, tree.body))
    nested = [f"line {node.lineno}: {module}" for node, module in _package_imports(tree)
              if id(node) not in top]
    assert not nested


def test_oracle_imports_only_geometry():
    # The brute-force oracle shares no code with the solver it checks.
    assert {module for _, module in _package_imports(MODULES["oracle"])} == {"geometry"}


@pytest.mark.parametrize("name", sorted(RANK))
def test_modules_import_only_lower_ranks(name):
    upward = sorted({module for _, module in _package_imports(MODULES[name])
                     if RANK[module] >= RANK[name]})
    assert not upward, f"{name} imports {upward}"

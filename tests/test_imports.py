"""Every imported name in ``src/`` and ``tests/`` is read somewhere in its
module (stdlib ``ast``; no linter is needed).

A name counts as read if it appears as a loaded ``Name`` (annotations
included) or as a string in the module's ``__all__``.  ``from __future__``
imports are exempt.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(
    os.path.relpath(os.path.join(d, f), ROOT)
    for top in ("src", "tests")
    for d, _, files in os.walk(os.path.join(ROOT, top))
    for f in files if f.endswith(".py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_scan_finds_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import os, sys\nfrom a import b as c, d\n"
           "__all__ = ['d']\nprint(sys)\n")
    assert unused_imports(src) == [(2, "os"), (3, "c")]


@pytest.mark.parametrize("path", SOURCES)
def test_no_unused_imports(path):
    with open(os.path.join(ROOT, path)) as fh:
        assert unused_imports(fh.read()) == []


# -- one home for the exact scalar rules --------------------------------------

PACKAGE = os.path.join(ROOT, "src", "k3moonshine")
SCALAR_RULES = ("canonical_rational", "euler_phi", "exact_quotient",
                "moebius", "require_int")


def _package_modules() -> dict:
    trees = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                trees[name] = ast.parse(fh.read())
    return trees


def _imports_from(tree) -> list:
    """(module, names) of each ``from`` import, relative ones resolved."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "k3moonshine." + module
            found.append((module, [alias.name for alias in node.names]))
        elif isinstance(node, ast.Import):
            found += [(alias.name, []) for alias in node.names]
    return found


def test_only_series_imports_the_tests_field():
    importers = {
        name: names for name, tree in _package_modules().items()
        for module, names in _imports_from(tree)
        if module == "k3moonshine.cyclotomic"}
    assert sorted(importers) == ["__init__.py", "series.py"]
    assert importers["series.py"] == ["CyclotomicNumber"]


def test_each_scalar_rule_has_one_home():
    modules = _package_modules()
    defined = {rule: sorted(
        name for name, tree in modules.items() for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == rule)
        for rule in SCALAR_RULES}
    assert defined == {rule: ["qpoly.py"] for rule in SCALAR_RULES}
    # imported from qpoly alone, so no other module re-exports one
    for name, tree in modules.items():
        for module, names in _imports_from(tree):
            assert module == "k3moonshine.qpoly" or \
                not set(names) & set(SCALAR_RULES), (name, module)
    exact_quotient, = (
        node for node in ast.walk(modules["qpoly.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "exact_quotient")
    assert "CyclotomicNumber" not in {
        node.id for node in ast.walk(exact_quotient)
        if isinstance(node, ast.Name)}

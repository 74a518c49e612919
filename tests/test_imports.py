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
    assert sorted(importers) == ["series.py"]
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


# -- each layer loads only what it uses ---------------------------------------

SERIES_STACK = ("series", "cyclotomic", "modforms", "genus", "n4char")


def _loaded_by(module: str) -> list:
    """The package modules a fresh ``python -S`` has after one import."""
    import subprocess
    import sys
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            f"import {module}; "
            "print(' '.join(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'k3moonshine')))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_package_root_imports_nothing():
    with open(os.path.join(PACKAGE, "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    assert [type(node) for node in tree.body] == [ast.Expr]
    assert _loaded_by("k3moonshine") == ["k3moonshine"]


def test_cli_import_loads_cli_chartab_and_records():
    assert _loaded_by("k3moonshine.cli") == [
        "k3moonshine", "k3moonshine.chartab", "k3moonshine.cli",
        "k3moonshine.records"]


def test_fixture_layer_loads_no_series_module():
    loaded = _loaded_by("k3moonshine.tables")
    assert "k3moonshine.tables" in loaded
    assert not {f"k3moonshine.{name}" for name in SERIES_STACK} & set(loaded)

"""Every function and method in ``src/k3moonshine`` is referenced from
``src/`` or ``perfbench/`` (stdlib ``ast``; no linter is needed), apart
from a short allow-list of documented API and test oracles, each with its
reason.

A reference to a function is a ``Name``, an attribute, or a string
constant that is one identifier or a dotted path of them (the bench's
span table names what it wraps as strings, such as
"TruncatedSeries.invert"); a word in any other string, such as an error
message, is not.  A method is reached only through an attribute or a
string, so a ``Name`` (a local variable of the same name, say) does not
count for it.  Docstrings and ``__all__`` entries are not references,
and neither is a name inside the body of the function it names
(recursion).  Dunder methods, which Python
calls implicitly, are exempt.  The allow-list must match exactly: an
entry that gains a caller, or whose function is deleted, leaves the list.
"""

import ast
import os
import re
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "k3moonshine")

ALLOWED = {
    "mckay.write_fg_file":
        "writes the versioned f_g exchange file the README documents",
    "mckay.read_fg_file":
        "reads the versioned f_g exchange file the README documents",
    "replattice.solve_virtual_m24":
        "the canonical virtual-M24 solver the README documents",
    "lattice.SolveResult.solved":
        "the verdict of solve_in_lattice's result record",
    "cyclotomic.zeta":
        "the exported root of unity the README documents; the tests build "
        "their cyclotomic oracles on it",
    "lattice.IntegerLattice.reduce":
        "the checked entry for coordinates over a basis that the lattice "
        "docstring documents; the module's own rows take _reduce",
}


DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _sources(*tops):
    for top in tops:
        for d, _, files in os.walk(os.path.join(ROOT, *top.split("/"))):
            for f in sorted(files):
                if f.endswith(".py"):
                    with open(os.path.join(d, f)) as fh:
                        yield os.path.splitext(f)[0], ast.parse(fh.read())


def references(tree) -> tuple:
    """Identifier counts of ``tree``, without docstrings and __all__: the
    ``Name`` nodes, and the attributes with the parts of dotted strings."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            skip.add(id(node.value))
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            skip.update(id(n) for n in ast.walk(node.value))
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            attributes.update(node.value.split("."))
    return names, attributes


def definitions(module: str, tree):
    """(qualified name, node, is a method) for every function and method
    of a module."""
    todo = [(module, node, False) for node in tree.body]
    while todo:
        prefix, node, in_class = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            if not isinstance(node, ast.ClassDef):
                yield name, node, in_class
            is_class = isinstance(node, ast.ClassDef)
            todo.extend((name, child, is_class) for child in node.body)


def _count(counts, short: str, method: bool) -> int:
    """References to ``short`` in the (names, attributes) counts of
    ``references``; a method counts no ``Name``."""
    names, attributes = counts
    return attributes[short] + (0 if method else names[short])


def unreferenced(package, others) -> set:
    total = (Counter(), Counter())
    for _, tree in package + others:
        for acc, found in zip(total, references(tree)):
            acc.update(found)
    out = set()
    for module, tree in package:
        for name, node, method in definitions(module, tree):
            short = node.name
            if short.startswith("__") and short.endswith("__"):
                continue
            if _count(total, short, method) \
                    - _count(references(node), short, method) <= 0:
                out.add(name)
    return out


def test_scan_finds_an_unreferenced_method():
    src = ast.parse(
        "__all__ = ['unused']\n"
        "def unused():\n    '''used() is named only here'''\n"
        "    return unused()\n"
        "def used():\n    pass\n"
        "def said():\n    pass\n"
        "class C:\n    def __eq__(self, o):\n        return True\n"
        "    def m(self):\n        return self.n()\n"
        "    def n(self):\n        pass\n"
        "    def local(self):\n        pass\n"
        "def shadow():\n    local = 1\n    return local\n")
    # a dotted path names its parts; a word in a message names nothing;
    # a local variable names no method
    spans = ast.parse("TABLE = ('C.used', 'shadow')\n"
                      "raise ValueError('said in a message')\n")
    assert unreferenced([("mod", src)], [("bench", spans)]) == \
        {"mod.unused", "mod.C.m", "mod.said", "mod.C.local"}


def test_every_function_is_referenced_or_allowed():
    package = list(_sources("src/k3moonshine"))
    assert {module for module, _ in package} >= {"series", "cli"}
    found = unreferenced(package, list(_sources("perfbench")))
    assert sorted(found - set(ALLOWED)) == [], "no reference in src/ or perfbench/"
    assert sorted(set(ALLOWED) - found) == [], "allow-list entry now referenced or gone"
    assert all(ALLOWED.values())

"""The package holds only what the command line runs.

Every function and method in src/cbfed that is not a dunder must be
referenced somewhere in src/, or be named in bench/tracer.py, which patches
it for the benchmark.  A function counts as referenced by a name or an
attribute read; a method only by an attribute read, so a local variable
that shares its name does not keep it.  The check matches bare names, so a
method counts as used when any attribute of that name is read.  Routes that
only the tests reach live in tests/reference_routes.py.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cbfed"

def _definitions(tree, prefix):
    """(qualified name, name, is a method) of every def in tree, nested ones
    included."""
    out = []

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{qual}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    out.append((name, child.name, isinstance(node, ast.ClassDef)))
                visit(child, name)
            else:
                visit(child, qual)

    visit(tree, prefix)
    return out


def _unreferenced():
    defined, names, attributes = [], set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += _definitions(tree, path.stem)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    tracer = (ROOT / "bench" / "tracer.py").read_text()
    return {
        qual for qual, name, method in defined
        if not (name.startswith("__") and name.endswith("__"))
        and name not in attributes
        and (method or name not in names)
        and not re.search(rf"\b{re.escape(name)}\b", tracer)
    }


def test_every_package_function_is_reached_from_src():
    assert _unreferenced() == set()

"""Every top-level function, class and method in src/tatedual must have a
caller in src/ other than its own definition: src/ holds what the commands
run.  Code that only tests call is deleted, or, when the tests use it as an
independent oracle, kept in tests/oracles.py."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "tatedual"

def _definitions():
    """(file, name, node) for top-level functions and classes and their methods."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield path, item.name, item


def _references():
    """(file, name, line) for every name loaded or attribute read in src."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                yield path, node.id, node.lineno
            elif isinstance(node, ast.Attribute):
                yield path, node.attr, node.lineno


def dead_names() -> list[str]:
    refs = list(_references())
    dead = []
    for path, name, node in _definitions():
        if name.startswith("__") and name.endswith("__"):
            continue  # called by Python itself
        inside = range(node.lineno, node.end_lineno + 1)
        used = any(n == name and not (p == path and line in inside) for p, n, line in refs)
        if not used:
            dead.append(f"{path.name}:{node.lineno} {name}")
    return dead


def test_no_test_only_surface():
    assert dead_names() == []


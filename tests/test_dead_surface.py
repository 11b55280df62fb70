"""Every top-level function, class, method and assigned name in
src/tatedual, dunders excepted, must be read in src/ other than at its own
definition: src/ holds what the commands run.  Code that only tests call is
deleted, or, when the tests use it as an independent oracle, kept in
tests/oracles.py.  Likewise every field of a collections.namedtuple in src/
must be read there, as an attribute or by name in a format template, and
every name a module of src/ imports must be read in that module."""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "tatedual"

# (module, name) of the imports kept for readers outside src/: bench/launcher.py
# wraps cp_rep.nilpotence_report, which cp_rep itself never calls
REEXPORTS = {("cp_rep.py", "nilpotence_report")}
# (module, name) of the definitions kept for readers outside src/, a class
# with its methods: bench/launcher.py wraps each by name in LAYER_CALLS, and
# the tests use each as their dense oracle, but no command calls them.  The
# Jordan profiles are folded from the character (jordan_decompose), and the
# verdicts rest on the weight certificate alone, with no rank of z
# (_free_by_rank) and no explicit window test (_tate_data, _induced_step) on
# the powers of a chain (_SymmetricChain).  They can leave src/ once the
# launcher drops LAYER_CALLS (ROADMAP item 2)
LAYER_NAMES = {("cp_rep.py", name)
               for name in ("jordan_decompose", "_free_by_rank", "_tate_data", "_induced_step", "_SymmetricChain")}


def _definitions():
    """(file, name, node, top) for top-level functions, classes and assigned
    names, and the methods of the classes, with top the name of the
    top-level definition that holds them."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node.name, node, node.name
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                    yield path, name.id, node, name.id
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield path, item.name, item, node.name


def _references():
    """(file, name, line) for every name loaded or attribute read in src."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield path, node.id, node.lineno
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield path, node.attr, node.lineno


def dead_names() -> list[str]:
    refs = list(_references())
    dead = []
    for path, name, node, top in _definitions():
        if name.startswith("__") and name.endswith("__"):
            continue  # called by Python itself
        if (path.name, top) in LAYER_NAMES:
            continue
        inside = range(node.lineno, node.end_lineno + 1)
        used = any(n == name and not (p == path and line in inside) for p, n, line in refs)
        if not used:
            dead.append(f"{path.name}:{node.lineno} {name}")
    return dead


def test_no_test_only_surface():
    assert dead_names() == []



def dead_fields(src: Path = SRC) -> list[str]:
    """The fields of each collections.namedtuple in src/ that src/ never
    reads, as an attribute or by name in a format template: the shift rows
    of cli print each report's _asdict() through one."""
    trees = [(path, ast.parse(path.read_text(), filename=str(path))) for path in sorted(src.glob("*.py"))]
    read = {node.attr for _, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    read |= {name for _, tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             for name in re.findall(r"\{(\w+)[^{}]*\}", node.value)}
    dead = []
    for path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "namedtuple":
                fields = node.args[1].value.replace(",", " ").split()
                dead += [f"{path.name}:{node.lineno} {field}" for field in fields if field not in read]
    return dead


def test_no_unread_record_field():
    assert dead_fields() == []


def test_unread_record_field_is_flagged(tmp_path):
    (tmp_path / "m.py").write_text('from collections import namedtuple\n'
                                   'Pair = namedtuple("Pair", "p q")\n'
                                   'print(Pair(3, 9).p)\n')
    assert dead_fields(tmp_path) == ["m.py:2 q"]
    (tmp_path / "m.py").write_text('from collections import namedtuple\n'
                                   'Pair = namedtuple("Pair", "p q")\n'
                                   'print(Pair(3, 9).p, "{q:>3}".format_map(Pair(3, 9)._asdict()))\n')
    assert dead_fields(tmp_path) == []


def unread_imports(src: Path = SRC) -> list[str]:
    """The names that a module of src/ imports, at any depth, but never
    reads, the REEXPORTS excepted."""
    unread = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read and (path.name, name) not in REEXPORTS:
                        unread.append(f"{path.name}:{node.lineno} {name}")
    return unread


def test_no_unread_import():
    assert unread_imports() == []


def test_unread_import_is_flagged(tmp_path):
    (tmp_path / "m.py").write_text("from __future__ import annotations\n"
                                   "import numpy as np\n"
                                   "from .errors import InvalidInput, ResourceGuard\n"
                                   "def f():\n"
                                   "    from . import linalg\n"
                                   "    raise ResourceGuard(np.int64)\n")
    assert unread_imports(tmp_path) == ["m.py:3 InvalidInput", "m.py:5 linalg"]

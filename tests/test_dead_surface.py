"""Every top-level function, class and method in src/tatedual must have a
caller in src/ other than its own definition and the package's export
lists.  Code that only tests call is deleted rather than kept; the few
names kept on purpose are listed in ALLOWED, each with its reason."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "tatedual"

ALLOWED = {
    # independent cross-checks the tests compare the engine against
    "turn_page_rank_route": "second page turner, compared with turn_page",
    "is_boundary": "dual boundary test, cross-checks the dual route's cycles",
    "zero_line_einfty_exponents": "fixed-point zero line, acceptance criteria 7 and 8",
    "hfpss_view": "fixed-point view behind zero_line_einfty_exponents",
    "hoss_view": "orbit view, composed with hfpss_view",
    # property checks that acceptance criterion 7 runs on every sequence
    "verify_d_squared": "acceptance criterion 7",
    "verify_lattice_equivariance": "acceptance criterion 7",
    "verify_coefficient_law": "acceptance criterion 7",
    "verify_duality_involution": "acceptance criterion 7",
    "verify_tate_vanishing": "acceptance criterion 3: dual zero line against E_infinity",
    "invariant_delta_residue": "acceptance criterion 3 and the brute-force oracle in test_mod_arith",
    "freeness_check": "per-degree freeness, acceptance criterion 5 and the reference for freeness_by_degree",
    "direct_sum": "builds the planted-block modules of the Jordan and Tate oracles",
}


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
        if not used and name not in ALLOWED:
            dead.append(f"{path.name}:{node.lineno} {name}")
    return dead


def test_no_test_only_surface():
    assert dead_names() == []


def test_allowlist_names_exist():
    # an entry whose name is gone would let a later dead name through
    defined = {name for _, name, _ in _definitions()}
    assert sorted(set(ALLOWED) - defined) == []

"""Every LAPACK routine that ``src/`` calls goes through ``core._lapack``.

``_lapack`` looks up ``numpy.linalg.<name>`` when it is called, refuses a
matrix with entries that are not finite, and is the one place where a
factorization can be counted. So no other code of the package names a
``numpy.linalg`` routine; its ``LinAlgError`` may be raised and caught
anywhere.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# The names of numpy's linalg module that any code may use: the error its
# routines raise, not a routine.
_ALLOWED = {"LinAlgError"}


def _linalg_imports(tree: ast.Module):
    """(line, what) of each import of ``numpy.linalg``, or of a name of it
    other than an allowed one, in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("numpy.linalg"):
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.module == "numpy" and "linalg" in names:
                yield node.lineno, "from numpy import linalg"
            elif (node.module or "").startswith("numpy.linalg") and names - _ALLOWED:
                yield node.lineno, f"from {node.module} import {sorted(names)}"


def _linalg_attributes(tree: ast.Module):
    """Each ``np.linalg`` / ``numpy.linalg`` node of ``tree``, with the
    node that reads an attribute of it (None when nothing does)."""
    parents = {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "linalg"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            yield node, parents.get(id(node))


def test_no_numpy_linalg_routine_is_called_outside_core_lapack():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = []
    seen_lapack = False
    for path in paths:
        tree = ast.parse(path.read_text())
        inside = set()
        for node in tree.body:
            if path.stem == "core" and isinstance(node, ast.FunctionDef) and node.name == "_lapack":
                inside = {id(child) for child in ast.walk(node)}
                seen_lapack = True
        found += [f"{path.stem}:{line} {what}" for line, what in _linalg_imports(tree)]
        for node, parent in _linalg_attributes(tree):
            if id(node) in inside:
                continue
            if isinstance(parent, ast.Attribute) and parent.attr in _ALLOWED:
                continue
            found.append(f"{path.stem}:{node.lineno} {ast.unparse(parent or node)}")
    assert seen_lapack, "core._lapack not found"
    assert not found, f"numpy.linalg used outside core._lapack: {found}"

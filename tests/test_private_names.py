"""Every module-level private name of the package is used in the package,
and no module reaches into another's private names but those of ``core``.

A private function, class or constant (a module-level name with one
leading underscore) that no code in ``src/`` references is dead: tests may
exercise it, but nothing they check is part of what the package does. Uses
inside the definition itself (recursion) and in tests do not count.

The modules above ``core`` talk to each other through their public
names: the public functions, which validate their input and take stacks,
and the kernels of those declared by ``core._boundary`` (and of
``verify_polar``), which take checked stacks of operators and are reached
as ``.kernel`` of a public name, so they need no private import. Inside
``core``, ``decomp`` and ``classify`` a public function calls such a kernel
rather than another public function (``tests/test_boundary.py``), so each
operand is checked once. ``core``'s private kernels are the one shared
layer below them. Only ``core``'s entry and exit helpers look at how many
axes an array has, and no code branches on whether a value is an array or
a Python scalar.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _private_definitions(tree: ast.Module):
    """The module-level private definitions of ``tree``: (name, node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(node: ast.AST):
    """Names that ``node`` reads, as names or as attributes; an import
    alone is no use."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def test_every_private_name_is_used_in_src():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))]
    assert trees
    uses = Counter(name for tree in trees for name in _references(tree))
    unused = [
        name
        for tree in trees
        for name, node in _private_definitions(tree)
        # Uses inside the definition itself, such as recursion, do not count.
        if uses[name] == Counter(_references(node))[name]
    ]
    assert not unused, f"private names used nowhere in src/: {unused}"


def _imported_privates(path: Path):
    """(module, name) of each private name that the module at ``path``
    imports from another module of its package."""
    package = path.parent.name
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            module = node.module or ""
        elif (node.module or "").startswith(f"{package}."):
            module = node.module[len(package) + 1 :]
        else:
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                yield module, alias.name


def test_no_module_imports_another_modules_private_names_but_cores():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    crossing = [
        f"{path.stem} imports {module}.{name}"
        for path in paths
        for module, name in _imported_privates(path)
        if module not in ("core", path.stem)
    ]
    assert not crossing, crossing


# The entry and exit helpers of the one stacked path, and the input check
# under them: the only functions that look at how many axes an array has.
_RANK_READERS = {("core", "_checked"), ("core", "_stacked"), ("core", "_unstacked")}


def _functions(tree: ast.Module):
    """(name, node) of each module-level function of ``tree``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node


def test_only_the_entry_and_exit_helpers_read_ndim():
    reads = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {
            id(child)
            for name, node in _functions(tree)
            if (path.stem, name) in _RANK_READERS
            for child in ast.walk(node)
        }
        reads += [
            f"{path.stem}:{child.lineno}"
            for child in ast.walk(tree)
            if isinstance(child, (ast.Attribute, ast.Name))
            and "ndim" in (getattr(child, "attr", None), getattr(child, "id", None))
            and id(child) not in inside
        ]
    assert not reads, f"ndim read outside the entry and exit helpers: {reads}"


def test_no_scalar_or_array_branch_on_ndarray():
    # A kernel takes stacks only; a Python scalar never reaches it.
    branches = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and "ndarray" in {a.attr for a in ast.walk(node) if isinstance(a, ast.Attribute)}
    ]
    assert not branches, f"isinstance(..., np.ndarray) branches: {branches}"

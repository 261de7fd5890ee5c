"""Count the settable values of the package, module by module.

A settable value is a parameter with a default of a public function or
method: one a caller may pass or leave out. A function or method is
public when its name and the name of every class and function it is
defined in do not start with an underscore; nested functions count by
the same rule. Positional and keyword-only parameters both count; ``*args``
and ``**kwargs`` have no default and do not. The count is read from the
``ast`` of each ``.py`` file under ``src/``; nothing is imported.

Usage: ``python tools/settings.py [ROOT]``, with ROOT the directory that
holds the package (``src`` beside this script's directory by default).
Prints one line per module, ``<count> <path>``, and the total last.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _settable(node: ast.AST, public: bool) -> int:
    """The parameters with a default of the public functions in ``node``;
    ``public`` says whether every scope around ``node`` is public."""
    total = 0
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (*_DEFS, ast.ClassDef)):
            inner = public and not child.name.startswith("_")
            if inner and isinstance(child, _DEFS):
                args = child.args
                total += len(args.defaults)
                total += sum(d is not None for d in args.kw_defaults)
            total += _settable(child, inner)
        else:
            total += _settable(child, public)
    return total


def settable_values(path: Path) -> int:
    """The number of settable values of the Python file ``path``."""
    return _settable(ast.parse(path.read_bytes(), filename=str(path)), True)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = settable_values(path)
        total += count
        print(f"{count:6d} {path.relative_to(root)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

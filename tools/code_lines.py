"""Count the code lines of the package, module by module.

A code line is a line of a ``.py`` file under ``src/`` that holds at least
one token of Python code, as the standard library's ``tokenize`` reads the
file. Comments, blank lines and docstrings hold none. A docstring here is
any string statement: a string literal (or adjacent literals) that is a
logical line by itself, as the first statement of a module, class or
function is. A token that spans several lines, such as a triple-quoted
string inside an expression, counts every line it spans.

Usage: ``python tools/code_lines.py [ROOT]``, with ROOT the directory that
holds the package (``src`` beside this script's directory by default).
Prints one line per module, ``<lines> <path>``, and the total last.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# Tokens that are not code: layout, comments and the file's frame.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of code lines of the Python file ``path``."""
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for token in tokens:
        if token.type == tokenize.NEWLINE:
            # A logical line of strings alone is a docstring.
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif token.type not in _LAYOUT:
            statement.append(token)
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path.relative_to(root)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Count the code lines of the intgeo package, per module and in total.

    python tools/code_lines.py [package_dir]

A code line holds at least one token that is not a comment, a line break
or indentation (tokenize); a string token spans every line it covers.
Docstrings (the leading string of a module, class or function, found with
ast) do not count, nor do blank lines. package_dir defaults to src/intgeo
beside this script's parent directory.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of one Python file."""
    source = path.read_text()
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "intgeo"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.stem:12s} {count:5d}")
    print(f"{'total':12s} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

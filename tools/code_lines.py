"""Count the code lines of each module under src/: the lines that hold a
token of code, so neither blank lines, comments nor docstrings (of a module,
class or function).  Prints one line per module and then their total, and
then each C source under src/ on a row of its own, counted as the lines
that hold anything besides blanks and comments.

    python tools/code_lines.py

Standard library only.
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the Python ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


# a C comment, or a string or character literal, which may hold comment marks
_C_TOKEN = re.compile(r'/\*.*?\*/|//[^\n]*|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'', re.S)


def c_code_lines(source: str) -> int:
    """The number of lines of the C ``source`` that hold code: neither blank
    nor taken by comments alone."""
    def blank(match):
        text = match.group()
        return text if text[0] in "\"'" else "\n" * text.count("\n")

    return sum(1 for line in _C_TOKEN.sub(blank, source).splitlines() if line.strip())


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src"
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    for path in sorted(root.rglob("*.c")):
        n = c_code_lines(path.read_text(encoding="utf-8"))
        print(f"{n:6d}  {path.relative_to(root)} (C)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Count the code lines of each module of the swarmgrid package.

    python3 scripts/code_lines.py [SRC]

SRC is a `src` directory holding a `swarmgrid` package (default: this
checkout's). A code line is a line that holds a token other than a
comment, with the docstrings of the module, its classes and its functions
left out. A string token over several lines counts each line it spans.
It prints one JSON line: each module's file lines and code lines, by file
name, and the totals.
"""

from __future__ import annotations

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

# Tokens that hold no code: comments, line ends and the indent bookkeeping.
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """How many lines of `text` hold code, by the rule in the module docstring."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main() -> None:
    src = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src")
    package = src / "swarmgrid"
    if not package.is_dir():
        sys.exit(f"error: {src} holds no swarmgrid package")
    modules = {}
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        modules[path.name] = {"lines": text.count("\n"), "code": code_lines(text)}
    print(json.dumps({
        "modules": modules,
        "total": {k: sum(m[k] for m in modules.values()) for k in ("lines", "code")},
    }))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Count code lines: physical lines carrying code, not comments or docstrings.

The figure every simplicity PR's acceptance quotes (``make loc``).  A line
counts when at least one token on it is code: comment-only and blank lines
are skipped by ``tokenize``, and docstrings — the leading string-literal
statement of a module, class or function, found with ``ast`` — are
excluded.  Reformatting comments or docstrings therefore never moves the
number; only statements do.

    python3 tools/code_lines.py                 # total for src/
    python3 tools/code_lines.py src/repro/server --files
"""

from __future__ import annotations

import argparse
import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = frozenset({
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER})


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by module/class/function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Code lines of one Python source file."""
    skipped = docstring_lines(ast.parse(path.read_bytes()))
    counted: set[int] = set()
    with tokenize.open(path) as handle:
        for token in tokenize.generate_tokens(handle.readline):
            if token.type in _NOT_CODE:
                continue
            counted.update(range(token.start[0], token.end[0] + 1))
    return len(counted - skipped)


def python_files(root: Path) -> list[Path]:
    return [root] if root.is_file() else sorted(root.rglob("*.py"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=[Path("src")], type=Path,
                        help="files or directories to count (default: src)")
    parser.add_argument("--files", action="store_true",
                        help="also print one line per file")
    args = parser.parse_args(argv)
    total = 0
    for root in args.paths:
        if not root.exists():
            print(f"code_lines: no such path: {root}", file=sys.stderr)
            return 2
        for path in python_files(root):
            count = code_lines(path)
            total += count
            if args.files:
                print(f"{count:7,d}  {path}")
    print(f"{total:,d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

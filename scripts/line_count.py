#!/usr/bin/env python3
"""Count the code lines of Python files.

Code lines leave out docstrings, comments and blank lines, so rewrapped
prose or deleted comments change no count.  A line that holds code and a
comment counts.  Prints one line per file and the total:

    python scripts/line_count.py src/mortar_rbf/*.py
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PROSE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER)
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold a token other than prose, docstrings
    excepted."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in PROSE:
            code.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, False):
            doc = node.body[0]
            code.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(code)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("paths", nargs="+", type=Path)
    args = parser.parse_args()
    total = 0
    for path in args.paths:
        count = code_lines(path.read_text())
        print(f"{count:6d} code lines {path}")
        total += count
    print(f"{total:6d} code lines total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

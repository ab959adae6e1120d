"""File lines and code lines of each Python module in a package, and their total.

    python3 tools/loc.py [PACKAGE_DIR]    # default: src/ris_sop

A file line is any line of the file.  A code line is one that holds a token
other than a comment, a line break or an indentation change, and lies in no
docstring (the first statement of a module, class or function, when it is a
string).  Each module prints as ``file lines / code lines  name``, sorted by
name, then the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(file lines, code lines) of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=ROOT / "src" / "ris_sop",
                        help="directory whose *.py files are counted")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    totals = [0, 0]
    for path in sorted(args.package.glob("*.py")):
        lines = count(path.read_text())
        totals = [t + n for t, n in zip(totals, lines)]
        print(f"{lines[0]:6,} / {lines[1]:6,}  {path.name}")
    print(f"{totals[0]:6,} / {totals[1]:6,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

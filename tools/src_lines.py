"""Count the lines of each ``src/hhokit`` module by kind: code, docstring, comment, blank.

    python3 tools/src_lines.py

A docstring line lies inside the docstring of a module, class or function (blank lines
within it included).  Of the other lines, a blank line holds only white space, a comment
line holds only a comment, and every other line is code (a code line with a trailing comment
among them).  So the four counts of a module sum to its physical line count.  One row per
module, then the total.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "hhokit")
KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers spanned by the docstrings of the module, its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict:
    """{kind: lines} for one module's source."""
    docs = docstring_lines(ast.parse(source))
    comments, code = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(io.StringIO(source).readlines(), start=1):
        if number in docs:
            kind = "docstring"
        elif not line.strip():
            kind = "blank"
        elif number in comments and number not in code:
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def main() -> int:
    names = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{kind:>10}" for kind in KINDS) + f"{'lines':>10}")
    for name in names:
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            counts = count(fh.read())
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{name:<16}" + "".join(f"{counts[k]:>10}" for k in KINDS)
              + f"{sum(counts.values()):>10}")
    print(f"{'total':<16}" + "".join(f"{total[k]:>10}" for k in KINDS)
          + f"{sum(total.values()):>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

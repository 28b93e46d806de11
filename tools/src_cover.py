"""List each ``src/hhokit`` statement that no tier-1 test executes, then print their count.

    python3 tools/src_cover.py [PYTEST_ARGS...]

Runs the tier-1 tests (``tests/``, with ``src`` first on the path) in this process under a
``sys.settrace`` line tracer, which takes minutes: every traced line calls back into Python.
A statement is an ast statement of a module, less the docstrings and the ``def`` and
``class`` statements, whose lines run at import whatever the tests do.  Its own lines are
its whole extent, or for a compound statement the lines before its first nested statement;
it is executed when one of them runs.  A statement that compiles to no line of its own
(``global``, ``nonlocal``) is not counted.  Code run in a child process is not seen.  One
``module:line`` row per unexecuted statement, with its first source line, then the count;
exits with pytest's status.
"""

from __future__ import annotations

import ast
import os
import sys

ROOT = os.path.realpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
SRC = os.path.join(ROOT, "src", "hhokit")


def statements(source: str) -> list:
    """(first line, own lines) of each counted statement of one module's source."""
    tree = ast.parse(source)
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            skip.add(node)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skip.add(first)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and node not in skip:
            nested = [child.lineno for child in ast.iter_child_nodes(node)
                      if isinstance(child, (ast.stmt, ast.excepthandler))]
            last = min(nested) - 1 if nested else node.end_lineno
            out.append((node.lineno, range(node.lineno, max(last, node.lineno) + 1)))
    return sorted(out)


def code_lines(source: str, path: str) -> set:
    """The lines that the compiled module's code objects, nested ones included, run."""
    lines, stack = set(), [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _trace(paths: set, seen: set):
    """Start recording (path, line) into ``seen`` for every line run in one of ``paths``."""
    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename in paths else None

    sys.settrace(on_call)


def main(argv) -> int:
    import pytest

    names = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    paths = {os.path.join(SRC, name): name for name in names}
    seen = set()
    os.chdir(ROOT)
    sys.path.insert(0, os.path.dirname(SRC))
    _trace(set(paths), seen)
    status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    sys.settrace(None)
    missed = total = 0
    for path, name in paths.items():
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        runnable, text = code_lines(source, path), source.splitlines()
        for first, own in statements(source):
            if runnable.isdisjoint(own):
                continue
            total += 1
            if not any((path, line) in seen for line in own):
                missed += 1
                print(f"src/hhokit/{name}:{first}: {text[first - 1].strip()}")
    print(f"{missed} of {total} statements in src/hhokit executed by no test")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""tools/src_cover.py: which statements it counts, which lines are their own and which it
sees run."""

import importlib.util
import os
import sys

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "src_cover.py")
_spec = importlib.util.spec_from_file_location("src_cover", _PATH)
src_cover = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_cover)

_SOURCE = '''"""Module docstring."""
import os


def f(x):
    """Docstring."""
    global Y
    if (x and
            x > 1):
        return os.sep
    try:
        y = [x,
             x]
    except ValueError:
        pass
    return y
'''


def test_statements_skip_docstrings_and_definitions():
    found = dict(src_cover.statements(_SOURCE))
    assert sorted(found) == [2, 7, 8, 10, 11, 12, 15, 16]
    assert list(found[8]) == [8, 9]  # the test lines of the if, not its body
    assert list(found[11]) == [11]  # try: its own line only
    assert list(found[12]) == [12, 13]  # a simple statement spans all its lines


def test_code_lines_hold_the_nested_functions_and_not_global():
    lines = src_cover.code_lines(_SOURCE, "<test>")
    assert {2, 8, 10, 12, 16} <= lines
    assert 7 not in lines  # ``global`` compiles to nothing, so it is not counted


def test_trace_records_the_lines_run_in_the_named_files_only(tmp_path):
    path = tmp_path / "traced.py"
    path.write_text("def f(x):\n    if x:\n        return 1\n    return 2\n")
    code = compile(path.read_text(), str(path), "exec")
    scope = {}
    exec(code, scope)
    seen, outer = set(), sys.gettrace()  # keep a tracer that runs this test, if any
    try:
        src_cover._trace({str(path)}, seen)
        scope["f"](0)
        os.path.join("a", "b")  # a call into a file not named: not recorded
    finally:
        sys.settrace(outer)
    assert seen == {(str(path), 2), (str(path), 4)}

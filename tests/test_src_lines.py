"""tools/src_lines.py: every line of a module is counted once, under one kind."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "src_lines.py")
_spec = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)


def test_counts_sum_to_the_physical_lines_of_each_module():
    names = [name for name in os.listdir(src_lines.SRC) if name.endswith(".py")]
    assert "jets.py" in names
    for name in names:
        with open(os.path.join(src_lines.SRC, name), encoding="utf-8") as fh:
            source = fh.read()
        counts = src_lines.count(source)
        assert set(counts) == set(src_lines.KINDS)
        assert sum(counts.values()) == len(source.splitlines()), name


def test_each_kind_on_a_small_module():
    source = '''"""Module
docstring."""

# a comment
X = """not a
docstring"""  # trailing


def f():
    """One line."""
    return X
'''
    assert src_lines.count(source) == {"code": 4, "docstring": 3, "comment": 1, "blank": 3}

"""tools/search_peak.py: one cyclic search, one line, an exit code that checks its answer."""

import importlib.util
import os
import re

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "search_peak.py")
_spec = importlib.util.spec_from_file_location("search_peak", _PATH)
search_peak = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(search_peak)


def test_order_one_prints_its_line_and_exits_zero(capsys):
    assert search_peak.main(["1"]) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(r"order 1: 144 parameters, dimension 4, \d+\.\d\d s, "
                        r"peak RSS \d+\.\d MB\n", out)


def test_a_wrong_dimension_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(search_peak, "DIMENSION", 5)
    assert search_peak.main(["1"]) == 1
    assert "dimension 4" in capsys.readouterr().out


def test_order_below_one_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        search_peak.main(["0"])
    assert exc.value.code == 2
    assert "ORDER must be at least 1" in capsys.readouterr().err

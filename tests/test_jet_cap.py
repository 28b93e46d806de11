"""The jet-cap error names the environment variable that raises the cap."""

import pytest

from hhokit.config import set_jet_cap
from hhokit.errors import JetCapError
from hhokit.grammar import parse
from hhokit.jets import total_x


@pytest.mark.parametrize("text", ["u1_x3", "p1_x3"])
def test_jet_cap_error_names_variable(text):
    set_jet_cap(3)
    try:
        with pytest.raises(JetCapError, match="HHOKIT_JET_CAP"):
            total_x(parse(text))
    finally:
        set_jet_cap(None)

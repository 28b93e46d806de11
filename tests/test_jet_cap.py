"""The jet-cap error names the environment variable that raises the cap."""

import pytest

from hhokit.covering import EvolutionSystem, build_cotangent
from hhokit.errors import JetCapError
from hhokit.grammar import parse
from hhokit.jets import total_x


@pytest.mark.parametrize("text", ["u1_x3", "p1_x3"])
def test_jet_cap_error_names_variable(text, monkeypatch):
    monkeypatch.setenv("HHOKIT_JET_CAP", "3")
    with pytest.raises(JetCapError, match="HHOKIT_JET_CAP"):
        total_x(parse(text))


def test_covering_build_checks_the_cap(monkeypatch):
    """The adjoint rule p_t = -l_F*(p) of a fourth-order flux needs p_x4, so
    building the covering under cap 3 fails at once, not at a later reduction."""
    system = EvolutionSystem.general([parse("u1_x4")])
    monkeypatch.setenv("HHOKIT_JET_CAP", "3")
    with pytest.raises(JetCapError, match="jet order 4 exceeds cap 3"):
        build_cotangent(system)

"""Engine-wide tunables.  The jet cap has one setting, the environment variable
HHOKIT_JET_CAP, read by ``jet_cap``; DEFAULT_JET_CAP holds when it is unset."""

import os

from .errors import InputError

DEFAULT_JET_CAP = 12
SIZE_CAP = 10_000  # most ansatz parameters, and most dense T entries from sparse generators
# a parsed power's cost: its last squaring's term products and its coefficients' bits
POWER_PRODUCTS_CAP = 250_000
POWER_BITS_CAP = 2048
DECIMAL_EXPONENT_CAP = 1000  # of a JSON number: 1e-400 loads exactly, 1e999999999 is refused
_ENV_VAR = "HHOKIT_JET_CAP"


def jet_cap() -> int:
    """Highest jet order a reduction may produce before erroring out."""
    raw = os.environ.get(_ENV_VAR)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            raise InputError(f"{_ENV_VAR} must be an integer, got {raw!r}")
        if value < 1:
            raise InputError(f"{_ENV_VAR} must be positive, got {value}")
        return value
    return DEFAULT_JET_CAP

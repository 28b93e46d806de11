"""Run one cyclic operator search and report its time and peak memory.

    python3 tools/search_peak.py ORDER

The search is ``find_bivectors`` on the cyclic n=3 hydrodynamic system
(velocity rows u1 u2 u3 / u2 u3 u1 / u3 u1 u2, labelling class 1) over the
template ``make_operator_ansatz(3, ORDER, 1, size_cap=...)``, with the size cap
lifted so that orders past the command line's cap (5 and up) run.  This
process runs nothing else, so its ``ru_maxrss`` is the peak resident set of
the search, the interpreter, the imports and the template included.  One line
is printed, as

    order 5: 11952 parameters, dimension 4, 1.50 s, peak RSS 52.4 MB

and the exit code is 1 unless the dimension is 4, the answer at every order.
Sizes grow about 2.2x per order: order 4 has 4,968 parameters (about 0.5 s and
30 MB on a 2-vCPU machine with Python 3.11), order 6 26,892 (about 7 s and 108 MB)
and order 7 57,276.  An ORDER
below 1 is a usage error (exit 2).  ``ru_maxrss`` is read as kilobytes, as
Linux reports it.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from hhokit.covering import EvolutionSystem  # noqa: E402
from hhokit.grammar import parse_scalar  # noqa: E402
from hhokit.solver import find_bivectors, make_operator_ansatz  # noqa: E402

CYCLIC_V = (("u1", "u2", "u3"), ("u2", "u3", "u1"), ("u3", "u1", "u2"))
DIMENSION = 4


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("order", type=int, help="operator order of the template (at least 1)")
    order = ap.parse_args(argv).order
    if order < 1:
        ap.error("ORDER must be at least 1")
    system = EvolutionSystem.hydrodynamic([[parse_scalar(x) for x in row] for row in CYCLIC_V])
    start = time.perf_counter()
    ansatz = make_operator_ansatz(3, order, 1, size_cap=sys.maxsize)
    dimension = find_bivectors(system, ansatz).dimension
    seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"order {order}: {len(ansatz.params)} parameters, dimension {dimension}, "
          f"{seconds:.2f} s, peak RSS {peak:.1f} MB")
    return 0 if dimension == DIMENSION else 1


if __name__ == "__main__":
    sys.exit(main())

"""Exact linear solving for parameter-affine systems of scalar equations.

Each equation is a RatFunc affine in the formal parameters.  Its numerator
gives one scalar row per u-monomial, kept as a primitive integer vector: a
``{pid: int}`` dict with the constant under key 0, read from the numerator's
integer form and divided by the gcd of its entries (its content).

The rows are sorted once, sparsest first (a stable sort, to keep fill-in
small), and brought to reduced row echelon form by one fraction-free
Gauss-Jordan pass: pivot ``p`` of row ``P`` leaves row ``r`` by
``r <- (P[p]/g) r - (r[p]/g) P`` with ``g = gcd(P[p], r[p])``, and ``r`` is
then divided by its content; a pivot row of one entry forces ``p = 0``, so
``p`` is simply deleted from ``r``.  A column index maps each parameter to
the pivots whose rows hold it, so a new pivot is removed from exactly those
rows.  Fractions appear only in the read-out.

None of this changes the answer.  Scaling a row by a nonzero integer keeps
the row space.  Every pivot row stays fully reduced (it holds no other
pivot), so the pivots leave a new row in any order with the same result;
and each pivot is its row's lowest-``_pkey`` parameter, since a later
pivot only adds parameters above itself.  The pivot rows, scaled to a
leading 1, are thus the reduced row echelon form of the whole system for
that column order, which is unique.  ``pivots``, ``free`` and
``inconsistent`` are therefore those of any plain elimination, and
``pivots`` is returned in ``_pkey`` order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import NonlinearAnsatzError
from .rational import Poly, RatFunc, _int_form, mono_str


@dataclass
class LinearSystemSolution:
    """Pivot/free decomposition of an affine system in the parameters.

    ``pivots`` maps a parameter vid to (coeffs, const): the parameter equals
    ``sum(coeffs[f] * c_f) + const`` over the free parameters.  ``free`` lists
    the independent parameters in index order.
    """

    pivots: dict = field(default_factory=dict)
    free: list = field(default_factory=list)
    inconsistent: bool = False

    @property
    def dimension(self) -> int:
        return 0 if self.inconsistent else len(self.free)

    def value_of(self, pid: int, assignment: dict) -> Fraction:
        """Evaluate a parameter under an assignment of the free parameters."""
        if pid not in self.pivots:
            return assignment.get(pid, Fraction(0))
        coeffs, const = self.pivots[pid]
        return const + sum(a * assignment.get(f, Fraction(0)) for f, a in coeffs.items())


def _pkey(pid: int) -> int:
    # parameter vids are negative; c1 should be eliminated before c2
    return -pid


def _scalar_rows(eq: RatFunc, params: set):
    """Expand one affine equation's integer form into primitive rows, one per u-monomial."""
    rows = {}
    for m, c in (eq.num.ints or _int_form(eq.num))[1].items():
        pid = m[-1][0] if m and m[-1][0] < 0 else 0  # parameters sort last (vkey)
        if pid:
            if m[-1][1] > 1 or (len(m) > 1 and m[-2][0] < 0):
                raise NonlinearAnsatzError(f"nonlinear ansatz: parameter monomial {mono_str(m)}")
            params.add(pid)
            m = m[:-1]
        rows.setdefault(m, {})[pid] = c
    return [_primitive(row) for row in rows.values()]


def _primitive(row: dict) -> dict:
    """Divide an integer row by its content, in place."""
    content = gcd(*row.values())
    if content > 1:
        for q in row:
            row[q] //= content
    return row


def _eliminate(row: dict, pid: int, prow: dict):
    """Remove ``pid`` from ``row`` in place by the pivot row ``prow``."""
    g = gcd(prow[pid], row[pid])
    a, b = prow[pid] // g, row.pop(pid) // g
    if a != 1:
        for q in row:
            row[q] *= a
    for q, x in prow.items():
        if q != pid:
            s = row.get(q, 0) - b * x
            if s:
                row[q] = s
            else:
                row.pop(q, None)
    _primitive(row)


def linear_solve(eqs) -> LinearSystemSolution:
    """Solve a list of parameter-affine RatFunc equations (= 0) exactly.

    Raises NonlinearAnsatzError when a parameter occurs nonlinearly.
    """
    params: set = set()
    rows = []
    for eq in eqs:
        if isinstance(eq, Poly):
            eq = RatFunc.from_poly(eq)
        rows.extend(_scalar_rows(eq, params))

    rows.sort(key=len)
    pivot_rows: dict = {}  # pid -> primitive integer row holding pid, fully reduced
    holders: dict = {}  # non-pivot parameter -> the pivots whose rows hold it
    for row in rows:
        for pid in row.keys() & pivot_rows.keys():
            prow = pivot_rows[pid]
            if len(prow) == 1:  # prow forces pid = 0
                del row[pid]
            else:
                _eliminate(row, pid, prow)
        if not row:
            continue
        lead = min((q for q in row if q), key=_pkey, default=0)
        if not lead:  # 0 = nonzero constant
            return LinearSystemSolution(pivots={}, free=[], inconsistent=True)
        _primitive(row)  # a dropped entry may leave a content
        rest = [q for q in row if q and q != lead]
        for q in rest:
            holders.setdefault(q, set()).add(lead)
        for pid in holders.pop(lead, ()):
            prow = pivot_rows[pid]
            _eliminate(prow, lead, row)
            for q in rest:
                if q in prow:
                    holders[q].add(pid)
                else:
                    holders[q].discard(pid)
        pivot_rows[lead] = row

    free = sorted((p for p in params if p not in pivot_rows), key=_pkey)
    pivots = {}
    for pid in sorted(pivot_rows, key=_pkey):
        row = pivot_rows[pid]
        pivots[pid] = ({q: Fraction(-row[q], row[pid]) for q in sorted(row, key=_pkey)
                        if q and q != pid}, Fraction(-row.get(0, 0), row[pid]))
    return LinearSystemSolution(pivots=pivots, free=free, inconsistent=False)


def substitute_solution(rf: RatFunc, sol: LinearSystemSolution) -> RatFunc:
    """Replace pivot parameters in a RatFunc by their free-parameter combos."""
    if not sol.pivots:
        return rf
    linear, absolute = rf.num.split_affine_params()
    num = absolute
    for pid, poly in linear.items():
        if pid in sol.pivots:
            coeffs, const = sol.pivots[pid]
            repl = Poly({(): const, **{((f, 1),): a for f, a in coeffs.items()}})
            num = num + poly * repl
        else:
            num = num + poly * Poly.var(pid)
    return RatFunc(num, rf.den)

"""Exact linear solving for parameter-affine systems of scalar equations.

Each input equation is a RatFunc that is affine in the formal parameters.
Denominators are cleared, each equation is expanded over u-monomials into
scalar linear equations over Q, and the whole system is brought to reduced
row echelon form with exact Fraction arithmetic.

The scalar rows are eliminated sparsest-first (fewest parameters first, a
stable sort), which keeps the fill-in of the pivot rows small.  The order
cannot change the answer: each pivot is its row's lowest-``_pkey``
parameter and every pivot row is kept fully reduced against the others, so
the pivot rows are the reduced row echelon form of the row space for that
column order, which is unique.  ``pivots``, ``free`` and ``inconsistent``
are therefore those of any other elimination order, and ``pivots`` is
returned in ``_pkey`` order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .rational import Poly, RatFunc


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
        if pid in self.pivots:
            coeffs, const = self.pivots[pid]
            total = const
            for f, a in coeffs.items():
                total += a * assignment.get(f, Fraction(0))
            return total
        return assignment.get(pid, Fraction(0))


def _pkey(pid: int) -> int:
    # parameter vids are negative; c1 should be eliminated before c2
    return -pid


def _scalar_rows(eq: RatFunc, params: set):
    """Expand one affine equation over u-monomials into sparse rows."""
    linear, absolute = eq.num.split_affine_params()
    rows = {}
    for pid, poly in linear.items():
        params.add(pid)
        for m, c in poly.terms.items():
            rows.setdefault(m, ({}, [Fraction(0)]))[0][pid] = c
    for m, c in absolute.terms.items():
        rows.setdefault(m, ({}, [Fraction(0)]))[1][0] = c
    return [(coeffs, const[0]) for coeffs, const in rows.values()]


def linear_solve(eqs) -> LinearSystemSolution:
    """Solve a list of parameter-affine RatFunc equations (= 0) exactly.

    Raises NonlinearAnsatzError when a parameter occurs nonlinearly.
    """
    params: set = set()
    pending = []
    for eq in eqs:
        if isinstance(eq, Poly):
            eq = RatFunc.from_poly(eq)
        if eq.is_zero:
            continue
        pending.extend(_scalar_rows(eq, params))
    pending.sort(key=lambda row: len(row[0]))

    pivot_rows: dict = {}  # pid -> (coeffs, const) with coeffs[pid] == 1
    inconsistent = False
    for coeffs, const in pending:
        coeffs = dict(coeffs)
        # reduce by existing pivots
        for pid in sorted(coeffs, key=_pkey):
            if pid not in pivot_rows or pid not in coeffs:
                continue
            factor = coeffs.pop(pid)
            prow, pconst = pivot_rows[pid]
            for q, a in prow.items():
                if q == pid:
                    continue
                s = coeffs.get(q, Fraction(0)) - factor * a
                if s:
                    coeffs[q] = s
                else:
                    coeffs.pop(q, None)
            const = const - factor * pconst
        if not coeffs:
            if const:
                inconsistent = True
            continue
        lead = min(coeffs, key=_pkey)
        inv = 1 / coeffs[lead]
        row = {q: a * inv for q, a in coeffs.items()}
        const = const * inv
        # eliminate the new pivot from previous rows
        for pid, (prow, pconst) in list(pivot_rows.items()):
            if lead in prow:
                f = prow.pop(lead)
                for q, a in row.items():
                    if q == lead:
                        continue
                    s = prow.get(q, Fraction(0)) - f * a
                    if s:
                        prow[q] = s
                    else:
                        prow.pop(q, None)
                pivot_rows[pid] = (prow, pconst - f * const)
        pivot_rows[lead] = (row, const)

    if inconsistent:
        return LinearSystemSolution(pivots={}, free=[], inconsistent=True)

    free = sorted((p for p in params if p not in pivot_rows), key=_pkey)
    pivots = {}
    for pid in sorted(pivot_rows, key=_pkey):
        row, const = pivot_rows[pid]
        coeffs = {q: -row[q] for q in sorted(row, key=_pkey) if q != pid}
        pivots[pid] = (coeffs, -const)
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
            repl = Poly.const(const)
            for f, a in coeffs.items():
                repl = repl + Poly.var(f) * a
            num = num + poly * repl
        else:
            num = num + poly * Poly.var(pid)
    return RatFunc(num, rf.den)


def assign_free(rf: RatFunc, sol: LinearSystemSolution, assignment: dict,
                free) -> RatFunc:
    """Substitute the solution, then give each parameter in ``free`` its value
    in ``assignment`` (0 when absent)."""
    out = substitute_solution(rf, sol)
    values = {pid: Fraction(assignment.get(pid, 0)) for pid in free}
    if not values:
        return out
    return out.subs_params(values)

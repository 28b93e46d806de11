"""Exact linear solving for parameter-affine systems of scalar equations.

An equation is a RatFunc affine in the formal parameters, or the tuple of its rows as
``sum_equations`` reads them straight off a finished ``rational.IntSum``, the way a search
takes its covering residual: each key's integer numerators give its rows, with no
coefficient made.  A row is one u-monomial's ``{pid: int}`` (``rational.affine_rows``), the
constant under key 0, divided by the gcd of its entries (its content).

``linear_solve`` pops each equation off its own copy of the list as its rows are read, so
the caller's list is left as it was and an equation that no one else holds is freed at
once.  The rows are sorted once, sparsest first (a stable sort, to keep fill-in small), and
popped in that order, so a row that reduces to zero is freed at once too.  A further batch
(``more``, a search's last residual component) is formed once these are eliminated, and its
rows are read into the same elimination.  All rows are brought to reduced row echelon form
by one fraction-free Gauss-Jordan elimination: pivot ``p`` of row ``P`` leaves row ``r`` by
``r <- (P[p]/g) r - (r[p]/g) P`` with ``g = gcd(P[p], r[p])``; a pivot row of one entry
forces ``p = 0``, so ``p`` is simply deleted from ``r``.  A new row is divided by its
content once, after every pivot has left it; a stored pivot row that a new pivot leaves is
divided by its content at once.  So every stored row is primitive.  A column index maps
each parameter to the pivots whose rows hold it, so a new pivot is removed from exactly
those rows.  Fractions appear only in the read-out.

None of this changes the answer, nor does the order of the equations, rows or batches.
Scaling a row by a nonzero integer keeps the row space.  Every pivot row stays fully
reduced (it holds no other pivot), so the pivots leave a new row in any order with the same
result; and each pivot is its row's lowest-``_pkey`` parameter, since a later pivot only
adds parameters above itself.  The pivot rows, scaled to a leading 1, are thus the reduced
row echelon form of the whole system for that column order, which is unique.  ``pivots``,
``free`` and ``inconsistent`` are therefore those of any plain elimination, and ``pivots``
is returned in ``_pkey`` order.

``substituted_terms`` is the one substitution of a solution: the solver's basis read-off
and ``substitute_solution``, the generic member, both go through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .rational import Poly, RatFunc, _int_form, add_terms, affine_rows


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


def _pkey(pid: int) -> int:
    # parameter vids are negative; c1 should be eliminated before c2
    return -pid


def sum_equations(total) -> list:
    """The equations of a finished ``rational.IntSum`` = 0, one per key whose sum is not
    zero, each key popped as read.  Integer numerators give the tuple of their rows
    (``affine_rows``): the positive common denominator cannot change a row.  A lone first
    RatFunc, or terms over a non-constant denominator, are made by ``IntSum.pop``."""
    eqs, terms = [], total.terms
    for key in list(terms):
        if key in total.rats or type(terms[key]) is not dict:
            eq = total.pop(key)
        else:
            eq = tuple(affine_rows(terms.pop(key)).values())
        if eq:
            eqs.append(eq)
    return eqs


def _scalar_rows(eq, params: set):
    """One equation's primitive rows, one per u-monomial: a RatFunc's numerator read through
    its integer form (``rational.affine_rows``), or the tuple of rows of ``sum_equations``,
    whose rows are taken over and divided in place."""
    rows = eq if type(eq) is tuple else affine_rows(_int_form(eq.num)[1]).values()
    params.update(*rows)
    params.discard(0)
    return [_primitive(row) for row in rows]


def _primitive(row: dict) -> dict:
    """Divide an integer row by its content, in place."""
    content = gcd(*row.values())
    if content > 1:
        for q in row:
            row[q] //= content
    return row


def _eliminate(row: dict, pid: int, prow: dict):
    """Remove ``pid`` from ``row`` in place by the pivot row ``prow``; row stays primitive."""
    _primitive(_subtract(row, pid, prow))


def _subtract(row: dict, pid: int, prow: dict) -> dict:
    """Remove ``pid`` from ``row`` in place by ``prow``, with coprime multipliers; returns row."""
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
    return row


def linear_solve(eqs, more=None) -> LinearSystemSolution:
    """Solve a list of parameter-affine equations (= 0) exactly, each a RatFunc or the tuple
    of its rows from ``sum_equations`` (those rows are reduced in place); ``more``, if given,
    maps the set of parameters they force to zero, once eliminated, to a further batch.

    The list is copied, each equation is released from the copy once its scalar rows are
    read and each row that reduces to zero at once; ``eqs`` itself is not changed.  Raises
    NonlinearAnsatzError (from ``rational.affine_rows``) when a parameter occurs nonlinearly.
    """
    params: set = set()
    pivot_rows: dict = {}  # pid -> primitive integer row holding pid, fully reduced
    holders: dict = {}  # non-pivot parameter -> the pivots whose rows hold it
    eqs = list(eqs)[::-1]  # popped from the end: in the given order
    while True:
        rows = []
        while eqs:
            rows.extend(_scalar_rows(eqs.pop(), params))
        rows.sort(key=len)
        rows.reverse()
        while rows:
            row = rows.pop()
            for pid in row.keys() & pivot_rows.keys():
                prow = pivot_rows[pid]
                if len(prow) == 1:  # prow forces pid = 0
                    del row[pid]
                else:
                    _subtract(row, pid, prow)
            if not row:
                continue
            lead = min((q for q in row if q), key=_pkey, default=0)
            if not lead:  # 0 = nonzero constant
                return LinearSystemSolution(pivots={}, free=[], inconsistent=True)
            _primitive(row)  # once, after all the pivots have left it
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
        if more is None:
            break
        zero = {pid for pid, row in pivot_rows.items() if len(row) == 1}  # each forced to 0
        eqs, more = list(more(zero))[::-1], None

    free = sorted((p for p in params if p not in pivot_rows), key=_pkey)
    pivots = {}
    for pid in sorted(pivot_rows, key=_pkey):
        row = pivot_rows[pid]
        pivots[pid] = ({q: Fraction(-row[q], row[pid]) for q in sorted(row, key=_pkey)
                        if q and q != pid}, Fraction(-row.get(0, 0), row[pid]))
    return LinearSystemSolution(pivots=pivots, free=free, inconsistent=False)


def substituted_terms(terms: dict, sol: LinearSystemSolution) -> dict:
    """A parameter-affine term dict, read through ``rational.affine_rows``, with each pivot
    replaced by its free-parameter combination plus its constant; any other parameter stays
    a symbol.  The one substitution of a solution: no term dropped, no zero stored."""
    out: dict = {}
    for m, row in affine_rows(terms).items():  # parameters sort last: m + ((f, 1),)
        for pid, c in row.items():
            if pid not in sol.pivots:
                add_terms(out, {m + ((pid, 1),) if pid else m: c})
                continue
            coeffs, const = sol.pivots[pid]
            add_terms(out, {m + ((f, 1),): a for f, a in coeffs.items()}, c)
            if const:
                add_terms(out, {m: const}, c)
    return out


def substitute_solution(rf: RatFunc, sol: LinearSystemSolution) -> RatFunc:
    """rf with the solution substituted (``substituted_terms``): the generic member."""
    return RatFunc(Poly._new(substituted_terms(rf.num.terms, sol)), rf.den) if sol.pivots else rf

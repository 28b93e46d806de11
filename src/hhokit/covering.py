"""Cotangent coverings of evolutionary systems and bivector residuals.

An evolutionary system u^i_t = f^i(x-jets) is augmented with odd variables
p_i obeying the adjoint linearized equations p_t = -l_F*(p), where the
linearization l_F is a ``LocalOperator``.  A differential operator applied to
p (``LocalOperator.apply_row``, the one routine that applies an operator, l_F
included) becomes a vector function linear in the odd variables, and it is a
variational bivector exactly when D_t A(p) - l_F(A(p)) reduces to zero on the
covering.  Symmetries generate conservation laws linear in the odd variables;
their potentials r_alpha extend the covering with rewrite rules for r_x and
r_t, which is how weakly nonlocal operator tails are handled.  Both p_t and
r_t integrate a p_i by parts for each band a d^sigma of l_F, so both read one
ladder D_x^0..sigma(a p_i) per band.  Every such chain, and that of a flux, a
p_t rule or an argument of l_F, is kept in one kind of memo,
``CoveringContext._dx``.  D_t and the bands of l_F are read off one chain-rule
table, ``jets.jet_gradient``, as ``jets.total_x`` is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .config import jet_cap
from .errors import InputError, NotASymmetryError
from .grammar import as_matrix
from .jets import (KIND_P, KIND_R, KIND_U, DiffPoly, DiffSum, dm_key, gradient_entry, jet_gradient,
                   total_x, ux_sums)
from .rational import RatFunc

_SCALAR_COEFFS = (int, bool, Fraction, RatFunc)  # matched by exact type: isinstance on an ABC is slow


@dataclass(frozen=True)
class EvolutionSystem:
    """u^i_t = f^i with optional structural tags.

    ``kind`` is one of general / hydrodynamic / conservative / potential.
    Hydrodynamic systems carry the velocity matrix V^i_j (f^i = V^i_j u^j_x);
    conservative and potential systems carry the flux potentials V^i(u) with
    f^i = D_x V^i.  A potential system describes b^i_t = V^i(b_x) in terms of
    the variables u^i = b^i_x, which changes its linearization but not the
    u-jet rewrite.
    """

    n: int
    fluxes: tuple
    kind: str = "general"
    velocity: tuple | None = None
    flux_potentials: tuple | None = None

    def __post_init__(self):
        if self.n < 1:
            raise InputError("system needs at least one dependent variable")
        if len(self.fluxes) != self.n:
            raise InputError(f"expected {self.n} fluxes, got {len(self.fluxes)}")
        for i, f in enumerate(self.fluxes, start=1):
            if f.odd_degree():
                raise InputError(f"flux {i} contains odd variables")

    @classmethod
    def general(cls, fluxes) -> "EvolutionSystem":
        fluxes = tuple(fluxes)
        return cls(n=len(fluxes), fluxes=fluxes)

    @classmethod
    def hydrodynamic(cls, velocity) -> "EvolutionSystem":
        vel = as_matrix(velocity, "velocity matrix must be square")
        return cls(n=len(vel), fluxes=ux_sums(vel), kind="hydrodynamic", velocity=vel)

    @classmethod
    def conservative(cls, flux_potentials) -> "EvolutionSystem":
        pots = tuple(flux_potentials)
        return cls(n=len(pots), fluxes=ux_sums(flux_jacobian(pots)), kind="conservative",
                   flux_potentials=pots)

    @classmethod
    def potential(cls, flux_potentials) -> "EvolutionSystem":
        base = cls.conservative(flux_potentials)
        return cls(n=base.n, fluxes=base.fluxes, kind="potential",
                   flux_potentials=base.flux_potentials)

    def jacobian(self):
        """V^i_{,j} for conservative/potential systems, V^i_j for hydrodynamic."""
        if self.velocity is not None:
            return self.velocity
        if self.flux_potentials is not None:
            return flux_jacobian(self.flux_potentials)
        raise InputError(f"a {self.kind} system carries no velocity matrix")


def flux_jacobian(flux_potentials) -> tuple:
    """The velocity matrix V^i_{,j} of flux potentials V^1(u), ..., V^n(u)."""
    n = len(flux_potentials)
    return tuple(tuple(V.diff(j + 1) for j in range(n)) for V in flux_potentials)


def linearization(system: EvolutionSystem) -> "LocalOperator":
    """The linearization l_F, (l_F phi)^i = sum a^i_{j,sigma} D_x^sigma phi^j.

    For general systems a^i_{j,sigma} = df^i/du^j_sigma; a potential system
    b_t = V(b_x) has the single band a^i_{j,1} = dV^i/du^j because its
    dependent variables are the potentials, not u.
    """
    n = system.n
    if system.kind == "potential":
        jac = system.jacobian()
        return LocalOperator.build(n, [[((jac[i][j], 1),) for j in range(n)] for i in range(n)])
    rows = []
    for f in system.fluxes:
        grad = jet_gradient(f)
        rows.append([[(gradient_entry(grad.get((KIND_U, j, sigma), {})), sigma)
                      for sigma in range(f.max_jet_order() + 1)] for j in range(1, n + 1)])
    return LocalOperator.build(n, rows)


@dataclass(frozen=True)
class NonlocalSlot:
    """A registered symmetry and the covering rules for its potential."""

    alpha: int
    phi: tuple
    rx_rule: DiffPoly
    rt_rule: DiffPoly


@dataclass(frozen=True)
class BivectorForm:
    """Vector function linear in the odd variables, one entry per component."""

    components: tuple

    def __post_init__(self):
        for i, comp in enumerate(self.components, start=1):
            if not comp.odd_linear():
                raise InputError(f"component {i} is not linear in the odd variables")


@dataclass(frozen=True)
class LocalOperator:
    """Matrix differential operator, canonical when built: entries[i][j] holds one
    (odd-free DiffPoly coefficient, k) pair per k, k ascending, no coefficient zero.
    ``build`` is the constructor that yields this form, so ``==`` is normal-form equality."""

    n: int
    entries: tuple  # entries[i][j] = ((DiffPoly, int), ...)

    @classmethod
    def build(cls, n, entries) -> "LocalOperator":
        """The operator of raw entries[i][j] = [(coefficient, k), ...]: scalar coefficients
        become DiffPolys, odd ones are refused, coefficients of equal k are summed, zero sums
        dropped and k sorted ascending."""
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                by_k = {}
                for coeff, k in entries[i][j]:
                    if type(coeff) in _SCALAR_COEFFS:
                        coeff = DiffPoly.from_scalar(coeff)
                    if coeff.odd_degree():
                        raise InputError("operator coefficients must be odd-free")
                    by_k[k] = by_k[k] + coeff if k in by_k else coeff
                row.append(tuple((by_k[k], k) for k in sorted(by_k) if not by_k[k].is_zero))
            rows.append(tuple(row))
        return cls(n=n, entries=tuple(rows))

    def apply_row(self, i, dx, sign=1) -> DiffSum:
        """Row i of the operator applied, sign * sum_j sum_(a, k) a * dx(j, k) as one DiffSum,
        where dx(j, k) is D_x^k of the j-th argument."""
        total = DiffSum()
        for j, entry in enumerate(self.entries[i]):
            for coeff, k in entry:
                total.addmul(coeff, dx(j, k), sign)
        return total


def operator_to_bivector(A: LocalOperator, ctx: "CoveringContext" = None,
                         tail=()) -> BivectorForm:
    """Evaluate the operator on p, adding weight * phi^i * r_alpha tails."""
    if tail and ctx is None:
        raise InputError("nonlocal tails need a covering context")
    rows = [A.apply_row(i, lambda j, k: DiffPoly.odd_p(j + 1, k)) for i in range(A.n)]
    for weight, alpha in tail:
        slot = ctx.slot(alpha)
        for phi, total in zip(slot.phi, rows):
            total.addmul(phi.scalar_mul(weight), DiffPoly.odd_r(alpha))
    return BivectorForm(components=tuple(total.value() for total in rows))


class CoveringContext:
    """The cotangent covering: rewrite rules for u_t, p_t and registered r's."""

    def __init__(self, system: EvolutionSystem):
        self.system = system
        self.linearization = linearization(system)
        self.slots: list[NonlocalSlot] = []
        self._rx_rules: dict[int, DiffPoly] = {}
        self._cap = jet_cap()  # read once: jet_cap() consults os.environ
        # D_x ladders of r-free bases, valid for every slot registered later:
        # ("f", i) flux f^i and ("pt", i) rule p_{i,t}; _bands[i, j, sigma] is
        # a p_i for the one band a d^sigma of l_F[i][j] with that sigma
        self._chains: dict = {}
        self._bands: dict = {}
        pt = [DiffSum() for _ in range(system.n)]
        for i, row in enumerate(self.linearization.entries):
            for j, entry in enumerate(row):
                for a, sigma in entry:  # p_{j,t} gets -(-1)^sigma D_x^sigma(a p_i)
                    top = self._dx(self._bands, (i, j, sigma), a * DiffPoly.odd_p(i + 1), sigma)
                    pt[j].add(top, 1 if sigma % 2 else -1)
        self.pt_rules = tuple(total.value() for total in pt)

    def slot(self, alpha: int) -> NonlocalSlot:
        if not 1 <= alpha <= len(self.slots):
            raise InputError(f"no registered nonlocal slot r{alpha}")
        return self.slots[alpha - 1]

    # -- derivatives -----------------------------------------------------------

    def total_x(self, a: DiffPoly) -> DiffPoly:
        return total_x(a, rx_rules=self._rx_rules, cap=self._cap)

    def _dx(self, memo: dict, key, base: DiffPoly, k: int) -> DiffPoly:
        """D_x^k of base; memo[key] keeps the ladder D_x^0..k of base."""
        ladder = memo.get(key)
        if ladder is None:
            ladder = memo[key] = [base]
        while len(ladder) <= k:
            ladder.append(self.total_x(ladder[-1]))
        return ladder[k]

    def total_t(self, a: DiffPoly, into: DiffSum | None = None):
        """D_t with all t-derivatives eliminated through the covering rules, as
        a DiffPoly; when a DiffSum is given, added into it and it is returned.

        By the chain rule D_t a = sum_v (da/dv) D_t v over ``jets.jet_gradient(a)``, each
        D_t v one covering rule named by the jet variable v (kind, index, x-order): f^i for a
        coefficient's u^i, D_x^k f^i for u^i_{x^k}, D_x^k p_{i,t} for p_{i,x^k} and r_t for
        r_alpha.  Each da/dv is one term dict, its exponents folded into the coefficients,
        so each rule makes one product."""
        res = DiffSum() if into is None else into
        for (kind, index, k), cofactors in jet_gradient(a).items():
            if kind == KIND_R:
                rule = self.slot(index).rt_rule
            elif kind == KIND_P:
                rule = self._dx(self._chains, ("pt", index - 1), self.pt_rules[index - 1], k)
            else:
                rule = self._dx(self._chains, ("f", index - 1), self.system.fluxes[index - 1], k)
            res.addmul(gradient_entry(cofactors), rule)
        return res.value() if into is None else into

    # -- operations --------------------------------------------------------------

    def linearize(self, phi, memo=None) -> tuple:
        """The values of ``residual_sums(phi, memo)``, one DiffPoly per component."""
        return tuple(total.value() for total in self.residual_sums(phi, memo))

    def residual_sums(self, phi, memo=None, rows=None):
        """Yield D_t phi - l_F(phi) reduced on the covering, phi a symmetry characteristic
        (odd-free) or the image A(p) of an operator (odd-linear), as one unvalued DiffSum per
        component i in ``rows`` (a range, all by default), each formed when asked for (l_F row
        i, then D_t phi^i).  The ladders D_x^k phi^j are kept in ``memo`` when one is given;
        otherwise they are dropped before the last D_t, when the last l_F row has read them."""
        phi, keep = tuple(phi), memo is not None
        if len(phi) != self.system.n:
            raise InputError(f"expected {self.system.n} components, one per field, got {len(phi)}")
        memo, rows = {} if memo is None else memo, range(len(phi)) if rows is None else rows
        for i in rows:
            total = self.linearization.apply_row(i, lambda j, k: self._dx(memo, j, phi[j], k), -1)
            if i == rows[-1] and not keep:
                memo.clear()
            yield self.total_t(phi[i], total)

    def register_symmetry(self, phi) -> int:
        """Register a symmetry characteristic; returns the slot index alpha.

        The conservation law it generates on the covering determines the
        rewrite rules r_x = phi^i p_i and r_t = the integration-by-parts flux
        of <l_F(phi), p>.
        """
        phi, dphi = tuple(phi), {}
        residual = self.linearize(phi, dphi)
        if any(not comp.is_zero for comp in residual):
            raise NotASymmetryError("characteristic is not a symmetry", residual=residual)
        rx = DiffSum()
        for i in range(self.system.n):
            rx.addmul(phi[i], DiffPoly.odd_p(i + 1, 0))
        rt = DiffSum()
        for (_, j, sigma), ladder in self._bands.items():
            for m in range(sigma):
                # (-1)^m D_x^m(a p_i) * D_x^{sigma-1-m} phi^j
                rt.addmul(ladder[m], self._dx(dphi, j, phi[j], sigma - 1 - m), -1 if m % 2 else 1)
        alpha = len(self.slots) + 1
        slot = NonlocalSlot(alpha=alpha, phi=phi, rx_rule=rx.value(), rt_rule=rt.value())
        self.slots.append(slot)
        self._rx_rules[alpha] = slot.rx_rule
        return alpha


def build_cotangent(system: EvolutionSystem) -> CoveringContext:
    """Construct the cotangent covering of an evolutionary system."""
    return CoveringContext(system)


def linearize(system: EvolutionSystem, phi) -> tuple:
    """D_t phi - l_F(phi) in x-jet normal form, one sum per component, on a
    fresh cotangent covering (its band ladders and p_t rules are built too,
    though an odd-free phi never reads them)."""
    return CoveringContext(system).linearize(phi)


def bivector_residual(ctx: CoveringContext, A: BivectorForm) -> tuple:
    """l_F(A(p)) reduced on the covering; zero iff A is a variational bivector."""
    return ctx.linearize(A.components)


def extract_conditions(residual) -> list:
    """Coefficient functions whose joint vanishing is residual = 0."""
    return [comp.terms[m] for comp in residual for m in sorted(comp.terms, key=dm_key)]

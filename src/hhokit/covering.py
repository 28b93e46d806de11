"""Cotangent coverings of evolutionary systems and bivector residuals.

An evolutionary system u^i_t = f^i(x-jets) is augmented with odd variables
p_i obeying the adjoint linearized equations; a differential operator applied
to p becomes a vector function linear in the odd variables, and it is a
variational bivector exactly when its linearization residual reduces to zero
on the covering.  Symmetries generate conservation laws linear in the odd
variables; their potentials r_alpha extend the covering with rewrite rules
for r_x and r_t, which is how weakly nonlocal operator tails are handled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .config import jet_cap
from .errors import InputError, NotASymmetryError
from .jets import KIND_P, DiffMonomial, DiffPoly, DiffSum, total_x
from .rational import RatFunc


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
        n = len(velocity)
        vel = tuple(tuple(row) for row in velocity)
        if any(len(row) != n for row in vel):
            raise InputError("velocity matrix must be square")
        fluxes = []
        for i in range(n):
            f = DiffPoly.zero()
            for j in range(n):
                f = f + DiffPoly.jet(j + 1, 1).scalar_mul(vel[i][j])
            fluxes.append(f)
        return cls(n=n, fluxes=tuple(fluxes), kind="hydrodynamic", velocity=vel)

    @classmethod
    def conservative(cls, flux_potentials) -> "EvolutionSystem":
        pots = tuple(flux_potentials)
        n = len(pots)
        fluxes = []
        for V in pots:
            f = DiffPoly.zero()
            for j in range(1, n + 1):
                f = f + DiffPoly.jet(j, 1).scalar_mul(V.diff(j))
            fluxes.append(f)
        return cls(n=n, fluxes=tuple(fluxes), kind="conservative",
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


def linearization_table(system: EvolutionSystem) -> dict:
    """Coefficients of the linearization: (i, j, sigma) -> DiffPoly.

    l_F(phi)^i = D_t phi^i - sum a^i_{j,sigma} D_x^sigma phi^j.  For general
    systems a^i_{j,sigma} = df^i/du^j_sigma; a potential system b_t = V(b_x)
    has the single band a^i_{j,1} = dV^i/du^j because its dependent variables
    are the potentials, not u.
    """
    table = {}
    if system.kind == "potential":
        jac = system.jacobian()
        for i in range(system.n):
            for j in range(system.n):
                if not jac[i][j].is_zero:
                    table[(i, j, 1)] = DiffPoly.from_scalar(jac[i][j])
        return table
    for i, f in enumerate(system.fluxes):
        max_order = f.max_jet_order()
        for j in range(1, system.n + 1):
            for sigma in range(max_order + 1):
                a = f.partial_jet(j, sigma)
                if not a.is_zero:
                    table[(i, j - 1, sigma)] = a
    return table


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

    def __add__(self, other):
        return BivectorForm(tuple(a + b for a, b in
                                  zip(self.components, other.components)))

    def scalar_mul(self, c):
        return BivectorForm(tuple(a.scalar_mul(c) for a in self.components))


@dataclass(frozen=True)
class LocalOperator:
    """Matrix differential operator: entries are lists of (coefficient, k)."""

    n: int
    entries: tuple  # entries[i][j] = ((DiffPoly, int), ...)

    @classmethod
    def build(cls, n, entries) -> "LocalOperator":
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                terms = []
                for coeff, k in entries[i][j]:
                    if isinstance(coeff, (int, Fraction, RatFunc)):
                        coeff = DiffPoly.from_scalar(coeff)
                    if coeff.odd_degree():
                        raise InputError("operator coefficients must be odd-free")
                    if not coeff.is_zero:
                        terms.append((coeff, k))
                row.append(tuple(terms))
            rows.append(tuple(row))
        return cls(n=n, entries=tuple(rows))

    def normalized(self) -> "LocalOperator":
        rows = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                by_k = {}
                for coeff, k in self.entries[i][j]:
                    by_k[k] = by_k.get(k, DiffPoly.zero()) + coeff
                row.append(tuple((by_k[k], k) for k in sorted(by_k)
                                 if not by_k[k].is_zero))
            rows.append(tuple(row))
        return LocalOperator(n=self.n, entries=tuple(rows))

    def __eq__(self, other):
        if not isinstance(other, LocalOperator):
            return NotImplemented
        return self.n == other.n and self.normalized().entries == other.normalized().entries

    def neg(self) -> "LocalOperator":
        rows = tuple(tuple(tuple((-c, k) for c, k in entry) for entry in row)
                     for row in self.entries)
        return LocalOperator(n=self.n, entries=rows)


def formal_adjoint(A: LocalOperator) -> LocalOperator:
    """(a d^k)* = (-1)^k d^k a, expanded to normal form entrywise."""
    cap = jet_cap()
    rows = []
    for i in range(A.n):
        row = []
        for j in range(A.n):
            by_m: dict = {}
            for coeff, k in A.entries[j][i]:
                # (-1)^k d^k (a .) = sum_m C(k,m) (d^{k-m} a) d^m
                ladder = [coeff]
                for _ in range(k):
                    ladder.append(total_x(ladder[-1], cap=cap))
                for m in range(k + 1):
                    by_m.setdefault(m, DiffSum()).add(ladder[k - m], (-1) ** k * comb(k, m))
            sums = ((by_m[m].value(), m) for m in sorted(by_m))
            row.append(tuple((c, m) for c, m in sums if not c.is_zero))
        rows.append(tuple(row))
    return LocalOperator(n=A.n, entries=tuple(rows))


def operator_to_bivector(A: LocalOperator, ctx: "CoveringContext" = None,
                         tail=()) -> BivectorForm:
    """Evaluate the operator on p, adding weight * phi^i * r_alpha tails."""
    comps = []
    for i in range(A.n):
        total = DiffSum()
        for j in range(A.n):
            for coeff, k in A.entries[i][j]:
                total.addmul(coeff, DiffPoly.odd_p(j + 1, k))
        for weight, alpha in tail:
            if ctx is None:
                raise InputError("nonlocal tails need a covering context")
            slot = ctx.slot(alpha)
            total.addmul(slot.phi[i].scalar_mul(weight), DiffPoly.odd_r(alpha))
        comps.append(total.value())
    return BivectorForm(components=tuple(comps))


class CoveringContext:
    """The cotangent covering: rewrite rules for u_t, p_t and registered r's."""

    def __init__(self, system: EvolutionSystem):
        self.system = system
        self.table = linearization_table(system)
        self.slots: list[NonlocalSlot] = []
        self._rx_rules: dict[int, DiffPoly] = {}
        self._dx_cache: dict = {}
        self._cap = jet_cap()  # read once: jet_cap() consults os.environ
        self.pt_rules = self._adjoint_rules()

    # -- construction ----------------------------------------------------------

    def _adjoint_rules(self):
        """Solve the adjoint linearized system for p_{j,t} by parts:
        p_{j,t} = sum_{i,sigma} (-1)^{sigma+1} D_x^sigma(a^i_{j,sigma} p_i)."""
        rules = []
        for j in range(self.system.n):
            acc = DiffSum()
            for (i, jj, sigma), a in self.table.items():
                if jj != j:
                    continue
                term = a * DiffPoly.odd_p(i + 1, 0)
                for _ in range(sigma):
                    term = self.total_x(term)
                acc.add(term, 1 if sigma % 2 else -1)
            rules.append(acc.value())
        return tuple(rules)

    def slot(self, alpha: int) -> NonlocalSlot:
        if not 1 <= alpha <= len(self.slots):
            raise InputError(f"no registered nonlocal slot r{alpha}")
        return self.slots[alpha - 1]

    # -- derivatives -----------------------------------------------------------

    def total_x(self, a: DiffPoly) -> DiffPoly:
        return total_x(a, rx_rules=self._rx_rules, cap=self._cap)

    def _dx_chain(self, kind: str, idx: int, order: int) -> DiffPoly:
        """Cached D_x^order of flux idx ('f') or adjoint rule idx ('p')."""
        key = (kind, idx, order)
        hit = self._dx_cache.get(key)
        if hit is not None:
            return hit
        if order == 0:
            base = self.system.fluxes[idx] if kind == "f" else self.pt_rules[idx]
            self._dx_cache[key] = base
            return base
        prev = self._dx_chain(kind, idx, order - 1)
        value = self.total_x(prev)
        self._dx_cache[key] = value
        return value

    def total_t(self, a: DiffPoly) -> DiffPoly:
        """D_t with all t-derivatives eliminated through the covering rules."""
        res = DiffSum()
        for m, c in a.terms.items():
            for vid in c.field_vars():
                res.addmul(DiffPoly._new({m: c.diff(vid)}), self.system.fluxes[vid - 1])
            for pos, (jv, e) in enumerate(m.even):
                if e > 1:
                    lowered = m.even[:pos] + ((jv, e - 1),) + m.even[pos + 1:]
                else:
                    lowered = m.even[:pos] + m.even[pos + 1:]
                rest = DiffPoly._new({DiffMonomial(lowered, m.odd): c})
                res.addmul(rest, self._dx_chain("f", jv.index - 1, jv.xorder), e)
            if m.odd is not None:
                jv = m.odd
                rest = DiffPoly._new({DiffMonomial(m.even, None): c})
                if jv.kind == KIND_P:
                    rule = self._dx_chain("p", jv.index - 1, jv.xorder)
                else:
                    rule = self.slot(jv.index).rt_rule
                res.addmul(rest, rule)
        return res.value()

    # -- operations --------------------------------------------------------------

    def linearize(self, phi) -> tuple:
        """l_F(phi) reduced on the covering; phi is a symmetry characteristic
        (odd-free) or the image A(p) of an operator (odd-linear)."""
        phi = tuple(phi)
        if len(phi) != self.system.n:
            raise InputError("characteristic has the wrong number of components")
        dx_phi: dict = {}

        def dxp(j, sigma):
            if (j, sigma) not in dx_phi:
                dx_phi[(j, sigma)] = phi[j] if sigma == 0 else self.total_x(dxp(j, sigma - 1))
            return dx_phi[(j, sigma)]

        out = []
        for i in range(self.system.n):
            acc = DiffSum()
            for (ii, j, sigma), a in self.table.items():
                if ii == i:
                    acc.addmul(a, dxp(j, sigma))
            out.append(self.total_t(phi[i]) - acc.value())
        return tuple(out)

    def register_symmetry(self, phi) -> int:
        """Register a symmetry characteristic; returns the slot index alpha.

        The conservation law it generates on the covering determines the
        rewrite rules r_x = phi^i p_i and r_t = the integration-by-parts flux
        of <l_F(phi), p>.
        """
        phi = tuple(phi)
        residual = self.linearize(phi)
        if any(not comp.is_zero for comp in residual):
            raise NotASymmetryError("characteristic is not a symmetry", residual=residual)
        rx = DiffSum()
        for i in range(self.system.n):
            rx.addmul(phi[i], DiffPoly.odd_p(i + 1, 0))
        rt = DiffSum()
        for (i, j, sigma), a in self.table.items():
            if sigma < 1:
                continue
            ap = a * DiffPoly.odd_p(i + 1, 0)
            dm_ap = ap
            for mth in range(sigma):
                # (-1)^m D_x^m(a p_i) * D_x^{sigma-1-m} phi^j
                dphi = phi[j]
                for _ in range(sigma - 1 - mth):
                    dphi = self.total_x(dphi)
                rt.addmul(dm_ap, dphi, -1 if mth % 2 else 1)
                if mth < sigma - 1:
                    dm_ap = self.total_x(dm_ap)
        alpha = len(self.slots) + 1
        slot = NonlocalSlot(alpha=alpha, phi=phi, rx_rule=rx.value(), rt_rule=rt.value())
        self.slots.append(slot)
        self._rx_rules[alpha] = slot.rx_rule
        return alpha


def build_cotangent(system: EvolutionSystem) -> CoveringContext:
    """Construct the cotangent covering of an evolutionary system."""
    return CoveringContext(system)


def linearize(system: EvolutionSystem, phi) -> tuple:
    """l_F(phi) in x-jet normal form, without constructing odd rules."""
    return CoveringContext(system).linearize(phi)


def bivector_residual(ctx: CoveringContext, A: BivectorForm) -> tuple:
    """l_F(A(p)) reduced on the covering; zero iff A is a variational bivector."""
    if len(A.components) != ctx.system.n:
        raise InputError("bivector has the wrong number of components")
    return ctx.linearize(A.components)


def extract_conditions(residual) -> list:
    """Coefficient functions whose joint vanishing is residual = 0."""
    eqs = []
    for comp in residual:
        for m in sorted(comp.terms, key=lambda k: (str(k),)):
            eqs.append(comp.terms[m])
    return eqs

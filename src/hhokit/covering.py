"""Cotangent coverings of evolutionary systems and bivector residuals.

An evolutionary system u^i_t = f^i(x-jets) is augmented with odd variables
p_i obeying the adjoint linearized equations p_t = -l_F*(p), where the
linearization l_F is a ``LocalOperator`` and l_F* its ``formal_adjoint``.  A
differential operator applied to p (``LocalOperator.apply``, the one routine
that applies an operator, l_F included) becomes a vector function linear in
the odd variables, and it is a variational bivector exactly when
D_t A(p) - l_F(A(p)) reduces to zero on the covering.  Symmetries generate
conservation laws linear in the odd variables; their potentials r_alpha
extend the covering with rewrite rules for r_x and r_t, which is how weakly
nonlocal operator tails are handled.  Every chain D_x^0..k of a flux, a p_t
rule, an argument of l_F or a product a p_i is kept in one kind of memo,
``CoveringContext._dx``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .config import jet_cap
from .errors import InputError, NotASymmetryError
from .jets import KIND_P, DiffMonomial, DiffPoly, DiffSum, total_x
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
    return LocalOperator.build(n, [[[(f.partial_jet(j, sigma), sigma)
                                     for sigma in range(f.max_jet_order() + 1)]
                                    for j in range(1, n + 1)] for f in system.fluxes])


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
                    if type(coeff) in _SCALAR_COEFFS:
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

    def apply(self, dx):
        """Yield one DiffSum per row i, sum_j sum_(a, k) a * dx(j, k), where
        dx(j, k) is D_x^k of the j-th argument; row i is formed when asked for."""
        for row in self.entries:
            total = DiffSum()
            for j, entry in enumerate(row):
                for coeff, k in entry:
                    total.addmul(coeff, dx(j, k))
            yield total


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
    if tail and ctx is None:
        raise InputError("nonlocal tails need a covering context")
    rows = list(A.apply(lambda j, k: DiffPoly.odd_p(j + 1, k)))
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
        # ("f", i) flux f^i, ("pt", i) rule p_{i,t}, ("p", i) p_i, ("ap", i, j, sigma) a p_i
        self._chains: dict = {}
        rows = formal_adjoint(self.linearization).neg().apply(
            lambda j, k: self._dx(self._chains, ("p", j), DiffPoly.odd_p(j + 1), k))
        self.pt_rules = tuple(total.value() for total in rows)

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
                i = jv.index - 1
                res.addmul(rest, self._dx(self._chains, ("f", i), self.system.fluxes[i],
                                          jv.xorder), e)
            if m.odd is not None:
                jv = m.odd
                rest = DiffPoly._new({DiffMonomial(m.even, None): c})
                if jv.kind == KIND_P:
                    i = jv.index - 1
                    rule = self._dx(self._chains, ("pt", i), self.pt_rules[i], jv.xorder)
                else:
                    rule = self.slot(jv.index).rt_rule
                res.addmul(rest, rule)
        return res.value()

    # -- operations --------------------------------------------------------------

    def linearize(self, phi) -> tuple:
        """D_t phi - l_F(phi) reduced on the covering; phi is a symmetry
        characteristic (odd-free) or the image A(p) of an operator (odd-linear)."""
        return self._linearize(tuple(phi), {})

    def _linearize(self, phi: tuple, memo: dict) -> tuple:
        """linearize(phi), keeping the ladders D_x^k phi^j in memo[j]."""
        if len(phi) != self.system.n:
            raise InputError("characteristic has the wrong number of components")
        rows = self.linearization.apply(lambda j, k: self._dx(memo, j, phi[j], k))
        return tuple(self.total_t(f) - total.value() for f, total in zip(phi, rows))

    def register_symmetry(self, phi) -> int:
        """Register a symmetry characteristic; returns the slot index alpha.

        The conservation law it generates on the covering determines the
        rewrite rules r_x = phi^i p_i and r_t = the integration-by-parts flux
        of <l_F(phi), p>.
        """
        phi, dphi = tuple(phi), {}
        residual = self._linearize(phi, dphi)
        if any(not comp.is_zero for comp in residual):
            raise NotASymmetryError("characteristic is not a symmetry", residual=residual)
        rx = DiffSum()
        for i in range(self.system.n):
            rx.addmul(phi[i], DiffPoly.odd_p(i + 1, 0))
        rt = DiffSum()
        for i, row in enumerate(self.linearization.entries):
            for j, entry in enumerate(row):
                for a, sigma in entry:
                    ap = a * DiffPoly.odd_p(i + 1, 0)
                    for m in range(sigma):
                        # (-1)^m D_x^m(a p_i) * D_x^{sigma-1-m} phi^j
                        rt.addmul(self._dx(self._chains, ("ap", i, j, sigma), ap, m),
                                  self._dx(dphi, j, phi[j], sigma - 1 - m), -1 if m % 2 else 1)
        alpha = len(self.slots) + 1
        slot = NonlocalSlot(alpha=alpha, phi=phi, rx_rule=rx.value(), rt_rule=rt.value())
        self.slots.append(slot)
        self._rx_rules[alpha] = slot.rx_rule
        return alpha


def build_cotangent(system: EvolutionSystem) -> CoveringContext:
    """Construct the cotangent covering of an evolutionary system."""
    return CoveringContext(system)


def linearize(system: EvolutionSystem, phi) -> tuple:
    """D_t phi - l_F(phi) in x-jet normal form, on a fresh cotangent covering
    (its p_t rules are built too, though an odd-free phi never reads them)."""
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

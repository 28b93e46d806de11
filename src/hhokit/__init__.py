"""hhokit: exact checks and searches for Hamiltonian structures of
evolutionary PDE systems via coverings with odd variables."""

__version__ = "0.1.0"

from .covering import (
    BivectorForm,
    CoveringContext,
    EvolutionSystem,
    LocalOperator,
    bivector_residual,
    build_cotangent,
    extract_conditions,
    linearize,
    operator_to_bivector,
)
from .geometry import (
    ConditionReport,
    Connection,
    Metric,
    SecondOrderData,
    ThirdOrderData,
    char_square_check,
    curvature,
    expanded_first_order_conditions,
    first_order_hamiltonian_check,
    haantjes,
    haantjes_zero_check,
    linear_degeneracy_check,
    nonlocal_first_order_check,
    potentialize,
    second_order_canonical_check,
    second_order_compat,
    third_order_compat,
    third_order_hamiltonian_check,
    third_order_nonlocal_checks,
    tsarev_check,
)
from .grammar import format_diffpoly, format_ratfunc, parse, parse_scalar
from .jets import DiffPoly, collect, dp_mul, total_x
from .linsolve import LinearSystemSolution, linear_solve
from .rational import Poly, RatFunc, rf_arith, rf_partial
from .solver import (
    SolutionFamily,
    find_bivectors,
    find_fluxes_second_order,
    find_fluxes_third_order,
    make_flux_ansatz,
    make_operator_ansatz,
)

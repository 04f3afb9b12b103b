"""Exact computations with higher antibrackets on free superalgebras.

The package constructs the hierarchy of higher brackets Phi^n attached to a
linear operator on a free (super)commutative or free associative
superalgebra, in exact rational arithmetic, and verifies the algebraic
identities the hierarchy satisfies: the generalized Jacobi identities, the
gauge trivialization by the Koszul numbers, the inversion formula, and the
universal standard forms with their conjectured closed-form coefficients.
"""

from __future__ import annotations

from .brackets import (
    AntibracketHierarchy,
    differential_order_check,
    exp_rho_family,
    hierarchy_to_json,
    identity_hierarchy,
    inversion_check,
    jacobi_check,
    jacobi_operators,
    linfinity_check,
    phi_recursion,
    phi_bracket_recursion,
    phi_direct,
    phi_direct_op,
    phi_exponential,
    phi_hierarchy,
)
from .combinatorics import (
    binomial,
    koszul_numbers_chain,
    koszul_numbers_recursive,
    stirling2,
    stirling2_closed_form,
)
from .multilinear import (
    MultiOp,
    canonical_tuples,
    dump_operator,
    first_mismatch,
    is_zero_op,
    lift_endo,
    mu,
    mu_for,
    mu_sym,
    nr_bracket,
    nr_product,
    op_add,
    op_scale,
    op_sum,
    ops_equal,
    rho,
    zero_op,
)
from .qxrep import (
    AbstractPhiCombination,
    QxOperator,
    UniversalCoefficients,
    bn_zero_witness,
    coderivation_check,
    coderivation_dn,
    coefficient_table_entry,
    conjecture_formula,
    duality_check,
    phi_n_signed_sum,
    phi_ni,
    rho_abstract,
    rho_action,
    rho_bracket_check,
    rho_on_phi_ni,
    solve_coefficients,
    solve_linear,
    witt_phi_check,
    witt_psi_check,
)
from .rational import Rational, format_rational, parse_rational, rat
from .series import (
    TruncatedSeries,
    graded_exponential_check,
    exp_derivation,
    exp_minus_one,
    itexp,
    itlog,
    julia_check,
    koszul_numbers_itlog,
    log_one_plus,
    psi_of_series,
    series_compose,
    series_mul,
    hurwitz_series,
    stirling_derivative_check,
)
from .superalgebra import (
    AlgebraElement,
    EndoOp,
    Signature,
    derivation_endo,
    identity_endo,
    koszul_sign,
    multiplication_endo,
    odd_partial_endo,
    random_endo,
    shuffles,
    supercommutator,
    zero_endo,
)

__version__ = "1.0.0"

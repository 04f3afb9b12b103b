"""Exact computations with higher antibrackets on free superalgebras.

The package constructs the hierarchy of higher brackets Phi^n attached to a
linear operator on a free (super)commutative or free associative
superalgebra, in exact rational arithmetic, and verifies the algebraic
identities the hierarchy satisfies: the generalized Jacobi identities, the
gauge trivialization by the Koszul numbers, the inversion formula, and the
universal standard forms with their conjectured closed-form coefficients.
The package level holds the names of the README example and those the
benchmark reads; everything else is imported from its module.
"""

from __future__ import annotations

from .brackets import inversion_check, phi_hierarchy
from .multilinear import (
    canonical_tuples,
    first_mismatch,
    nr_bracket,
    ops_equal,
    random_endo,
)
from .superalgebra import Signature

# "cli" names the submodule.  It is not imported here, so that
# `python -m antibrackets.cli` does not import it twice.
__all__ = [
    "Signature",
    "canonical_tuples",
    "cli",
    "first_mismatch",
    "inversion_check",
    "nr_bracket",
    "ops_equal",
    "phi_hierarchy",
    "random_endo",
]

__version__ = "1.0.0"

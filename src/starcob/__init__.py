"""Exact computer algebra for a dual pair of quiver algebras over GF(2).

The package implements two path algebras on a cyclic quiver with N > 2 nodes
together with their higher operations, the bar and cobar complexes with an
explicit quasi-isomorphism and homotopy certificate between them, a twisted
small model for bigraded cohomology, and exact GF(2) sparse linear algebra.
Every computation is exact; there are no floating-point tolerances.
"""
from __future__ import annotations

from .ainfty import (
    OpResult,
    check_ainfty,
    higher_arity,
    mu_a,
    mu_b,
    op_grading_check,
    parse_fault,
    passing_windows,
    relation_value,
)
from .staralg import (
    AlgElem,
    AWord,
    BWord,
    Grading,
    Word,
    enumerate_basis,
    grading,
    idempotent,
    idempotents,
    letter,
    mul_a,
    mul_b,
    special_element,
    unit,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AWord",
    "BWord",
    "Word",
    "AlgElem",
    "Grading",
    "OpResult",
    "idempotent",
    "idempotents",
    "letter",
    "grading",
    "mul_a",
    "mul_b",
    "mu_a",
    "mu_b",
    "relation_value",
    "check_ainfty",
    "op_grading_check",
    "passing_windows",
    "higher_arity",
    "parse_fault",
    "enumerate_basis",
    "special_element",
    "unit",
]

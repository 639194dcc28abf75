"""Exact factorization invariants for polynomial expressions with
nonnegative coefficients and rational exponents."""

from .coeff import Nat, Quad
from .engine import (
    CertificateReport,
    DivisorSet,
    Factorization,
    atomic_certificate,
    divisors,
    factorizations,
    is_atom,
    is_monolithic,
    length_fn,
    length_profile,
    monolithic_decompose,
    s_divides,
)
from .errors import (
    BudgetError,
    Budgets,
    DomainError,
    InternalError,
    ParseError,
    SemifactorError,
    UsageError,
)
from .intfactor import IntFactorization, IntPoly, factor_int_poly, squarefree_decompose
from .monoid import ExpElem, ExpMonoid, make_monoid, nat_monoid
from .polyexpr import PolyExpr, ambient_exact_div, format_poly, parse
from .polyexpr import monoid_from_literal, semiring_from_literal

__all__ = [
    "Budgets",
    "BudgetError",
    "CertificateReport",
    "DivisorSet",
    "DomainError",
    "ExpElem",
    "ExpMonoid",
    "Factorization",
    "IntFactorization",
    "IntPoly",
    "InternalError",
    "Nat",
    "ParseError",
    "PolyExpr",
    "Quad",
    "SemifactorError",
    "UsageError",
    "ambient_exact_div",
    "atomic_certificate",
    "divisors",
    "factor_int_poly",
    "factorizations",
    "format_poly",
    "is_atom",
    "is_monolithic",
    "length_fn",
    "length_profile",
    "make_monoid",
    "monoid_from_literal",
    "monolithic_decompose",
    "nat_monoid",
    "parse",
    "s_divides",
    "semiring_from_literal",
    "squarefree_decompose",
]

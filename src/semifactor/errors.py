"""Exception taxonomy and resource budgets shared across the package.

The CLI maps these onto exit codes: usage/domain problems exit 1, exhausted
budgets exit 2, broken internal invariants exit 3.  ``Budgets`` is the one
place where budget defaults are written down; every layer reads them from
``DEFAULT_BUDGETS``.
"""
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Budgets:
    """Ceilings on oracle candidates, Z(f) recursion nodes, knapsack nodes
    and the degree of integer factorization; exceeding one is a BudgetError."""

    oracle_candidates: int = field(default=10**6, metadata={"flag": "--oracle-budget"})
    z_nodes: int = field(default=10**5, metadata={"flag": "--z-budget"})
    knapsack_nodes: int = field(default=10**6, metadata={"flag": "--knapsack-budget"})
    degree_limit: int = field(default=24, metadata={"flag": "--degree-limit"})


DEFAULT_BUDGETS = Budgets()


class SemifactorError(Exception):
    """Base class for all library errors."""


class UsageError(SemifactorError):
    """The caller passed arguments that violate an operation's contract."""


class DomainError(SemifactorError):
    """A value lies outside the mathematical domain of an operation."""


class BudgetError(SemifactorError):
    """A configured resource budget (nodes, candidates, degree) ran out."""


class InternalError(SemifactorError):
    """An internal self-check failed; results cannot be trusted."""


def check_degree(degree: int, limit: int):
    """Refuse a degree above ``limit`` before any work that grows with it."""
    if degree > limit:
        raise BudgetError(f"degree {degree} exceeds the factorization limit {limit}")


class ParseError(UsageError):
    """Syntax error in an expression, with the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExponentNotInMonoidError(UsageError):
    """An exponent in a parsed expression is not a member of the monoid."""

    def __init__(self, exponent, monoid_desc):
        super().__init__(f"exponent {exponent} is not a member of {monoid_desc}")
        self.exponent = exponent


class LengthFunctionUnavailableError(DomainError):
    """The supported length-function family has no member for this semiring."""

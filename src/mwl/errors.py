"""Exception types shared across the package, and the one enumeration budget.

Every loop whose work grows with its input calls `charge` with that work
before it starts.
"""

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

# Default cap on the work (candidate vectors, coefficients, entries) of one charge.
DEFAULT_BUDGET = 10**7
BUDGET_ENV_VAR = "MWL_BUDGET"

_explicit_limit: ContextVar[int | None] = ContextVar("mwl_budget", default=None)


class BudgetExceeded(Exception):
    """An enumeration would exceed the configured budget."""


@contextmanager
def budget_limit(limit: int | None) -> Iterator[None]:
    """Charge the enclosed calls against `limit`; None defers to MWL_BUDGET or the default."""
    token = _explicit_limit.set(None if limit is None else int(limit))
    try:
        yield
    finally:
        _explicit_limit.reset(token)


def charge(amount: int, what: str) -> None:
    """Raise BudgetExceeded if `amount` units of work exceed the limit.

    The limit is the innermost `budget_limit` value, else MWL_BUDGET, else DEFAULT_BUDGET.
    """
    limit = _explicit_limit.get()
    if limit is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        limit = int(env) if env else DEFAULT_BUDGET
    if amount > limit:
        raise BudgetExceeded(f"{what} needs {amount} units, beyond the budget of {limit}")


class DegreeMismatch(ValueError):
    """Two homogeneous polynomials of different degrees were combined."""


class NotPrimePower(ValueError):
    """Requested field size is not a supported prime power."""

"""Deterministic work accounting.

One unit is either one valuation row examined by a validity scan or one
node visited by a p-morphism backtracking search.  Budgets are counted,
never timed, so runs are reproducible across machines.
"""

from __future__ import annotations

from .errors import BudgetExceeded

DEFAULT_ENUM_CAP = 8         # enumerate_rooted refuses sizes beyond this
DEFAULT_ALGEBRA_CAP = 64     # carrier bound for algebra construction
DEFAULT_SUBALG_CAP = 16      # carrier bound for subalgebra enumeration
DEFAULT_EPARTITION_CAP = 8   # poset size bound for epartition enumeration


class WorkMeter:
    """Counts work units; raises once a limit is crossed."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int | None = None):
        self.limit = limit
        self.spent = 0

    def charge(self) -> None:
        self.spent += 1
        if self.limit is not None and self.spent > self.limit:
            raise BudgetExceeded(spent=self.spent)

    def remaining(self) -> int | None:
        if self.limit is None:
            return None
        return self.limit - self.spent

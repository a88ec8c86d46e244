"""Deterministic work accounting.

One unit is either one valuation row examined by a validity scan or one
node visited by a p-morphism backtracking search.  Budgets are counted,
never timed, so runs are reproducible across machines.
"""

from __future__ import annotations

DEFAULT_ENUM_CAP = 8         # enumerate_rooted refuses sizes beyond this
DEFAULT_ALGEBRA_CAP = 64     # carrier bound for algebra construction
DEFAULT_SUBALG_CAP = 16      # carrier bound for subalgebra enumeration
DEFAULT_EPARTITION_CAP = 8   # poset size bound for epartition enumeration


class WorkMeter:
    """Counts work units against an optional limit.  The scans and
    searches that add to spent raise BudgetExceeded once they would
    cross it."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int | None = None):
        self.limit = limit
        self.spent = 0

    def remaining(self) -> int | None:
        if self.limit is None:
            return None
        return self.limit - self.spent

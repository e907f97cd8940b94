"""Exception hierarchy shared across the package."""


class ClusterCapError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ClusterCapError):
    """Invalid argument or request outside the supported domain."""


class EnumerationBudgetError(DomainError):
    """Cut enumeration held more closed sets than its budget allows."""

    def __init__(self, held: int, budget: int):
        super().__init__(f"cut enumeration aborted holding {held} closed sets (budget {budget})")
        self.held = held
        self.budget = budget


class StructurallyInfeasibleError(DomainError):
    """Instance cannot be feasible regardless of rates (e.g. unqualified job)."""


class InstanceFormatError(DomainError):
    """Instance file is malformed; message carries field context."""


class LpSolverError(ClusterCapError):
    """The LP backend failed: HiGHS broke down, an answer failed its checks,
    or HiGHS called a capacity LP, feasible and bounded, Infeasible or Unbounded."""

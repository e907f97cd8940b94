"""Exception hierarchy shared across the package."""


class ClusterCapError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ClusterCapError):
    """Invalid argument or request outside the supported domain."""


class EnumerationBudgetError(DomainError):
    """Cut enumeration exceeded its branch-node budget."""

    def __init__(self, nodes: int, budget: int):
        super().__init__(
            f"cut enumeration aborted after {nodes} branch nodes (budget {budget})"
        )
        self.nodes = nodes
        self.budget = budget


class StructurallyInfeasibleError(DomainError):
    """Instance cannot be feasible regardless of rates (e.g. unqualified job)."""


class InstanceFormatError(DomainError):
    """Instance file is malformed; message carries field context."""


class LpSolverError(ClusterCapError):
    """The LP backend failed numerically; distinct from Infeasible/Unbounded."""

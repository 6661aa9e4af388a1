"""Exception hierarchy shared across the package.

Every error raised on purpose derives from MarginalRGError so callers can
catch package failures without swallowing programming mistakes.
"""


class MarginalRGError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(MarginalRGError):
    """A run configuration violates a hypothesis or a structural constraint.

    The message names the violated condition. The CLI maps this to exit
    code 2.
    """


class SolverError(MarginalRGError):
    """Base class for block-solver failures. The CLI maps these to exit 3."""


class NoConvergence(SolverError):
    """Fixed-point iteration hit the iteration cap before reaching tolerance."""

    def __init__(self, iterations, last_delta, tol):
        self.iterations = iterations
        self.last_delta = last_delta
        self.tol = tol
        super().__init__(
            f"no convergence after {iterations} iterations: "
            f"last update {last_delta:.3e} > tol {tol:.3e}"
        )


class Divergence(SolverError):
    """Iterates blew past the norm guard, the block solve is diverging."""

    def __init__(self, iteration, norm, guard):
        self.iteration = iteration
        self.norm = norm
        self.guard = guard
        super().__init__(
            f"divergence at iteration {iteration}: "
            f"block norm {norm:.3e} exceeds guard {guard:.3e}"
        )


class UnderResolved(MarginalRGError):
    """The grid cannot represent the requested operation to tolerance."""


class DomainError(MarginalRGError):
    """An argument lies outside the mathematical domain of an operation."""


class DecompositionDrift(MarginalRGError):
    """The flow state stopped matching its amplitude + remainder split."""


class UnderResolvedWarning(UserWarning):
    """Non-fatal cousin of UnderResolved for norm evaluations."""

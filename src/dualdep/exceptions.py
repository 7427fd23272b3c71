"""Exception types raised across the package."""


class DualdepError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(DualdepError, ValueError):
    """Input data or an option violates a requirement (a bad count, a missing
    stratum, ...); also a ValueError, as Python's own argument checks are."""


class EvaluationError(DualdepError):
    """A likelihood term cannot be evaluated (log of a non-positive argument).

    The message names the offending term, e.g. ``p11A`` or ``N_B - x0B``.
    """

    def __init__(self, term: str, detail: str = ""):
        self.term, self.detail = term, detail
        msg = f"cannot evaluate log-likelihood term '{term}'"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)

    def __reduce__(self):  # rebuilt from its arguments, not its message, after pickling
        return type(self), (self.term, self.detail), self.__dict__


class FitError(DualdepError):
    """The maximum-likelihood fit cannot be attempted on this data."""


class InfeasibleConstraintsError(FitError):
    """The reduced problem's mapped constraint box is empty for this data."""


class NonConvergenceError(FitError):
    """The best starting point did not converge (its projected gradient did
    not reach the tolerance, nor did it stall within the log-likelihood's
    rounding): no start did, or one that stalled sits above every start
    that converged.

    Carries the per-start diagnostics so the caller can inspect what happened.
    """

    def __init__(self, message: str, diagnostics=()):
        self.diagnostics = tuple(diagnostics)
        super().__init__(message)


class InformationMatrixError(DualdepError):
    """The observed information matrix is singular or not positive definite."""


class BootstrapError(DualdepError):
    """Too many bootstrap replicates failed to refit."""

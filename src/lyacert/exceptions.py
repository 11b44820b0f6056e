"""Exception hierarchy for lyacert."""


class LyacertError(Exception):
    """Base class for all lyacert errors."""


class DimensionError(LyacertError, ValueError):
    """Operands have incompatible or invalid shapes."""


class NumericalError(LyacertError, ArithmeticError):
    """A numerical routine failed (non-convergence, breakdown)."""


class NotStableError(LyacertError, ValueError):
    """Operation requires an exponentially stable generator."""


class ResonantSpectrumError(LyacertError, ValueError):
    """The Lyapunov operator is singular: some eigenvalue pair satisfies
    lambda_i + lambda_j = 0."""

    def __init__(self, msg, pair=None):
        super().__init__(msg)
        self.pair = pair


class DivergenceError(LyacertError, ArithmeticError):
    """The improper integral diverges (unstable generator detected)."""


class UnsupportedConeOperation(LyacertError, ValueError):
    """The cone variant does not support the requested operation."""


class InvalidOrderUnitError(LyacertError, ValueError):
    """The given element is not an order unit of the cone."""


class NotPsdError(LyacertError, ValueError):
    """A matrix required to be positive semidefinite is not."""


class NoInjectionExistsError(LyacertError, ValueError):
    """The pair is not detectable: no stabilizing output injection exists."""


class NotObserverError(LyacertError, ValueError):
    """The pair is not finally observable at the requested time."""


class ProblemFormatError(LyacertError, ValueError):
    """A problem file is malformed."""

    def __init__(self, msg, location=None):
        if location:
            msg = f"{location}: {msg}"
        super().__init__(msg)
        self.location = location


class InternalInconsistencyError(LyacertError, RuntimeError):
    """Two routes that must agree disagreed; carries a diagnostic dump."""

    def __init__(self, msg, diagnostics=None):
        super().__init__(msg)
        self.diagnostics = diagnostics or {}

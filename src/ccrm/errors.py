"""Exception types shared across the package."""


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach its tolerance.

    Carries the last residual seen, so callers can decide whether the
    partial result is usable.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NonFiniteError(ValueError):
    """A point that must be finite has a nan or infinite entry."""


class GeometryError(RuntimeError):
    """The equidistance system has no solution in the affine hull."""


class RegularityError(RuntimeError):
    """Smooth-boundary data is degenerate at the queried point."""


class UnsupportedOperation(RuntimeError):
    """The oracle does not provide the requested capability."""

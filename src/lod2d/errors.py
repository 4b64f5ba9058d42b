"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Invalid argument or configuration value."""


class SolverError(RuntimeError):
    """A linear solve failed or did not meet its residual tolerance."""


class DegenerateSigmaError(SolverError):
    """Integration domain yields a singular or near-singular dual-basis system."""

"""Exception types shared across the package."""


class CapabilityError(RuntimeError):
    """Raised when a request exceeds a configured desk-scale limit."""


class InvariantViolation(RuntimeError):
    """A cross-checked mathematical invariant failed; results are suspect."""

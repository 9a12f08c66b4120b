"""Exception types shared across the package."""

from __future__ import annotations


class InfluenceError(ValueError):
    """Raised when an influence vector cannot be normalized or is unusable."""


class RiccatiError(RuntimeError):
    """Raised when a Riccati recursion hits a non-positive-definite inner
    matrix or non-finite values."""

    def __init__(self, message: str, t: int):
        super().__init__(f"{message} at t={t}")
        self.t = t


class SingularInnovationError(RuntimeError):
    """Raised when an innovation covariance is numerically singular."""

    def __init__(self, message: str, t: int):
        super().__init__(f"{message} at t={t}")
        self.t = t


class JointSizeError(ValueError):
    """Raised when a requested joint model exceeds the configured size cap."""


class NonFiniteCostError(RuntimeError):
    """Raised when a simulated cost overflows or turns NaN."""

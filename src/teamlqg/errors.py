"""Exception types shared across the package."""

from __future__ import annotations


class InfluenceError(ValueError):
    """Raised when an influence vector cannot be normalized or is unusable."""


class _StageError(RuntimeError):
    def __init__(self, message: str, t: int):
        super().__init__(f"{message} at t={t}")
        self.t = t


class RiccatiError(_StageError):
    """Raised when a Riccati recursion hits a non-positive-definite inner
    matrix or non-finite values."""


class SingularInnovationError(_StageError):
    """Raised when an innovation covariance is numerically singular."""


class NonFiniteCostError(RuntimeError):
    """Raised when a simulated cost overflows or turns NaN."""

"""Exception types shared across the package."""

from __future__ import annotations


class SpinorFlowError(Exception):
    """Base class for all package errors."""


class InvalidPair(SpinorFlowError):
    """Shape components violate the admissibility system."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class SingularTime(SpinorFlowError):
    """Requested time at or beyond the lifespan boundary."""


class OutOfDomain(SpinorFlowError):
    """Time outside a tabulated lapse profile's domain."""


class NotApplicable(SpinorFlowError):
    """Operation undefined on this branch of the flow."""

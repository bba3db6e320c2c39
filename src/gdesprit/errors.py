"""Exception types shared across the package.

Every class derives from ValueError or RuntimeError, so callers that do not
care about the fine-grained type can catch a builtin; the base class does not
tell bad input from a failed computation.  :data:`INPUT_ERRORS` (the CLI exits
2) and :data:`RUNTIME_ERRORS` (exit 1) do, and each class falls in exactly one:
RankDeficiencyError, a ValueError, is a runtime failure on valid input.
"""

from __future__ import annotations

import numpy as np


class DomainError(ValueError):
    """Invalid index-set construction or incompatible domains."""


class DecompositionError(DomainError):
    """No valid domain decomposition exists (e.g. erosion came out empty)."""


class DegenerateFiberError(DomainError):
    """A fiber of the target grid is a singleton or has gaps."""

    def __init__(self, message: str, fiber=None, dimension: int | None = None):
        super().__init__(message)
        self.fiber = fiber
        self.dimension = dimension


class CoverageError(ValueError):
    """A sample needed to fill the structured matrix is missing."""

    def __init__(self, message: str, missing=None):
        super().__init__(message)
        self.missing = missing


class NonFiniteError(ValueError):
    """Sample values or evaluated model values are not finite."""


class ModelOrderError(ValueError):
    """Requested model order is unsupported by the data."""


class CapacityError(ValueError):
    """Model order exceeds what the target grid can resolve."""

    def __init__(self, message: str, capacity: int | None = None, requested: int | None = None):
        super().__init__(message)
        self.capacity = capacity
        self.requested = requested


class RankDeficiencyError(ValueError):
    """Least-squares system lost full column rank."""

    def __init__(self, message: str, rank: int | None = None):
        super().__init__(message)
        self.rank = rank


class GenerationError(RuntimeError):
    """Random model generation could not satisfy its constraints."""


class PairingError(RuntimeError):
    """Joint diagonalization failed to pair frequency components."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


# Bad input: the CLI exits 2 on these.
INPUT_ERRORS = (DomainError, CoverageError, CapacityError, ModelOrderError, NonFiniteError)

# Failures of a computation on valid input: the CLI exits 1 on these.
RUNTIME_ERRORS = (PairingError, RankDeficiencyError, GenerationError, np.linalg.LinAlgError)

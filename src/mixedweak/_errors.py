"""Exception types shared across the package.

Every failure mode an operator can report deliberately (bad configuration,
violated precondition, refused computation) gets its own class here so that
callers and the CLI can map them to exit codes without string matching.
Plain bugs still surface as ordinary Python exceptions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .weights import ConstantEstimate


class MixedWeakError(Exception):
    """Base class for all deliberate failures raised by this package."""


class ConfigurationError(MixedWeakError, ValueError):
    """Invalid construction parameters or an unparseable config file."""


class SamplingError(MixedWeakError, ValueError):
    """An expression produced a non-finite value at some grid center."""


class GridMismatchError(MixedWeakError, ValueError):
    """Arrays or sampled objects from incompatible grids were combined."""


class GeometryError(MixedWeakError, ValueError):
    """A dyadic interval or dilation request is geometrically invalid."""


class DomainError(MixedWeakError, ValueError):
    """An argument lies outside the mathematical domain of an operator."""


class RangeError(MixedWeakError, ValueError):
    """A requested value is outside the attainable range of a function."""


class HeightError(MixedWeakError, ValueError):
    """A stopping-time decomposition was requested below the root average."""

    def __init__(self, message: str, root_average: float) -> None:
        super().__init__(message)
        self.root_average = root_average


class HypothesisError(MixedWeakError, ValueError):
    """A theorem hypothesis on the inputs is violated (e.g. bad exponent)."""


class PreflightError(MixedWeakError, RuntimeError):
    """Weight-constant estimates are too unstable to trust a verification run."""

    def __init__(self, message: str, estimates: dict[str, ConstantEstimate] | None = None) -> None:
        super().__init__(message)
        self.estimates = dict(estimates or {})

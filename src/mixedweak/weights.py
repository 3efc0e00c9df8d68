"""Weight classes and the numerical estimators for their constants.

Muckenhoupt constants, weighted A_p constants, the BMO norm and the
fundamental ratio (uv)(Q) / (v(Q) inf_Q u) are all suprema of interval
functionals.  Each estimator walks the dyadic(+thirds-shifted) families of a
``DyadicScan`` and pairs the result with the same computation on the
twice-coarsened grid.
Every family tiles one block of cells, so its per-interval sums are prefix
sums or ``np.add.reduceat`` over that block, and its cell minima and maxima
are ``np.minimum.reduceat`` / ``np.maximum.reduceat``.  The ``stable`` flag
(relative gap below ``STABILITY_BAR``) is what separates weights that belong
to a class from those that merely have finite samples.  The BMO norm is the
paper's plain mean oscillation sup_Q avg_Q |b - b_Q|; its p-th-power and
weighted forms are a test oracle (``tests/oracles.py``).

Scanned suprema are lower bounds for the supremum over all cell-aligned
intervals.  With full-depth scans the one-third trick bounds that
all-intervals sup by a fixed multiple of the scan: factor 3 for A_1-type
average ratios, 3**p for A_p products, and 6 for mean oscillations (the
extra 2 from recentering the average).  The tests check this sandwich
against naive all-intervals oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._errors import DomainError, GridMismatchError
from .grid import (
    DyadicScan,
    Grid,
    SampledFunction,
    block_average,
    sample,
    scan_cell_ranges,
)
from .grid import flatten_cell_ranges  # noqa: F401  (unused; perfbench/tracing.py hooks this binding)

__all__ = [
    "STABILITY_BAR",
    "Weight",
    "ConstantEstimate",
    "power_weight",
    "custom_weight",
    "estimate_Ap",
    "estimate_Ap_u",
    "bmo_norm",
    "fundamental_ratio",
]


@dataclass(frozen=True, eq=False)
class Weight:
    """A strictly positive sampled function.

    ``expr`` (when the weight came from a formula) lets refinement
    comparisons resample on a coarser grid; weights built from raw values
    fall back to block averaging.
    """

    fn: SampledFunction
    expr: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if np.any(self.fn.values <= 0.0):
            i = int(np.flatnonzero(self.fn.values <= 0.0)[0])
            raise DomainError(
                f"weights must be strictly positive; value {self.fn.values[i]} "
                f"at x = {self.fn.grid.centers[i]:.6g}"
            )

    @property
    def grid(self) -> Grid:
        return self.fn.grid

    @property
    def values(self) -> np.ndarray:
        return self.fn.values

    def resample(self, grid: Grid) -> "Weight":
        """The same weight on another grid.

        Formula-backed weights are re-sampled; raw weights can only be block
        averaged onto a coarser grid with the same domain.  On its own grid a
        weight is returned as it is.
        """
        if grid == self.grid:
            return self
        if self.expr is not None:
            return Weight(sample(self.expr, grid), self.expr)
        if grid.L != self.grid.L:
            raise GridMismatchError(
                f"raw weight on L={self.grid.L} cannot be resampled to L={grid.L}"
            )
        return Weight(SampledFunction(grid, block_average(self.values, grid)))


def power_weight(grid: Grid, beta: float) -> Weight:
    """w(x) = |x|**beta; finite at every sample because 0 is never a center."""
    if not math.isfinite(beta):
        raise DomainError(f"power weight exponent must be finite, got {beta}")
    return Weight(
        sample(lambda x: np.abs(x) ** beta, grid),
        expr=lambda x: np.abs(x) ** beta,
    )


def custom_weight(grid: Grid, values: np.ndarray) -> Weight:
    return Weight(SampledFunction(grid, values))


#: refinement-stability bar: an estimate is stable when its grids differ by
#: less than this fraction of the fine value; ``verify`` holds a run's sup-ratio
#: to at most this fraction of the coarse value (merged, they flip verdicts)
STABILITY_BAR = 0.2


@dataclass(frozen=True)
class ConstantEstimate:
    """A scanned supremum together with its refinement diagnostics.

    ``refinement_pair`` holds (value on the twice-coarsened grid, value on
    the native grid); ``stable`` is their relative gap tested against
    ``STABILITY_BAR``.
    """

    value: float
    refinement_pair: tuple[float, float]
    stable: bool


def _stability(coarse: float, fine: float) -> bool:
    if not (math.isfinite(coarse) and math.isfinite(fine)):
        return False
    return abs(fine - coarse) < STABILITY_BAR * max(abs(fine), 1e-300)


# --- interval machinery ---------------------------------------------------


def _prefix(vals: np.ndarray) -> np.ndarray:
    out = np.empty(vals.size + 1, dtype=np.float64)
    out[0] = 0.0
    np.cumsum(vals, out=out[1:])
    return out


def _reduce_ranges(ufunc: np.ufunc, vals: np.ndarray, starts, stops) -> np.ndarray:
    """``ufunc`` over each range of a family that tiles ``[starts[0], stops[-1])``."""
    lo = starts[0]
    return ufunc.reduceat(vals[lo : stops[-1]], starts - lo)


def _scan_max(grid: Grid, scan: DyadicScan, functional) -> float:
    best = -math.inf
    for starts, stops in scan_cell_ranges(grid, scan):
        best = max(best, float(np.max(functional(starts, stops))))
    return best


def _refined(grid: Grid, value_at: Callable[[Grid], float]) -> ConstantEstimate:
    fine = value_at(grid)
    coarse = value_at(grid.coarsened())
    return ConstantEstimate(
        value=fine,
        refinement_pair=(coarse, fine),
        stable=_stability(coarse, fine),
    )


# --- Muckenhoupt estimators -----------------------------------------------


def estimate_Ap(w: Weight, p: float, scan: DyadicScan = DyadicScan()) -> ConstantEstimate:
    """Scanned A_p constant: sup over intervals of the A_p average product.

    For p = 1 the functional is avg_Q w / min_Q w (cell min, exact for
    piecewise-constant data); for p > 1 it is
    avg_Q w * (avg_Q w**(-1/(p-1)))**(p-1).  This is the A_p constant with
    respect to Lebesgue measure, the unit weight.
    """
    return estimate_Ap_u(w, custom_weight(w.grid, np.ones(w.grid.N)), p, scan)


def estimate_Ap_u(v: Weight, u: Weight, p: float, scan: DyadicScan = DyadicScan()) -> ConstantEstimate:
    """A_p constant of v with respect to the measure u dx.

    All averages in the A_p functional are taken against u dx; p = 1 uses
    the plain cell min of v, matching the weighted A_1 condition.
    """
    if p < 1.0:
        raise DomainError(f"A_p(u) needs p >= 1, got {p}")
    if v.grid != u.grid:
        raise GridMismatchError("v and u must share a grid")

    def value_at(grid: Grid) -> float:
        vv = v.resample(grid).values
        uu = u.resample(grid).values
        pu = _prefix(uu)
        pvu = _prefix(vv * uu)
        if p == 1.0:
            def functional(starts, stops):
                avg = (pvu[stops] - pvu[starts]) / (pu[stops] - pu[starts])
                return avg / _reduce_ranges(np.minimum, vv, starts, stops)

        else:
            pdu = _prefix(vv ** (-1.0 / (p - 1.0)) * uu)

            def functional(starts, stops):
                umass = pu[stops] - pu[starts]
                avg = (pvu[stops] - pvu[starts]) / umass
                dual = (pdu[stops] - pdu[starts]) / umass
                return avg * dual ** (p - 1.0)

        return _scan_max(grid, scan, functional)

    return _refined(v.grid, value_at)


def fundamental_ratio(u: Weight, v: Weight, scan: DyadicScan = DyadicScan()) -> ConstantEstimate:
    """Scanned sup of (uv)(Q) / (v(Q) * min_Q u), the key two-weight ratio.

    This is the A_1 constant of u with respect to the measure v dx.
    """
    return estimate_Ap_u(u, v, 1.0, scan)


# --- the BMO norm ----------------------------------------------------------


def bmo_norm(b: SampledFunction, scan: DyadicScan = DyadicScan()) -> float:
    """Scanned BMO norm: sup_Q avg_Q |b - b_Q|."""
    bvals = b.values

    def functional(starts, stops):
        lo, hi = starts[0], stops[-1]
        off = starts - lo
        lens = stops - starts
        block = bvals[lo:hi]
        means = np.add.reduceat(block, off) / lens
        dev = np.abs(block - np.repeat(means, lens))
        return np.add.reduceat(dev, off) / lens

    return _scan_max(b.grid, scan, functional)

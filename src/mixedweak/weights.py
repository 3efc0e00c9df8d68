"""Weight classes and the numerical estimators for their constants.

Muckenhoupt constants, reverse Hoelder constants, weighted A_p constants,
BMO-type oscillation norms, John-Nirenberg tails, and the fundamental ratio
(uv)(Q) / (v(Q) inf_Q u) are all suprema of interval functionals.  Each
estimator walks the dyadic(+thirds-shifted) families of a scan, evaluates
its functional on every interval with prefix sums and sparse min/max tables,
and pairs the result with the same computation on the twice-coarsened grid.
The ``stable`` flag (relative gap below 20%) is what separates weights that
belong to a class from those that merely have finite samples.

Scanned suprema are lower bounds for the true supremum over all intervals;
the exhaustive cell-aligned oracle (``ExhaustiveScan``) sandwiches them from
above.  With full-depth scans the one-third trick bounds the oracle by a
fixed multiple of the scan: factor 3 for A_1-type average ratios, 3**p for
A_p products, and 6 for mean oscillations (the extra 2 from recentering the
average).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._errors import DomainError, GeometryError, GridMismatchError
from .grid import (
    DyadicInterval,
    DyadicScan,
    ExhaustiveScan,
    Grid,
    SampledFunction,
    flatten_cell_ranges,
    sample,
    scan_cell_ranges,
)
from .young import ExpL, LuxemburgQuery, luxemburg_norm

__all__ = [
    "Weight",
    "ConstantEstimate",
    "power_weight",
    "product_weight",
    "custom_weight",
    "estimate_Ap",
    "estimate_RH",
    "estimate_RH_inf",
    "estimate_Ap_u",
    "bmo_norm",
    "bmo_w_norm",
    "jn_tail",
    "dilated_average_gap",
    "fundamental_ratio",
    "weighted_expL_vs_plain",
]

Scan = DyadicScan | ExhaustiveScan


@dataclass(frozen=True, eq=False)
class Weight:
    """A strictly positive sampled function with provenance metadata.

    ``expr`` (when the weight came from a formula) lets refinement
    comparisons resample on a coarser grid; weights built from raw values
    fall back to block averaging.
    """

    fn: SampledFunction
    family: str = "custom"
    claimed: tuple[str, ...] = ()
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
        averaged onto a coarser grid with the same domain.
        """
        if self.expr is not None:
            return Weight(sample(self.expr, grid), self.family, self.claimed, self.expr)
        if grid.L != self.grid.L or grid.J > self.grid.J:
            raise GridMismatchError(
                f"raw weight on J={self.grid.J} cannot be resampled to L={grid.L}, J={grid.J}"
            )
        block = 1 << (self.grid.J - grid.J)
        coarse = self.values.reshape(-1, block).mean(axis=1)
        return Weight(SampledFunction(grid, coarse), self.family, self.claimed, None)


def power_weight(grid: Grid, beta: float) -> Weight:
    """w(x) = |x|**beta; finite at every sample because 0 is never a center."""
    if not math.isfinite(beta):
        raise DomainError(f"power weight exponent must be finite, got {beta}")
    claimed: tuple[str, ...]
    if -1.0 < beta <= 0.0:
        claimed = ("A1",)
    elif 0.0 < beta < 1.0:
        claimed = ("A2",)
    else:
        claimed = ()
    return Weight(
        sample(lambda x: np.abs(x) ** beta, grid),
        family=f"power beta={beta:g}",
        claimed=claimed,
        expr=lambda x: np.abs(x) ** beta,
    )


def product_weight(a: Weight, b: Weight) -> Weight:
    if a.grid != b.grid:
        raise GridMismatchError("weight product needs a common grid")
    expr = None
    if a.expr is not None and b.expr is not None:
        ea, eb = a.expr, b.expr
        expr = lambda x: ea(x) * eb(x)  # noqa: E731 - tiny closure
    return Weight(a.fn * b.fn, family=f"({a.family})*({b.family})", expr=expr)


def custom_weight(grid: Grid, values: np.ndarray, family: str = "custom") -> Weight:
    return Weight(SampledFunction(grid, values), family=family)


@dataclass(frozen=True)
class ConstantEstimate:
    """A scanned supremum together with its refinement diagnostics.

    ``refinement_pair`` holds (value on the twice-coarsened grid, value on
    the native grid); ``stable`` is their relative gap tested against 20%.
    """

    value: float
    scan: Scan
    refinement_pair: tuple[float, float]
    stable: bool


def _stability(coarse: float, fine: float) -> bool:
    if not (math.isfinite(coarse) and math.isfinite(fine)):
        return False
    return abs(fine - coarse) < 0.2 * max(abs(fine), 1e-300)


# --- interval machinery ---------------------------------------------------


def _prefix(vals: np.ndarray) -> np.ndarray:
    out = np.empty(vals.size + 1, dtype=np.float64)
    out[0] = 0.0
    np.cumsum(vals, out=out[1:])
    return out


class _SparseExtrema:
    """O(1) range min/max queries after an O(N log N) doubling build."""

    def __init__(self, vals: np.ndarray, op=np.minimum) -> None:
        self.op = op
        self.levels = [np.asarray(vals, dtype=np.float64)]
        width = 1
        while 2 * width <= vals.size:
            prev = self.levels[-1]
            self.levels.append(op(prev[: prev.size - width], prev[width:]))
            width *= 2

    def query(self, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
        widths = stops - starts
        out = np.empty(widths.size, dtype=np.float64)
        ells = np.floor(np.log2(widths)).astype(np.int64)
        for ell in np.unique(ells):
            m = ells == ell
            level = self.levels[int(ell)]
            out[m] = self.op(level[starts[m]], level[stops[m] - (1 << int(ell))])
        return out


def _scan_max(grid: Grid, scan: Scan, functional) -> float:
    best = -math.inf
    for starts, stops in scan_cell_ranges(grid, scan):
        vals = functional(starts, stops)
        if vals.size:
            best = max(best, float(np.max(vals)))
    return best


def _refined(
    scan: Scan, grid: Grid, value_at: Callable[[Grid], float]
) -> ConstantEstimate:
    fine = value_at(grid)
    coarse = value_at(grid.coarsened(2))
    return ConstantEstimate(
        value=fine,
        scan=scan,
        refinement_pair=(coarse, fine),
        stable=_stability(coarse, fine),
    )


# --- Muckenhoupt / reverse Hoelder estimators ------------------------------


def estimate_Ap(w: Weight, p: float, scan: Scan = DyadicScan()) -> ConstantEstimate:
    """Scanned A_p constant: sup over intervals of the A_p average product.

    For p = 1 the functional is avg_Q w / min_Q w (cell min, exact for
    piecewise-constant data); for p > 1 it is
    avg_Q w * (avg_Q w**(-1/(p-1)))**(p-1).  This is the A_p constant with
    respect to Lebesgue measure, the unit weight.
    """
    return estimate_Ap_u(w, custom_weight(w.grid, np.ones(w.grid.N)), p, scan)


def estimate_RH(w: Weight, s: float, scan: Scan = DyadicScan()) -> ConstantEstimate:
    """Scanned reverse Hoelder constant: sup (avg_Q w**s)**(1/s) / avg_Q w."""
    if s <= 1.0:
        raise DomainError(f"reverse Hoelder needs s > 1, got {s}")

    def value_at(grid: Grid) -> float:
        vals = w.resample(grid).values if grid != w.grid else w.values
        pw = _prefix(vals)
        ps = _prefix(vals**s)

        def functional(starts, stops):
            lens = stops - starts
            return ((ps[stops] - ps[starts]) / lens) ** (1.0 / s) * lens / (pw[stops] - pw[starts])

        return _scan_max(grid, scan, functional)

    return _refined(scan, w.grid, value_at)


def estimate_RH_inf(w: Weight, scan: Scan = DyadicScan()) -> ConstantEstimate:
    """RH_infinity proxy: sup over intervals of max_Q w / avg_Q w."""

    def value_at(grid: Grid) -> float:
        vals = w.resample(grid).values if grid != w.grid else w.values
        pw = _prefix(vals)
        maxs = _SparseExtrema(vals, np.maximum)

        def functional(starts, stops):
            lens = stops - starts
            return maxs.query(starts, stops) * lens / (pw[stops] - pw[starts])

        return _scan_max(grid, scan, functional)

    return _refined(scan, w.grid, value_at)


def estimate_Ap_u(v: Weight, u: Weight, p: float, scan: Scan = DyadicScan()) -> ConstantEstimate:
    """A_p constant of v with respect to the measure u dx.

    All averages in the A_p functional are taken against u dx; p = 1 uses
    the plain cell min of v, matching the weighted A_1 condition.
    """
    if p < 1.0:
        raise DomainError(f"A_p(u) needs p >= 1, got {p}")
    if v.grid != u.grid:
        raise GridMismatchError("v and u must share a grid")

    def value_at(grid: Grid) -> float:
        vv = v.resample(grid).values if grid != v.grid else v.values
        uu = u.resample(grid).values if grid != u.grid else u.values
        pu = _prefix(uu)
        pvu = _prefix(vv * uu)
        if p == 1.0:
            mins = _SparseExtrema(vv, np.minimum)

            def functional(starts, stops):
                avg = (pvu[stops] - pvu[starts]) / (pu[stops] - pu[starts])
                return avg / mins.query(starts, stops)

        else:
            pdu = _prefix(vv ** (-1.0 / (p - 1.0)) * uu)

            def functional(starts, stops):
                umass = pu[stops] - pu[starts]
                avg = (pvu[stops] - pvu[starts]) / umass
                dual = (pdu[stops] - pdu[starts]) / umass
                return avg * dual ** (p - 1.0)

        return _scan_max(grid, scan, functional)

    return _refined(scan, v.grid, value_at)


def fundamental_ratio(u: Weight, v: Weight, scan: Scan = DyadicScan()) -> ConstantEstimate:
    """Scanned sup of (uv)(Q) / (v(Q) * min_Q u), the key two-weight ratio.

    This is the A_1 constant of u with respect to the measure v dx.
    """
    return estimate_Ap_u(u, v, 1.0, scan)


# --- oscillation norms -----------------------------------------------------


def _oscillation_max(
    grid: Grid,
    bvals: np.ndarray,
    wvals: np.ndarray | None,
    scan: Scan,
    p: float,
) -> float:
    """sup over scanned Q of (avg-with-w of |b - b_Q|**p)**(1/p), b_Q unweighted."""
    best = 0.0
    for starts, stops in scan_cell_ranges(grid, scan):
        lens = (stops - starts).astype(np.float64)
        idx, seg = flatten_cell_ranges(starts, stops)
        means = np.bincount(seg, weights=bvals[idx], minlength=starts.size) / lens
        dev = np.abs(bvals[idx] - means[seg])
        if p != 1.0:
            dev = dev**p
        if wvals is None:
            osc = np.bincount(seg, weights=dev, minlength=starts.size) / lens
        else:
            wmass = np.bincount(seg, weights=wvals[idx], minlength=starts.size)
            osc = np.bincount(seg, weights=dev * wvals[idx], minlength=starts.size) / wmass
        if p != 1.0:
            osc = osc ** (1.0 / p)
        if osc.size:
            best = max(best, float(np.max(osc)))
    return best


def bmo_norm(b: SampledFunction, scan: Scan = DyadicScan(), p: float = 1.0) -> float:
    """Scanned BMO norm: sup_Q (avg_Q |b - b_Q|**p)**(1/p)."""
    if p < 1.0:
        raise DomainError(f"oscillation exponent must be >= 1, got {p}")
    return _oscillation_max(b.grid, b.values, None, scan, p)


def bmo_w_norm(b: SampledFunction, w: Weight, scan: Scan = DyadicScan()) -> float:
    """Weighted-oscillation norm sup_Q (1/w(Q)) int_Q |b - b_Q| w, b_Q unweighted."""
    if w.grid != b.grid:
        raise GridMismatchError("b and w must share a grid")
    return _oscillation_max(b.grid, b.values, w.values, scan, 1.0)


def jn_tail(
    b: SampledFunction, Q: DyadicInterval, lambdas: Sequence[float]
) -> list[tuple[float, float]]:
    """Empirical oscillation tails |{x in Q : |b - b_Q| > lam}| / |Q| per lam."""
    if Q.grid != b.grid:
        raise GeometryError("interval and function live on different grids")
    if Q.is_empty:
        raise GeometryError("tail fractions need a nonempty interval")
    vals = b.values[Q.cell_slice]
    dev = np.abs(vals - float(np.mean(vals)))
    out = []
    for lam in lambdas:
        if lam < 0.0:
            raise DomainError(f"tail height must be nonnegative, got {lam}")
        out.append((float(lam), float(np.count_nonzero(dev > lam)) / dev.size))
    return out


def dilated_average_gap(b: SampledFunction, Q: DyadicInterval, k: int) -> float:
    """|b_Q - b_{2^k Q}| with the concentric dilate clipped to the domain.

    Dilate membership is by closed endpoints (the dilate endpoints can tie
    with cell centers, unlike the thirds-shifted lattice).  k = 0 is the
    interval itself, gap 0.
    """
    if Q.grid != b.grid:
        raise GeometryError("interval and function live on different grids")
    if Q.is_empty:
        raise GeometryError("cannot dilate an interval with no cells")
    if k < 0:
        raise DomainError(f"dilation exponent must be >= 0, got {k}")
    if k == 0:
        return 0.0
    grid = b.grid
    center = 0.5 * (Q.a + Q.b)
    half = 0.5 * (Q.b - Q.a) * float(2**k)
    lo = max(-grid.L, center - half)
    hi = min(grid.L, center + half)
    i0 = int(np.searchsorted(grid.centers, lo, side="left"))
    i1 = int(np.searchsorted(grid.centers, hi, side="right"))
    if i1 <= i0 or i0 > Q.cell_start or i1 < Q.cell_stop:
        raise GeometryError(f"degenerate dilate [{lo}, {hi}] for k={k}")
    mean_q = float(np.mean(b.values[Q.cell_slice]))
    mean_d = float(np.mean(b.values[i0:i1]))
    return abs(mean_q - mean_d)


def weighted_expL_vs_plain(
    b: SampledFunction, Q: DyadicInterval, w: Weight
) -> tuple[float, float]:
    """Both exponential-Orlicz norms of b - b_Q on Q: (w-weighted, plain)."""
    if w.grid != b.grid:
        raise GridMismatchError("b and w must share a grid")
    if Q.grid != b.grid:
        raise GeometryError("interval and function live on different grids")
    mean_q = float(np.mean(b.values[Q.cell_slice]))
    dev = SampledFunction(b.grid, b.values - mean_q)
    phi = ExpL(1.0)
    weighted = luxemburg_norm(LuxemburgQuery(dev, Q, phi, w.fn))
    plain = luxemburg_norm(LuxemburgQuery(dev, Q, phi))
    return weighted, plain

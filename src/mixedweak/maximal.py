"""Maximal operators: Hardy-Littlewood, iterated, and Orlicz variants.

All of them are pointwise sups of interval quantities over the scanned
dyadic(+shifted) families, so they share one engine: per scanned family,
compute the quantity on every interval (a plain average or a Luxemburg
norm) and scatter it onto the member cells with a running maximum.  Each
family of a ``DyadicScan`` tiles one contiguous block of cells, so the
scatter is one ``np.maximum`` of that block with the norms repeated over
their lengths.  The single-cell interval is always available, which gives
the floor M f >= |f| (and |f| / phi^{-1}(1) for the Orlicz case)
independent of the scan's depth.

``hl_maximal`` is ``orlicz_maximal`` with the identity Young function; the
linear fast path inside the segmented Luxemburg solver turns that into the
plain average, so the two agree bitwise rather than merely to tolerance.

The scanned sup is a lower bound for the true uncentered maximal function;
``brute_force_maximal`` (all O(N^2) cell-aligned intervals, guarded to
N <= 256) bounds it from above by the one-third-trick factor 3.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ._errors import DomainError, GridMismatchError, RangeError
from .grid import DyadicScan, SampledFunction, scan_cell_ranges
from .grid import _positive_heights, modular_mass, superlevel_mass
from .grid import flatten_cell_ranges  # noqa: F401  (unused; perfbench/tracing.py hooks this binding)
from .weights import Weight
from .young import Identity, LLogL, YoungFunction, _unit_argument, segmented_luxemburg_norms

__all__ = [
    "hl_maximal",
    "iterated_maximal",
    "orlicz_maximal",
    "compare_llogl_iterated",
    "brute_force_maximal",
    "weak_modular_check",
]


def orlicz_maximal(
    f: SampledFunction,
    phi: YoungFunction,
    scan: DyadicScan = DyadicScan(),
    w: Weight | None = None,
) -> SampledFunction:
    """M_{phi,w} f: sup over scanned intervals containing x of the Luxemburg norm.

    With ``phi = Identity`` and no weight this is the scanned Hardy-Littlewood
    maximal function.  Each scanned family tiles one block of cells, so its
    norms are scattered onto that block with one running maximum.
    """
    if w is not None and w.grid != f.grid:
        raise GridMismatchError("maximal weight must live on the grid of f")
    absf = np.abs(f.values)
    wvals = None if w is None else w.values
    # single-cell Luxemburg norm in closed form; keeps Mf >= |f| at any depth
    out = absf / _unit_argument(phi)
    for starts, stops in scan_cell_ranges(f.grid, scan):
        norms = segmented_luxemburg_norms(phi, absf, wvals, starts, stops)
        block = out[starts[0] : stops[-1]]
        np.maximum(block, np.repeat(norms, stops - starts), out=block)
    return SampledFunction(f.grid, out)


def hl_maximal(f: SampledFunction, scan: DyadicScan = DyadicScan()) -> SampledFunction:
    """Scanned Hardy-Littlewood maximal function sup_{Q ni x} avg_Q |f|."""
    return orlicz_maximal(f, Identity(), scan)


def iterated_maximal(
    f: SampledFunction, m: int, scan: DyadicScan = DyadicScan()
) -> SampledFunction:
    """M^m f by literal composition, reusing the same scan every pass."""
    if m < 1:
        raise DomainError(f"iteration count must be >= 1, got {m}")
    out = f
    for _ in range(m):
        out = hl_maximal(out, scan)
    return out


def compare_llogl_iterated(
    f: SampledFunction, m: int, scan: DyadicScan = DyadicScan()
) -> tuple[float, float]:
    """Two-sided pointwise constants between M_{L(logL)^m} f and M^{m+1} f.

    Returns (min, max) of the ratio over the grid; cells where both sides
    vanish are skipped (only possible for f identically zero, which is
    rejected).
    """
    if m < 1:
        raise DomainError(f"comparison order must be >= 1, got {m}")
    if not np.any(f.values):
        raise DomainError("comparison needs f not identically zero")
    orlicz = orlicz_maximal(f, LLogL(1.0, float(m)), scan).values
    iterated = iterated_maximal(f, m + 1, scan).values
    keep = (orlicz != 0.0) | (iterated != 0.0)
    ratio = orlicz[keep] / iterated[keep]
    return float(np.min(ratio)), float(np.max(ratio))


def brute_force_maximal(f: SampledFunction, max_cells: int = 256) -> SampledFunction:
    """Exact uncentered maximal over all cell-aligned intervals, N <= 256.

    One pass per left endpoint: the averages over [i, j) for all j are a
    prefix-sum ratio, and the best interval containing cell k with left
    endpoint i is their suffix maximum.
    """
    n = f.grid.N
    if n > max_cells:
        raise RangeError(f"brute-force maximal refused: N={n} exceeds {max_cells} cells")
    absf = np.abs(f.values)
    prefix = np.concatenate(([0.0], np.cumsum(absf)))
    out = np.zeros(n, dtype=np.float64)
    for i in range(n):
        means = (prefix[i + 1 :] - prefix[i]) / np.arange(1, n - i + 1, dtype=np.float64)
        best = np.maximum.accumulate(means[::-1])[::-1]
        np.maximum(out[i:], best, out=out[i:])
    return SampledFunction(f.grid, out)


def weak_modular_check(
    g: SampledFunction,
    phi: YoungFunction,
    u: Weight,
    t_values: Sequence[float],
    scan: DyadicScan = DyadicScan(),
) -> list[tuple[float, float, float]]:
    """Rows (t, u{M_phi g > t}, int phi(g/t) Mu dx) of the weak modular bound.

    The left side is the u-measure of the superlevel set of the Orlicz
    maximal function; the right side majorizes it up to a constant when u is
    arbitrary (its maximal function absorbs the roughness).
    """
    if np.any(g.values < 0.0):
        raise DomainError("weak modular check needs g >= 0")
    if u.grid != g.grid:
        raise GridMismatchError("u must live on the grid of g")
    ts = _positive_heights(t_values)
    mg = orlicz_maximal(g, phi, scan).values
    mu = hl_maximal(u.fn, scan).values
    lhs = superlevel_mass(g.grid.h, mg, u.values, ts)
    rhs = modular_mass(g.grid.h, g.values, phi, mu, ts)
    return list(zip(ts.tolist(), lhs.tolist(), rhs.tolist()))

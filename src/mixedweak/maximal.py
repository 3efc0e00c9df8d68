"""Maximal operators: Hardy-Littlewood, iterated, and Orlicz variants.

All of them are pointwise sups of interval quantities over the scanned
dyadic(+shifted) families, so they share one engine: per scanned family,
compute the quantity on the intervals (a plain average or a Luxemburg norm)
and scatter it onto the member cells with a running maximum.  The
single-cell interval is always available, which gives the floor M f >= |f|
(and |f| / phi^{-1}(1) for the Orlicz case) independent of the scan's
depth.

Only the members whose norm could raise the running maximum go to the
Luxemburg solver, and both skips are exact, so the output is bitwise what
solving every member would give.  A member without a cell where |f| w > 0
has norm 0, which cannot raise a maximum that starts at |f| / c >= 0: each
family is cut to the members from the first to the last one that meets
the support.  For a phi that is not linear, the norm on I is at most
max_I |f| / c with c = phi^{-1}(1), whatever the weight, because the
modular there is at most phi(c) = 1; a member whose bound (times 1 + 1e-9,
far above the solver's 1e-12 excess) does not exceed the least running
value over its cells is skipped too.  Families run coarse to fine, so the
long intervals raise the running maximum first and most fine members away
from the peaks of |f| are skipped.  The members left form runs of adjacent
intervals; each run tiles its own block and is one solver call.

``hl_maximal`` is ``orlicz_maximal`` with the identity Young function; the
linear fast path inside the segmented Luxemburg solver turns that into the
plain average, so the two agree bitwise rather than merely to tolerance.

The scanned sup is a lower bound for the true uncentered maximal function;
the exact all-intervals oracle of the test suite bounds it from above by
the one-third-trick factor 3.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ._errors import DomainError, GridMismatchError
from .grid import DyadicScan, SampledFunction, scan_cell_ranges
from .grid import _positive_heights, modular_mass, superlevel_mass
from .grid import flatten_cell_ranges  # noqa: F401  (unused; perfbench/tracing.py hooks this binding)
from .weights import Weight
from .young import (
    Identity,
    LLogL,
    YoungFunction,
    _linear_scale,
    _unit_argument,
    segmented_luxemburg_norms,
)

__all__ = [
    "hl_maximal",
    "iterated_maximal",
    "orlicz_maximal",
    "compare_llogl_iterated",
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
    maximal function.  Each family is cut to the members between the first
    and the last cell where |f| w > 0; for a phi that is not linear, a member
    is also skipped when its cap max_I |f| / phi^{-1}(1) cannot exceed the
    running maximum on any of its cells.  Both skips leave the output bitwise
    unchanged (see the module docstring).  Every run of adjacent kept members
    is one call to the segmented solver and one running maximum of its block.
    """
    if w is not None and w.grid != f.grid:
        raise GridMismatchError("maximal weight must live on the grid of f")
    absf = np.abs(f.values)
    wvals = None if w is None else w.values
    c = _unit_argument(phi)
    capped = _linear_scale(phi) is None
    # single-cell Luxemburg norm in closed form; keeps Mf >= |f| at any depth
    out = absf / c
    nz = np.flatnonzero(absf if wvals is None else absf * wvals)
    if nz.size == 0:
        return SampledFunction(f.grid, out)
    for starts, stops in scan_cell_ranges(f.grid, scan):
        # the members from the first to the last one that meets the support
        first = int(np.searchsorted(stops, nz[0], side="right"))
        last = int(np.searchsorted(starts, nz[-1], side="right"))
        if first >= last:
            continue
        starts, stops = starts[first:last], stops[first:last]
        if capped:
            lo, off = starts[0], starts - starts[0]
            cap = np.maximum.reduceat(absf[lo : stops[-1]], off) / c * (1.0 + 1e-9)
            keep = cap > np.minimum.reduceat(out[lo : stops[-1]], off)
            ends = np.flatnonzero(np.diff(keep, prepend=False, append=False))
        else:
            ends = np.array([0, starts.size])
        for a, b in zip(ends[::2], ends[1::2]):
            norms = segmented_luxemburg_norms(phi, absf, wvals, starts[a:b], stops[a:b])
            block = out[starts[a] : stops[b - 1]]
            np.maximum(block, np.repeat(norms, stops[a:b] - starts[a:b]), out=block)
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

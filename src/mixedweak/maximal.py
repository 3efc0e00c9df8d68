"""Maximal operators: the Hardy-Littlewood and Orlicz maximal functions.

All of them are pointwise sups of interval quantities over the scanned
dyadic(+shifted) families, so they share one engine: per scanned family,
compute the quantity on the intervals (a plain average or a Luxemburg norm)
and scatter it onto the member cells with a running maximum.  The
single-cell interval is always available, which gives the floor M f >= |f|
(and |f| / phi^{-1}(1) for the Orlicz case) independent of the scan's
depth.

Only the members whose norm could raise the running maximum go to the
Luxemburg solver, and both skips are exact, so the output is bitwise what
solving every member would give.  A member without a cell where f != 0 has
norm 0, which cannot raise a maximum that starts at |f| / c >= 0: each
family is cut to the members from the first to the last one that meets
the support.  For a phi that is not linear, the norm on I is at most
max_I |f| / c with c = phi^{-1}(1), because the modular there is at most
phi(c) = 1; a member whose bound (times 1 + 1e-9, far above the solver's
1e-12 excess) does not exceed the least running value over its cells is
skipped too.  Families run coarse to fine, so the long intervals raise the
running maximum first and most fine members away from the peaks of |f| are
skipped.  The members left form runs of adjacent intervals; each run tiles
its own block and is one solver call.

``hl_maximal`` is ``orlicz_maximal`` with the identity Young function; the
linear fast path inside the segmented Luxemburg solver turns that into the
plain average, so the two agree bitwise rather than merely to tolerance.

The scanned sup is a lower bound for the true uncentered maximal function;
the exact all-intervals oracle of the test suite bounds it from above by
the one-third-trick factor 3.
"""

from __future__ import annotations

import numpy as np

from .grid import DyadicScan, SampledFunction, scan_cell_ranges
from .grid import flatten_cell_ranges  # noqa: F401  (unused; perfbench/tracing.py hooks this binding)
from .young import (
    Identity,
    YoungFunction,
    _linear_scale,
    _unit_argument,
    segmented_luxemburg_norms,
)

__all__ = [
    "hl_maximal",
    "orlicz_maximal",
]


def orlicz_maximal(
    f: SampledFunction,
    phi: YoungFunction,
    scan: DyadicScan = DyadicScan(),
) -> SampledFunction:
    """M_phi f: sup over scanned intervals containing x of the Luxemburg norm.

    With ``phi = Identity`` this is the scanned Hardy-Littlewood maximal
    function.  Each family is cut to the members between the first and the
    last cell where f != 0; for a phi that is not linear, a member is also
    skipped when its cap max_I |f| / phi^{-1}(1) cannot exceed the running
    maximum on any of its cells.  Both skips leave the output bitwise
    unchanged (see the module docstring).  Every run of adjacent kept members
    is one call to the segmented solver and one running maximum of its block.
    """
    absf = np.abs(f.values)
    c = _unit_argument(phi)
    capped = _linear_scale(phi) is None
    # single-cell Luxemburg norm in closed form; keeps Mf >= |f| at any depth
    out = absf / c
    nz = np.flatnonzero(absf)
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
            norms = segmented_luxemburg_norms(phi, absf, None, starts[a:b], stops[a:b])
            block = out[starts[a] : stops[b - 1]]
            np.maximum(block, np.repeat(norms, stops[a:b] - starts[a:b]), out=block)
    return SampledFunction(f.grid, out)


def hl_maximal(f: SampledFunction, scan: DyadicScan = DyadicScan()) -> SampledFunction:
    """Scanned Hardy-Littlewood maximal function sup_{Q ni x} avg_Q |f|."""
    return orlicz_maximal(f, Identity(), scan)

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
skipped.  The members left form runs of adjacent intervals.

Runs are solved in batches, since one solver call on a run of a few
thousand cells costs more in call overhead than in arithmetic.  The runs
of successive families gather into one batch until the next run would
push its span past ``BATCH_CELLS`` cells; then the batch is flushed, and
so is the last one when the scan ends.  A run that spans the budget on its
own is solved in place.  A batch of several runs is gathered with
``flatten_cell_ranges`` into one buffer that the runs' member ranges tile,
so it is one call to the segmented solver, whose per-range results do not
depend on the other ranges of the call.  The skip test of each family
reads the running maximum as of the last flush.  That is a lower bound of
the final output, so a skipped member still cannot raise it, and the
output stays bitwise equal to solving every member.

A caller that reads the output only on the cells ``lo:hi`` passes
``cells=(lo, hi)``, and each family is also cut to the members that meet
that range, the same cut the support of f gets.  The intervals containing
a cell of the range all meet it, so the output is exact there; elsewhere
it is the sup over fewer intervals, a lower bound.

``hl_maximal`` is ``orlicz_maximal`` with the identity Young function; the
linear fast path inside the segmented Luxemburg solver turns that into the
plain average, so the two agree bitwise rather than merely to tolerance.

The scanned sup is a lower bound for the true uncentered maximal function;
the exact all-intervals oracle of the test suite bounds it from above by
the one-third-trick factor 3.
"""

from __future__ import annotations

import numpy as np

from .grid import DyadicScan, SampledFunction, flatten_cell_ranges, scan_cell_ranges
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

#: the most cells one gathered solver call spans
BATCH_CELLS = 1 << 14


def _solve(phi: YoungFunction, absf: np.ndarray, out: np.ndarray, runs: list) -> None:
    """Solve every member of ``runs`` in one solver call and raise ``out`` to the norms."""
    if len(runs) == 1:
        ((starts, stops),) = runs
        norms = segmented_luxemburg_norms(phi, absf, None, starts, stops)
    else:
        blocks = np.array([(starts[0], stops[-1]) for starts, stops in runs])
        idx, _ = flatten_cell_ranges(blocks[:, 0], blocks[:, 1])
        edges = np.cumsum(np.concatenate([stops - starts for starts, stops in runs]))
        norms = segmented_luxemburg_norms(phi, absf[idx], None, np.append(0, edges[:-1]), edges)
    at = 0
    for starts, stops in runs:
        block = out[starts[0] : stops[-1]]
        np.maximum(block, np.repeat(norms[at : at + starts.size], stops - starts), out=block)
        at += starts.size


def orlicz_maximal(
    f: SampledFunction,
    phi: YoungFunction,
    scan: DyadicScan = DyadicScan(),
    cells: tuple[int, int] | None = None,
) -> SampledFunction:
    """M_phi f: sup over scanned intervals containing x of the Luxemburg norm.

    With ``phi = Identity`` this is the scanned Hardy-Littlewood maximal
    function.  Each family is cut to the members that meet both the hull of
    the cells where f != 0 and, when given, the cell range ``cells = (lo,
    hi)``; the output is then exact on ``lo:hi`` and a lower bound elsewhere.
    For a phi that is not linear, a member is also skipped when its cap
    max_I |f| / phi^{-1}(1) cannot exceed the running maximum on any of its
    cells.  The runs of adjacent kept members are solved in batches of at
    most ``BATCH_CELLS`` cells, one solver call each, and a run that spans
    the budget on its own is solved in place.  The skips read the running
    maximum as of the last solve, so the output is bitwise what solving every
    member gives (see the module docstring).
    """
    absf = np.abs(f.values)
    c = _unit_argument(phi)
    capped = _linear_scale(phi) is None
    # single-cell Luxemburg norm in closed form; keeps Mf >= |f| at any depth
    out = absf / c
    nz = np.flatnonzero(absf)
    if nz.size == 0:
        return SampledFunction(f.grid, out)
    lo, hi = (0, f.grid.N) if cells is None else cells
    # a member meets both ranges iff it ends past both starts and starts before both ends
    lo, hi = max(lo, int(nz[0])), min(hi, int(nz[-1]) + 1)
    batch, span = [], 0
    for starts, stops in scan_cell_ranges(f.grid, scan):
        first = int(np.searchsorted(stops, lo, side="right"))
        last = int(np.searchsorted(starts, hi, side="left"))
        if first >= last:
            continue
        starts, stops = starts[first:last], stops[first:last]
        if capped:
            at, off = starts[0], starts - starts[0]
            cap = np.maximum.reduceat(absf[at : stops[-1]], off) / c * (1.0 + 1e-9)
            keep = cap > np.minimum.reduceat(out[at : stops[-1]], off)
            ends = np.flatnonzero(np.diff(keep, prepend=False, append=False))
        else:
            ends = np.array([0, starts.size])
        for a, b in zip(ends[::2], ends[1::2]):
            run = (starts[a:b], stops[a:b])
            width = int(stops[b - 1] - starts[a])
            if width >= BATCH_CELLS:
                _solve(phi, absf, out, [run])
                continue
            if span + width > BATCH_CELLS:
                _solve(phi, absf, out, batch)
                batch, span = [], 0
            batch.append(run)
            span += width
    if batch:
        _solve(phi, absf, out, batch)
    return SampledFunction(f.grid, out)


def hl_maximal(
    f: SampledFunction, scan: DyadicScan = DyadicScan(), cells: tuple[int, int] | None = None
) -> SampledFunction:
    """Scanned Hardy-Littlewood maximal function sup_{Q ni x} avg_Q |f|.

    With ``cells = (lo, hi)`` only the intervals that meet ``lo:hi`` are
    scanned: the output is exact there and a lower bound elsewhere.
    """
    return orlicz_maximal(f, Identity(), scan, cells)

"""Maximal operators: the Hardy-Littlewood and Orlicz maximal functions.

All of them are pointwise sups of interval quantities over the scanned
dyadic(+shifted) families, so they share one engine: per scanned family,
compute the quantity on the intervals (a plain average or a Luxemburg norm)
and scatter it onto the member cells with a running maximum.  The
single-cell interval is always available, which gives the floor M f >= |f|
(and |f| / phi^{-1}(1) for the Orlicz case) independent of the scan's
depth.

A family is an arithmetic progression of cells (``grid.scan_progressions``),
cut in integers to the members k0 <= k < k1 that meet the cells ``lo:hi``
still in play, ``k0 = max(0, (lo - c) // M)`` and ``k1 = ceil((hi - c) / M)``.
They tile the block ``a:b``, and ``grid.per_member`` raises each member's
cells to its value.  No array over the whole family is built.

A member without a cell where f != 0 has norm 0, which cannot raise a
maximum that starts at |f| / phi^{-1}(1) >= 0, so ``lo:hi`` starts as the
hull of the cells where f != 0.  A caller that reads the output only on the cells
``lo:hi`` passes ``cells=(lo, hi)``, and the hull is cut to that range too.
The intervals containing a cell of the range all meet it, so the output is
exact there; elsewhere it is the sup over fewer intervals, a lower bound.

For a linear phi(t) = s t (``Identity``, ``Power(1, s)``, ``LLogL(1, 0)``)
the norm is s times the mean, and each family is solved in place: the
member means of its block (``grid.member_means``) times s, just as the
linear branch of the segmented Luxemburg solver computes it.  So the output
is bitwise what that solver gives on every member, and no solver call,
gather or batch is made.  ``hl_maximal`` is ``orlicz_maximal`` with the identity.

Only a phi that is not linear goes to the Luxemburg solver, and only the
members whose norm could raise the running maximum do; both skips are
exact, so the output is bitwise what solving every member would give.  The
norm on I is at most max_I |f| / phi^{-1}(1), because the modular there is
at most phi(phi^{-1}(1)) = 1; a member whose bound (times 1 + 1e-9, far
above the solver's 1e-12 excess) does not exceed the least running value
over its cells is skipped.  Families run coarse to fine, so the long
intervals raise the running maximum first and most fine members away from
the peaks of |f| are skipped.  The members left form runs of adjacent
intervals.

Runs are solved in batches, since one solver call on a run of a few
thousand cells costs more in call overhead than in arithmetic.  The runs
of successive families gather into one batch until the next run would
push its span past ``BATCH_CELLS`` cells; then the batch is flushed, and
so is the last one when the scan ends.  A run that spans the budget on its
own is solved in place, on its view of |f|.  A batch of several runs is
the concatenation of their views, with each run's member offsets moved to
where the run starts in it, so it is one call to the segmented solver,
whose per-range results do not depend on the other ranges of the call.
The skip test of each family reads the running maximum as of the last
flush.  That is a lower bound of the final output, so a skipped member
still cannot raise it, and the output stays bitwise equal to solving
every member.

Only a convex phi is taken, as by the Luxemburg solvers: any other is
refused on entry, whatever f is, f = 0 included.

The scanned sup is a lower bound for the true uncentered maximal function;
the exact all-intervals oracle of the test suite bounds it from above by
the one-third-trick factor 3.
"""

from __future__ import annotations

import numpy as np

from .grid import DyadicScan, SampledFunction, member_means, per_member, scan_progressions
from .grid import flatten_cell_ranges  # noqa: F401  (unused; perfbench/tracing.py hooks this binding)
from .grid import scan_cell_ranges  # noqa: F401  (unused; perfbench/tracing.py hooks this binding)
from .young import (
    Identity,
    YoungFunction,
    _linear_scale,
    _require_convex,
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
    """Solve every member of the runs ``(a, b, M)`` in one solver call and raise
    ``out`` to the norms: members of length ``M`` tile each run's cells ``a:b``."""
    at, views, offs = 0, [], []
    for a, b, M in runs:
        views.append(absf[a:b])
        offs.append(np.arange(at, at + b - a, M))
        at += b - a
    if len(runs) == 1:
        norms = segmented_luxemburg_norms(phi, views[0], offs[0])
    else:
        norms = segmented_luxemburg_norms(phi, np.concatenate(views), np.concatenate(offs))
    at = 0
    for (a, b, M), off in zip(runs, offs):
        per_member(np.maximum, out[a:b], norms[at : at + off.size], M, out[a:b])
        at += off.size


def orlicz_maximal(
    f: SampledFunction,
    phi: YoungFunction,
    scan: DyadicScan = DyadicScan(),
    cells: tuple[int, int] | None = None,
) -> SampledFunction:
    """M_phi f: sup over scanned intervals containing x of the Luxemburg norm.

    With ``phi = Identity`` this is the scanned Hardy-Littlewood maximal
    function.  Each family is read as a strided progression of cells and cut
    to the members that meet both the hull of the cells where f != 0 and,
    when given, the cell range ``cells = (lo, hi)``; the output is then
    exact on ``lo:hi`` and a lower bound elsewhere.  A linear phi is solved
    in place, one ``reduceat`` per family.  For any other phi, a member is
    skipped when its cap max_I |f| / phi^{-1}(1) cannot exceed the running
    maximum on any of its cells, and the runs of adjacent kept members are
    solved in batches of at most ``BATCH_CELLS`` cells, one solver call
    each; a run that spans the budget on its own is solved in place.  The
    skips read the running maximum as of the last solve, so the output is
    bitwise what solving every member gives (see the module docstring).  A
    non-convex phi is refused before f is read.
    """
    _require_convex(phi)
    absf = np.abs(f.values)
    unit = _unit_argument(phi)
    scale = _linear_scale(phi)
    # single-cell Luxemburg norm in closed form; keeps Mf >= |f| at any depth
    out = absf / unit
    live = absf != 0.0
    if not live.any():
        return SampledFunction(f.grid, out)
    N = f.grid.N
    lo, hi = (0, N) if cells is None else cells
    # a member meets both ranges iff it ends past both starts and starts before both ends
    lo, hi = max(lo, int(live.argmax())), min(hi, N - int(live[::-1].argmax()))
    batch, span = [], 0
    for M, c in scan_progressions(f.grid, scan):
        k0, k1 = max(0, (lo - c) // M), -((c - hi) // M)
        if k0 >= k1:
            continue
        a, b = c + k0 * M, min(N, c + k1 * M)
        if scale is not None:
            per_member(np.maximum, out[a:b], scale * member_means(absf[a:b], M), M, out[a:b])
            continue
        off = np.arange(0, b - a, M)
        cap = np.maximum.reduceat(absf[a:b], off) / unit * (1.0 + 1e-9)
        # the kept members, padded by one dropped member at each end: a run starts
        # and ends where the padded flags change
        keep = np.zeros(off.size + 2, dtype=bool)
        np.greater(cap, np.minimum.reduceat(out[a:b], off), out=keep[1:-1])
        ends = np.flatnonzero(keep[1:] != keep[:-1]).tolist()
        for i, j in zip(ends[::2], ends[1::2]):
            run = (a + i * M, min(b, a + j * M), M)
            width = run[1] - run[0]
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

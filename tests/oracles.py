"""Test-only reference implementations of the maximal operators.

Nothing in the package calls these.  They are slow on purpose: each one
computes its operator the plain way, so a fast path can be checked against
it on small grids.
"""

from __future__ import annotations

import numpy as np

from mixedweak._errors import RangeError
from mixedweak.grid import DyadicScan, SampledFunction, scan_cell_ranges
from mixedweak.young import _unit_argument, segmented_luxemburg_norms


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


def per_family_orlicz_maximal(f, phi, scan=DyadicScan(), w=None):
    """Scanned Orlicz maximal values with every member of every family solved.

    Each scanned family tiles one block of cells, so its norms are scattered
    onto that block with one running maximum; no member is skipped.
    """
    absf = np.abs(f.values)
    wvals = None if w is None else w.values
    out = absf / _unit_argument(phi)
    for starts, stops in scan_cell_ranges(f.grid, scan):
        norms = segmented_luxemburg_norms(phi, absf, wvals, starts, stops)
        block = out[starts[0] : stops[-1]]
        np.maximum(block, np.repeat(norms, stops - starts), out=block)
    return out

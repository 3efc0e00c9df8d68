"""Weight classes and the numerical estimators for their constants.

Muckenhoupt constants, weighted A_p constants, the BMO norm and the
fundamental ratio (uv)(Q) / (v(Q) inf_Q u) are all suprema of interval
functionals.  Each estimator walks the dyadic(+thirds-shifted) families of a
``DyadicScan`` on its inputs' own grid and returns the scanned sup.

A family is an arithmetic progression of cells (``grid.scan_progressions``):
member k is ``[c + kM, min(N, c + (k+1)M))``, and only the last member can be
clipped.  So a prefix sum P is read at the family's edges as the strided view
``P[c::M]``, with ``P[N]`` closing a clipped member; no index array is built.
The A_1 cell minima come from one halving pyramid, ``S_0 = w`` and
``S_{k+1} = min(S_k[:-2^k], S_k[2^k:])``, so that ``S_k[i] = min
w[i : i + 2^k]`` and the unclipped members of a family with ``M = 2^k`` read
``S_k[c::M]``; the families are served from the finest scale up, one level
live at a time, and a clipped member reads a suffix minimum.  The Lebesgue
mass of a member is its cell count.  The BMO norm subtracts each member's
mean by broadcasting over the ``(K, M)`` reshape of a family's unclipped
members and sums with ``np.add.reduceat`` over the family's block.

Every value equals, bit for bit, what the per-family gather path gives (the
oracle in ``tests/oracles.py``): a strided read reads the same prefix sums
as a gather, the cumsum of ones is exact below 2**53, min is exact so any
grouping of it gives the same cell minima, the sums keep their order, and
the max over families does not depend on their order.

A caller that wants to know whether a constant holds still under refinement
builds its inputs on a grid and on ``Grid.coarsened()``, runs the estimator
on both, and pairs the two values with ``refined``: its ``stable`` flag
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

import numpy as np

from ._errors import DomainError, GridMismatchError
from .grid import DyadicScan, Grid, SampledFunction, sample, scan_progressions
from .grid import flatten_cell_ranges  # noqa: F401  (unused; perfbench/tracing.py hooks this binding)
from .grid import scan_cell_ranges  # noqa: F401  (unused; perfbench/tracing.py hooks this binding)

__all__ = [
    "STABILITY_BAR",
    "Weight",
    "ConstantEstimate",
    "refined",
    "power_weight",
    "estimate_Ap",
    "estimate_Ap_u",
    "bmo_norm",
    "fundamental_ratio",
]


@dataclass(frozen=True, eq=False)
class Weight:
    """A strictly positive sampled function."""

    fn: SampledFunction

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


def power_weight(grid: Grid, beta: float) -> Weight:
    """w(x) = |x|**beta; finite at every sample because 0 is never a center."""
    if not math.isfinite(beta):
        raise DomainError(f"power weight exponent must be finite, got {beta}")
    return Weight(sample(lambda x: np.abs(x) ** beta, grid))


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


def refined(coarse: float, fine: float) -> ConstantEstimate:
    """Pair one constant's values on ``Grid.coarsened()`` and on the grid itself.

    Stable means both are finite and they differ by less than
    ``STABILITY_BAR`` times the fine value.
    """
    stable = (math.isfinite(coarse) and math.isfinite(fine)
              and abs(fine - coarse) < STABILITY_BAR * max(abs(fine), 1e-300))
    return ConstantEstimate(value=fine, refinement_pair=(coarse, fine), stable=stable)


# --- family reads ----------------------------------------------------------


def _prefix(vals: np.ndarray) -> np.ndarray:
    out = np.empty(vals.size + 1, dtype=np.float64)
    out[0] = 0.0
    np.cumsum(vals, out=out[1:])
    return out


def _sums(P: np.ndarray, M: int, c: int):
    """Member sums of family ``(M, c)`` from the prefix sum ``P``: an array over
    the unclipped members (the strided view ``P[c::M]``), and the clipped last
    member's sum, or None when the family has none."""
    edges = P[c::M]
    n = P.size - 1
    return edges[1:] - edges[:-1], (P[n] - edges[-1] if (n - c) % M else None)


def _sup(families: list[list[float]]) -> float:
    """Max over the families of their members' values.

    A family that holds a NaN is passed over, as a family-by-family fold
    ``best = max(best, float(np.max(values)))`` does; the families' order
    then does not matter.
    """
    return max((max(m) for m in families if not any(map(math.isnan, m))), default=-math.inf)


# --- Muckenhoupt estimators -----------------------------------------------


def estimate_Ap(w: Weight, p: float, scan: DyadicScan = DyadicScan()) -> float:
    """Scanned A_p constant: sup over intervals of the A_p average product.

    For p = 1 the functional is avg_Q w / min_Q w (cell min, exact for
    piecewise-constant data); for p > 1 it is
    avg_Q w * (avg_Q w**(-1/(p-1)))**(p-1).  This is the A_p constant with
    respect to Lebesgue measure, the unit weight: a member's mass is its cell
    count.
    """
    return _scanned_Ap(w, None, p, scan)


def estimate_Ap_u(v: Weight, u: Weight, p: float, scan: DyadicScan = DyadicScan()) -> float:
    """A_p constant of v with respect to the measure u dx.

    All averages in the A_p functional are taken against u dx; p = 1 uses
    the plain cell min of v, matching the weighted A_1 condition.
    """
    return _scanned_Ap(v, u, p, scan)


def _scanned_Ap(v: Weight, u: Weight | None, p: float, scan: DyadicScan) -> float:
    """The A_p sup of v against u dx, or against dx when ``u`` is None.

    Families are served from the finest scale up, so that the A_1 cell minima
    come from one halving pyramid: ``mins[i] = min v[i : i + M]`` at the
    current member length ``M``, one level live at a time, with a suffix
    minimum for the clipped members.  Each family keeps only its maximum; the
    clipped members are evaluated together in one array pass at the end.
    """
    if p < 1.0:
        raise DomainError(f"A_p(u) needs p >= 1, got {p}")
    if u is not None and v.grid != u.grid:
        raise GridMismatchError("v and u must share a grid")
    vv, uu, N = v.values, None if u is None else u.values, v.grid.N
    pvu = _prefix(vv if uu is None else vv * uu)
    pu = None if uu is None else _prefix(uu)
    if p == 1.0:
        suffix = np.minimum.accumulate(vv[::-1])[::-1]
    else:
        dual = vv ** (-1.0 / (p - 1.0))
        if uu is not None:
            dual *= uu
        pdu = _prefix(dual)
        del dual

    def functional(vu, um, x):
        # x is the cell minimum for p = 1 and the dual weight's sum otherwise;
        # vu and a dual sum x are temporaries, reused in place
        vu /= um
        if p == 1.0:
            vu /= x
        else:
            x /= um
            x **= p - 1.0  # the operator, as ``**`` takes numpy's fast paths for 0.5, 1, 2
            vu *= x
        return vu

    def family(M, c, mins):
        # the unclipped members' max, and the clipped member's reads (or None)
        rest = (N - c) % M
        vu, vu_tail = _sums(pvu, M, c)
        if pu is None:  # the cumsum of ones is exact: the mass is the cell count
            um, um_tail = float(M), float(rest)
        else:
            um, um_tail = _sums(pu, M, c)
        if p == 1.0:
            x, x_tail = mins[c::M], suffix[N - rest] if rest else None
        else:
            x, x_tail = _sums(pdu, M, c)
        body = functional(vu, um, x)
        members = [float(body.max())] if body.size else []
        return members, None if vu_tail is None else (vu_tail, um_tail, x_tail)

    mins, width = vv, 1
    families, owners, tails = [], [], []
    for M, c in sorted(scan_progressions(v.grid, scan)):
        while p == 1.0 and width < M:
            mins = np.minimum(mins[:-width], mins[width:])
            width *= 2
        members, tail = family(M, c, mins)
        families.append(members)
        if tail is not None:
            owners.append(members)
            tails.append(tail)
    vu, um, x = np.array(tails, dtype=np.float64).reshape(-1, 3).T.copy()
    for members, value in zip(owners, functional(vu, um, x).tolist()):
        members.append(value)
    return _sup(families)


def fundamental_ratio(u: Weight, v: Weight, scan: DyadicScan = DyadicScan()) -> float:
    """Scanned sup of (uv)(Q) / (v(Q) * min_Q u), the key two-weight ratio.

    This is the A_1 constant of u with respect to the measure v dx.
    """
    return estimate_Ap_u(u, v, 1.0, scan)


# --- the BMO norm ----------------------------------------------------------


def _means(sums: np.ndarray, M: int, rest: int) -> np.ndarray:
    """Divide a family's member sums by their lengths in place: ``M``, and
    ``rest`` for a clipped last member when there is one."""
    last = sums[-1] / rest if rest else None
    sums /= M
    if rest:
        sums[-1] = last
    return sums


def bmo_norm(b: SampledFunction, scan: DyadicScan = DyadicScan()) -> float:
    """Scanned BMO norm: sup_Q avg_Q |b - b_Q|.

    Each member's mean is subtracted by broadcasting over the ``(K, M)``
    reshape of the family's unclipped members, and from the clipped one
    apart; both sums are ``np.add.reduceat`` over the family's block.
    """
    bvals = b.values
    N = b.grid.N
    dev = np.empty(N, dtype=np.float64)

    def family(M, c):
        K, rest = divmod(N - c, M)
        KM = K * M
        block, d = bvals[c:], dev[: N - c]
        off = np.arange(0, N - c, M)
        means = _means(np.add.reduceat(block, off), M, rest)
        np.subtract(block[:KM].reshape(K, M), means[:K, None], out=d[:KM].reshape(K, M))
        if rest:
            np.subtract(block[KM:], means[K], out=d[KM:])
        np.abs(d, out=d)
        return [float(_means(np.add.reduceat(d, off), M, rest).max())]

    return _sup([family(M, c) for M, c in scan_progressions(b.grid, scan)])

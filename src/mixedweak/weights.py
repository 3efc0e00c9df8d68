"""Weight classes and the numerical estimators for their constants.

Muckenhoupt constants, weighted A_p constants, the BMO norm and the
fundamental ratio (uv)(Q) / (v(Q) inf_Q u) are all suprema of interval
functionals.  Each estimator walks the dyadic(+thirds-shifted) families of a
``DyadicScan`` on its inputs' own grid and returns the scanned sup.

A family is an arithmetic progression of cells (``grid.scan_progressions``),
and ``grid``'s member helpers read it, the clipped last member included:
``member_sums`` reads a prefix sum at the family's edges as the strided view
``P[c::M]``, so no index array is built, and ``divide_by_widths`` divides by
a member's Lebesgue mass, its cell count.  The A_1 cell minima come from
``grid.halving_pyramid``: its level ``S`` for ``M = 2^k`` holds ``S[i] = min
w[i : min(N, i + M)]``, so a family reads its members' minima as
``S[c::M]``; the families are served from the finest scale up, one level
live at a time.

The BMO norm computes only the members whose range can raise its sup.  For
a member Q of M cells, avg_Q |b - b_Q| <= R / 2 with R = max_Q b - min_Q b.
As computed in floats the value is at most ``R / 2 + (M - 1) unit``, with
``unit = 2**-50 max|b| + 2**-1072``, for M >= 2: the mean is off by at most
``g_M max|b|``, the average deviation from it is rounded up by at most a
factor ``1 + g_(M+1)`` (``g_n = n u / (1 - n u)``, ``u = 2**-53``), and the
second term covers underflow.  A one-cell member's value is exactly 0.  A
factor ``1 + 1e-9`` on ``R / 2`` covers the rounding of the bound itself.
The slack matters: a constant 0.1 has range 0, yet its members' rounded
values differ, and a finer member's can exceed the seeds'.  Sums that
overflow void the bound, so a symbol with ``4 N max|b|`` above the float
range computes every member.

Every value equals, bit for bit, what the per-family gather path gives (the
oracle in ``tests/oracles.py``): a strided read reads the same prefix sums
as a gather, the gather's cumsum of ones is exact below 2**53, min is exact
so any grouping of it gives the same cell minima, the sums keep their order,
and the max over families does not depend on their order.  The BMO norm's
kept members are summed in the order of the whole family's block, so each
keeps its bits, and a skipped member cannot raise the max.

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
from .grid import DyadicScan, Grid, SampledFunction, divide_by_widths, gather_members, halving_pyramid
from .grid import member_means, member_sums, per_member, sample, scan_progressions
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
class Weight(SampledFunction):
    """A strictly positive sampled function; arithmetic on it gives a plain
    ``SampledFunction``."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if np.any(self.values <= 0.0):
            i = int(np.flatnonzero(self.values <= 0.0)[0])
            raise DomainError(
                f"weights must be strictly positive; value {self.values[i]} "
                f"at x = {self.grid.centers[i]:.6g} (cell {i})"
            )


def power_weight(grid: Grid, beta: float) -> Weight:
    """w(x) = |x|**beta; finite at every sample because 0 is never a center."""
    if not math.isfinite(beta):
        raise DomainError(f"power weight exponent must be finite, got {beta}")
    return sample(lambda x: np.abs(x) ** beta, grid, Weight)


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


def _sup(maxima: list[float]) -> float:
    """Max over the families' maxima.

    A family that holds a NaN has a NaN maximum and is passed over, as a
    family-by-family fold ``best = max(best, float(np.max(values)))`` does;
    the families' order then does not matter.
    """
    return max((m for m in maxima if not math.isnan(m)), default=-math.inf)


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
    come from one ``halving_pyramid``: ``mins(M)[i] = min v[i : min(N, i +
    M)]`` at the current member length ``M``.  Each family keeps only its
    maximum.
    """
    if p < 1.0:
        raise DomainError(f"A_p(u) needs p >= 1, got {p}")
    if u is not None and v.grid != u.grid:
        raise GridMismatchError("v and u must share a grid")
    vv, N = v.values, v.grid.N
    pvu = _prefix(vv if u is None else vv * u.values)
    pu = None if u is None else _prefix(u.values)
    vu_out, um_out = np.empty(N), None if u is None else np.empty(N)

    def per_mass(sums, um, M, c):
        # divide by the members' masses in place; a Lebesgue member's mass is its cell count
        return divide_by_widths(sums, M, N - c) if um is None else np.divide(sums, um, out=sums)

    if p == 1.0:
        mins = halving_pyramid(np.minimum, vv)
    else:
        dual = vv ** (-1.0 / (p - 1.0))
        if u is not None:
            dual *= u.values
        pdu = _prefix(dual)
        del dual
        x_out = np.empty(N)
    maxima = []
    for M, c in sorted(scan_progressions(v.grid, scan)):
        vu = member_sums(pvu, M, c, vu_out)
        um = None if u is None else member_sums(pu, M, c, um_out)
        per_mass(vu, um, M, c)
        if p == 1.0:
            vu /= mins(M)[c::M]
        else:
            x = per_mass(member_sums(pdu, M, c, x_out), um, M, c)
            x **= p - 1.0  # the operator, as ``**`` takes numpy's fast paths for 0.5, 1, 2
            vu *= x
        maxima.append(float(vu.max()))
    return _sup(maxima)


def fundamental_ratio(u: Weight, v: Weight, scan: DyadicScan = DyadicScan()) -> float:
    """Scanned sup of (uv)(Q) / (v(Q) * min_Q u), the key two-weight ratio.

    This is the A_1 constant of u with respect to the measure v dx.
    """
    return estimate_Ap_u(u, v, 1.0, scan)


# --- the BMO norm ----------------------------------------------------------


#: a member's half range times this bounds its mean oscillation, with room
#: for the rounding of the bound itself (module docstring)
_HALF_RANGE = 0.5 * (1.0 + 1e-9)


def bmo_norm(b: SampledFunction, scan: DyadicScan = DyadicScan()) -> float:
    """Scanned BMO norm: sup_Q avg_Q |b - b_Q|.

    A member's value averages its cells with ``member_means``, subtracts
    the mean with ``per_member`` and averages the absolute deviations.  The
    two coarsest scales are computed in full and seed the running sup.  The
    other families run fine to coarse, and a member of M cells is computed
    only if its bound ``(max_Q b - min_Q b) / 2 * (1 + 1e-9) + (M - 1)
    unit`` exceeds the running sup (module docstring).  The ranges are read
    at ``[c::M]`` from a max and a min ``halving_pyramid``, and the kept
    members are gathered end to end with ``gather_members``; a family that
    keeps more than half of its cells is computed whole.  The bound holds
    for the computed value, so a skipped member cannot raise the sup, and a
    kept one is summed in the same order as in its family's block, so the
    result keeps every bit.
    """
    bvals, N = b.values, b.grid.N

    def exact(M, c, rows=None):
        # the largest value on members ``rows`` of family (M, c), all of them when None
        block = bvals[c:] if rows is None else gather_members(bvals, M, c, rows)
        d = np.empty_like(block)
        per_member(np.subtract, block, member_means(block, M), M, d)
        np.abs(d, out=d)
        return float(member_means(d, M).max())

    walk = sorted(scan_progressions(b.grid, scan))
    A = max(float(bvals.max()), -float(bvals.min()))
    if not math.isfinite(4.0 * N * A):
        return _sup([exact(M, c) for M, c in walk])
    fine = [(M, c) for M, c in walk if 4 * M <= N]
    sup = _sup([exact(M, c) for M, c in walk[len(fine):]])
    unit = 2.0**-50 * A + 2.0**-1072
    top, bottom = halving_pyramid(np.maximum, bvals), halving_pyramid(np.minimum, bvals)
    for M, c in fine:
        if M == 1:  # a one-cell member's value is exactly 0
            continue
        # the bound exceeds sup, solved for the range; 1e-9 covers the division's rounding
        rows = (top(M)[c::M] - bottom(M)[c::M] > (sup - (M - 1) * unit) / _HALF_RANGE).nonzero()[0]
        if rows.size:
            sup = max(sup, exact(M, c, None if 2 * rows.size * M > N - c else rows))
    return sup

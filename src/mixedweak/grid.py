"""Cell-centered grids, dyadic intervals, and midpoint quadrature.

Everything in this package is piecewise constant on a uniform grid over
``[-L, L]``: ``N = 2**J`` cells of width ``h = 2L/N`` sampled at the cell
centers ``x_i = -L + (i + 1/2) h``.  The half-cell offset keeps ``0`` (and
every other dyadic breakpoint) off the sample lattice, so power weights
``|x|**beta`` are finite at all samples even for ``beta < -1``.

Dyadic intervals at scale ``j`` split ``[-L, L]`` into ``2**j`` equal pieces.
Scans additionally walk the two families shifted by ``1/3`` and ``2/3`` of
the interval length (clipped to the domain): the union of the three
breakpoint lattices at scale ``j`` has spacing ``l_j / 3``, so every interval
``I`` with ``|I| <= (2/3) l_j`` is contained in some scanned interval of
length at most ``3 |I|``.  Suprema over scanned families therefore sandwich
suprema over all intervals up to that fixed factor of 3, which is what the
brute-force oracle tests rely on.

Cell membership of an interval is decided in exact integer arithmetic
(thirds never hit a cell center), so scans are reproducible and immune to
floating-point ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from ._errors import (
    ConfigurationError,
    DomainError,
    GeometryError,
    GridMismatchError,
    RangeError,
    SamplingError,
)

__all__ = [
    "Grid",
    "SampledFunction",
    "DyadicInterval",
    "DyadicScan",
    "ExhaustiveScan",
    "THIRD_SHIFTS",
    "make_grid",
    "sample",
    "integrate",
    "dyadic_intervals",
    "scan_cell_ranges",
    "flatten_cell_ranges",
]

#: The shift menu used by default scans: unshifted plus the two thirds shifts.
THIRD_SHIFTS: tuple[float, float, float] = (0.0, 1.0 / 3.0, 2.0 / 3.0)

# Resolution band accepted by make_grid; the Grid type itself also allows the
# coarser grids that refinement comparisons construct internally.
_MIN_USER_J = 4
_MAX_USER_J = 24


def _cell_range(grid: "Grid", j: int, k, p: int):
    """Cells ``[start, stop)`` whose centers lie in ``[a0, a0 + l_j)``, clipped to [0, N].

    ``a0 = -L + (k + p/3) l_j``, and ``x_i >= a0  <=>  i >= ((3k + p)
    2^(J-j+1) - 3) / 6``; both ceilings are taken exactly in integers.  ``k``
    is a Python int or an int64 array (one range per interval of a family).
    """
    scale = 1 << (grid.J - j + 1)
    start = -((3 - (3 * k + p) * scale) // 6)
    stop = -((3 - (3 * k + 3 + p) * scale) // 6)
    if isinstance(k, np.ndarray):
        return np.clip(start, 0, grid.N, out=start), np.clip(stop, 0, grid.N, out=stop)
    return max(0, min(start, grid.N)), max(0, min(stop, grid.N))


def _shift_to_thirds(shift: float) -> int:
    """Map a shift in {0, 1/3, 2/3} to its numerator in thirds."""
    for p in (0, 1, 2):
        if math.isclose(shift, p / 3.0, rel_tol=0.0, abs_tol=1e-12):
            return p
    raise GeometryError(f"shift must be one of 0, 1/3, 2/3, got {shift!r}")


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered partition of ``[-L, L]`` into ``2**J`` cells.

    Parameters
    ----------
    L : float
        Half-width of the domain, positive and finite.
    J : int
        Resolution exponent; the grid has ``N = 2**J`` cells.
    """

    L: float
    J: int

    def __post_init__(self) -> None:
        if not isinstance(self.J, int):
            raise ConfigurationError(f"resolution exponent J must be an int, got {self.J!r}")
        if not (1 <= self.J <= 30):
            raise ConfigurationError(f"resolution exponent J={self.J} outside the supported band [1, 30]")
        L = float(self.L)
        if not (math.isfinite(L) and L > 0.0):
            raise ConfigurationError(f"domain half-width L must be positive and finite, got {self.L!r}")
        object.__setattr__(self, "L", L)
        centers = -L + (np.arange(1 << self.J, dtype=np.float64) + 0.5) * self.h
        centers.setflags(write=False)
        object.__setattr__(self, "_centers", centers)

    @property
    def N(self) -> int:
        """Number of cells."""
        return 1 << self.J

    @property
    def h(self) -> float:
        """Cell width ``2L / N``."""
        return 2.0 * self.L / (1 << self.J)

    @property
    def centers(self) -> np.ndarray:
        """Read-only array of the ``N`` cell centers, ascending."""
        return self._centers  # type: ignore[attr-defined]

    def coarsened(self, dj: int = 2) -> "Grid":
        """Same domain at resolution ``J - dj`` (used for refinement checks)."""
        if dj < 0 or self.J - dj < 1:
            raise ConfigurationError(f"cannot coarsen J={self.J} by dj={dj}")
        return Grid(self.L, self.J - dj)

    def interior_mask(self, margin: float) -> np.ndarray:
        """Boolean mask of cells with ``|x_i| <= (1 - margin) * L``."""
        if not (0.0 <= margin < 0.5):
            raise DomainError(f"margin must lie in [0, 0.5), got {margin}")
        return np.abs(self.centers) <= (1.0 - margin) * self.L


def make_grid(L: float, J: int) -> Grid:
    """Construct a grid, enforcing the supported resolution band.

    Parameters
    ----------
    L : float
        Domain half-width.
    J : int
        Resolution exponent, ``4 <= J <= 24``.
    """
    if not isinstance(J, int) or not (_MIN_USER_J <= J <= _MAX_USER_J):
        raise ConfigurationError(
            f"J must be an integer in [{_MIN_USER_J}, {_MAX_USER_J}], got {J!r}"
        )
    return Grid(L, J)


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Cell values of a function on a :class:`Grid`.

    ``values`` is copied and frozen on construction; all samples must be
    finite.  Arithmetic between sampled functions on the same grid (and with
    scalars) is provided so weight products like ``u * v`` read naturally.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64, copy=True)
        if vals.shape != (self.grid.N,):
            raise GridMismatchError(
                f"expected {self.grid.N} samples for J={self.grid.J}, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            i = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise SamplingError(
                f"non-finite sample {vals[i]!r} at x = {self.grid.centers[i]:.6g} (cell {i})"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def _coerce(self, other: "SampledFunction | float") -> np.ndarray:
        if isinstance(other, SampledFunction):
            if other.grid != self.grid:
                raise GridMismatchError(
                    f"grid mismatch: (L={self.grid.L}, J={self.grid.J}) vs "
                    f"(L={other.grid.L}, J={other.grid.J})"
                )
            return other.values
        return np.float64(other)

    def __add__(self, other: "SampledFunction | float") -> "SampledFunction":
        return SampledFunction(self.grid, self.values + self._coerce(other))

    def __sub__(self, other: "SampledFunction | float") -> "SampledFunction":
        return SampledFunction(self.grid, self.values - self._coerce(other))

    def __mul__(self, other: "SampledFunction | float") -> "SampledFunction":
        return SampledFunction(self.grid, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other: "SampledFunction | float") -> "SampledFunction":
        return SampledFunction(self.grid, self.values / self._coerce(other))

    def __abs__(self) -> "SampledFunction":
        return SampledFunction(self.grid, np.abs(self.values))


def sample(expr: Callable[[np.ndarray], np.ndarray], grid: Grid) -> SampledFunction:
    """Evaluate a vectorized expression at the cell centers.

    Parameters
    ----------
    expr : callable
        Maps an array of points to an array of values (numpy broadcasting
        rules; a scalar result is broadcast to all cells).
    grid : Grid

    Raises
    ------
    SamplingError
        If any produced value is non-finite (the message names the center).
    """
    with np.errstate(all="ignore"):
        raw = expr(grid.centers)
    vals = np.broadcast_to(np.asarray(raw, dtype=np.float64), (grid.N,))
    return SampledFunction(grid, vals)


@dataclass(frozen=True)
class DyadicInterval:
    """One interval of a (possibly thirds-shifted) dyadic family, clipped to the domain.

    The unclipped interval is ``[a0, a0 + l_j)`` with ``a0 = -L + (k + s) l_j``,
    ``l_j = 2L * 2**-j`` and shift ``s = shift_thirds / 3``.  Cell membership
    (centers in ``[a0, a0 + l_j)``) is computed exactly in integers; thirds
    shifts can never tie with a cell center.
    """

    grid: Grid
    j: int
    k: int
    shift_thirds: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.j <= self.grid.J):
            raise GeometryError(f"scale j={self.j} outside [0, J={self.grid.J}]")
        if not (0 <= self.k < (1 << self.j)):
            raise GeometryError(f"position k={self.k} outside [0, 2^{self.j})")
        if self.shift_thirds not in (0, 1, 2):
            raise GeometryError(f"shift_thirds must be 0, 1 or 2, got {self.shift_thirds!r}")
        i0, i1 = _cell_range(self.grid, self.j, self.k, self.shift_thirds)
        object.__setattr__(self, "_i0", i0)
        object.__setattr__(self, "_i1", i1)

    @property
    def cell_start(self) -> int:
        """Index of the first member cell."""
        return self._i0  # type: ignore[attr-defined]

    @property
    def cell_stop(self) -> int:
        """One past the index of the last member cell."""
        return self._i1  # type: ignore[attr-defined]

    @property
    def cell_slice(self) -> slice:
        return slice(self.cell_start, self.cell_stop)

    @property
    def n_cells(self) -> int:
        return self.cell_stop - self.cell_start

    @property
    def is_empty(self) -> bool:
        """True when clipping leaves no cell centers inside (edge shifts at j = J)."""
        return self.n_cells == 0

    @property
    def length_unclipped(self) -> float:
        return 2.0 * self.grid.L * 2.0 ** (-self.j)

    @property
    def a(self) -> float:
        """Left endpoint after clipping to the domain."""
        raw = -self.grid.L + (3 * self.k + self.shift_thirds) * self.length_unclipped / 3.0
        return max(-self.grid.L, raw)

    @property
    def b(self) -> float:
        """Right endpoint after clipping to the domain."""
        raw = -self.grid.L + (3 * (self.k + 1) + self.shift_thirds) * self.length_unclipped / 3.0
        return min(self.grid.L, raw)

    @property
    def measure(self) -> float:
        """Lebesgue measure represented on the grid: ``n_cells * h``."""
        return self.n_cells * self.grid.h

    def children(self) -> "tuple[DyadicInterval, DyadicInterval]":
        """The two dyadic halves (unshifted families only)."""
        if self.shift_thirds != 0:
            raise GeometryError("shifted intervals do not form a splitting tree")
        if self.j >= self.grid.J:
            raise GeometryError(f"cannot split below the cell scale j = J = {self.grid.J}")
        return (
            DyadicInterval(self.grid, self.j + 1, 2 * self.k),
            DyadicInterval(self.grid, self.j + 1, 2 * self.k + 1),
        )

    def parent(self) -> "DyadicInterval":
        if self.shift_thirds != 0:
            raise GeometryError("shifted intervals do not form a splitting tree")
        if self.j == 0:
            raise GeometryError("the root interval has no parent")
        return DyadicInterval(self.grid, self.j - 1, self.k // 2)

    def contains(self, other: "DyadicInterval") -> bool:
        """Cell-range containment (both intervals on the same grid)."""
        if other.grid != self.grid:
            raise GridMismatchError("containment requires a common grid")
        return self.cell_start <= other.cell_start and other.cell_stop <= self.cell_stop


@dataclass(frozen=True)
class DyadicScan:
    """Which dyadic families a supremum-type estimate walks.

    ``j_max = None`` means "down to the cell scale" of whatever grid the scan
    is applied to; an explicit ``j_max`` is clipped to the grid's ``J`` so the
    same scan object can be reused on the coarsened grid of a refinement
    comparison.
    """

    j_max: int | None = None
    shifts: tuple[float, ...] = THIRD_SHIFTS
    j_min: int = 0

    def __post_init__(self) -> None:
        if self.j_min < 0:
            raise ConfigurationError(f"j_min must be >= 0, got {self.j_min}")
        if self.j_max is not None and self.j_max < self.j_min:
            raise ConfigurationError(f"j_max={self.j_max} below j_min={self.j_min}")
        if len(self.shifts) == 0:
            raise ConfigurationError("scan needs at least one shift family")
        for s in self.shifts:
            _shift_to_thirds(s)

    def effective_j_max(self, grid: Grid) -> int:
        return grid.J if self.j_max is None else min(self.j_max, grid.J)


@dataclass(frozen=True)
class ExhaustiveScan:
    """Marker for the brute-force oracle that walks every cell-aligned interval.

    Quadratic in the cell count, therefore guarded: grids larger than
    ``max_cells`` are refused with :class:`RangeError`.
    """

    max_cells: int = 256

    def __post_init__(self) -> None:
        if self.max_cells < 1:
            raise ConfigurationError(f"max_cells must be positive, got {self.max_cells}")


def dyadic_intervals(
    grid: Grid,
    j_max: int | None = None,
    shifts: Sequence[float] = THIRD_SHIFTS,
    j_min: int = 0,
) -> list[DyadicInterval]:
    """Enumerate the nonempty scanned intervals up to scale ``j_max``.

    Intervals clipped to zero cells (this happens only for shifted families
    hugging the right edge at the finest scales) are skipped.
    """
    jm = grid.J if j_max is None else j_max
    if not (0 <= jm <= grid.J):
        raise DomainError(f"j_max={j_max} outside [0, J={grid.J}]")
    if not (0 <= j_min <= jm):
        raise DomainError(f"j_min={j_min} outside [0, j_max={jm}]")
    out: list[DyadicInterval] = []
    for j in range(j_min, jm + 1):
        for s in shifts:
            p = _shift_to_thirds(s)
            for k in range(1 << j):
                iv = DyadicInterval(grid, j, k, p)
                if not iv.is_empty:
                    out.append(iv)
    return out


def scan_cell_ranges(
    grid: Grid, scan: DyadicScan | ExhaustiveScan
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(starts, stops)`` cell-index arrays, one pair per interval family.

    For a :class:`DyadicScan` each yield is one ``(j, shift)`` family with its
    empty members dropped; member cells of interval ``m`` are
    ``starts[m]:stops[m]``.  Within a family, for every shift, each stop is
    the next member's start: ``stop(k)`` and ``start(k + 1)`` are the same
    integer formula, and clipping and dropping empty members keep that.  For
    an :class:`ExhaustiveScan` each yield groups the intervals sharing a left
    endpoint.
    """
    if isinstance(scan, ExhaustiveScan):
        if grid.N > scan.max_cells:
            raise RangeError(
                f"exhaustive scan refused: N={grid.N} exceeds the {scan.max_cells}-cell guard"
            )
        stops = np.arange(1, grid.N + 1, dtype=np.int64)
        for i0 in range(grid.N):
            yield (np.full(grid.N - i0, i0, dtype=np.int64), stops[i0:])
        return
    for j in range(scan.j_min, scan.effective_j_max(grid) + 1):
        k = np.arange(1 << j, dtype=np.int64)
        for s in scan.shifts:
            starts, stops = _cell_range(grid, j, k, _shift_to_thirds(s))
            keep = stops > starts
            yield (starts[keep], stops[keep])


def flatten_cell_ranges(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten cell-index ranges into (cell index, owning range) arrays.

    Ranges may overlap (the exhaustive scan nests them); each produced pair
    records which range a cell occurrence belongs to, so per-range sums are a
    single ``bincount`` away.
    """
    lens = stops - starts
    seg = np.repeat(np.arange(starts.size), lens)
    offs = np.cumsum(lens) - lens
    idx = np.arange(int(lens.sum())) - np.repeat(offs, lens) + np.repeat(starts, lens)
    return idx, seg


def integrate(
    f: SampledFunction,
    interval: DyadicInterval | None = None,
    weight: SampledFunction | None = None,
) -> float:
    """Midpoint-rule integral of ``f`` (times ``weight``) over an interval.

    With ``interval=None`` the integral runs over the whole domain.  Exact
    for functions that are constant on cells, which is the only sense in
    which data exists here.
    """
    sl = slice(None)
    if interval is not None:
        if interval.grid != f.grid:
            raise GridMismatchError("interval and integrand live on different grids")
        sl = interval.cell_slice
    vals = f.values[sl]
    if weight is not None:
        if weight.grid != f.grid:
            raise GridMismatchError("weight and integrand live on different grids")
        vals = vals * weight.values[sl]
    return float(f.grid.h * np.sum(vals))

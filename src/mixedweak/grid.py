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
floating-point ties.  Member ``k`` of the scale-``j`` family shifted by ``p/3``
starts at cell ``min(N, k M + c_p)`` with ``M = 2**(J - j)`` and
``c_p = ceil((2 p M - 3) / 6)``: each scanned family is one arithmetic
progression of edges (``scan_progressions``), and only its last member can
be clipped.  Six helpers are the one place that knows that layout:
``member_sums`` reads every member's sum off a prefix sum,
``divide_by_widths`` divides a value per member by the member's cell count,
``member_means`` averages a block's members, ``per_member`` applies a
ufunc between a block's cells and their member's value, ``gather_members``
copies some members of a family into one block, and ``halving_pyramid``
gives every member's min or max.

Two height kernels measure both sides of every inequality at a whole sweep
of heights t.  ``superlevel_mass`` sorts the level once.  ``modular_mass``
takes one of two paths.  A phi of the form ``c t**r (1 + log+ t)**d`` with
a whole d, as the Young families say through ``log_power()``, is summed
from one sort of the signal: prefix sums for the cells at or below t, and
for the cells above it suffix moments about fixed anchors in ``log s``,
expanded so that every summed term is nonnegative.  No cancellation can
then magnify a rounding error, and each value stays within 1e-12 relative
of phi evaluated over every cell.  Any other phi (``LLogL`` with a
fractional log power) is evaluated over the live cells once per height.
The loop evaluates phi, and the sorted path rounds ``log t`` and ``t**r``,
one height at a time, so on either path a height's value is the same float
whatever other heights share the call.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from ._errors import (
    ConfigurationError,
    DomainError,
    GeometryError,
    GridMismatchError,
    SamplingError,
)

__all__ = [
    "Grid",
    "SampledFunction",
    "DyadicInterval",
    "DyadicScan",
    "THIRD_SHIFTS",
    "make_grid",
    "sample",
    "block_average",
    "superlevel_mass",
    "modular_mass",
    "dyadic_intervals",
    "scan_progressions",
    "member_sums",
    "divide_by_widths",
    "member_means",
    "per_member",
    "gather_members",
    "halving_pyramid",
    "scan_cell_ranges",
    "flatten_cell_ranges",
]

#: The shift menu used by default scans: unshifted plus the two thirds shifts.
THIRD_SHIFTS: tuple[float, float, float] = (0.0, 1.0 / 3.0, 2.0 / 3.0)

# Resolution band accepted by make_grid; the Grid type itself also holds the
# coarse grid of a refinement pair, down to _MIN_USER_J - 2, but nothing finer.
_MIN_USER_J = 4
_MAX_USER_J = 24


def _edge_progression(grid: "Grid", j: int, p: int) -> tuple[int, int]:
    """``(M, c_p)``: member ``k`` of family ``(j, p)`` starts at cell ``min(N, k M + c_p)``."""
    M = 1 << (grid.J - j)
    return M, -((3 - 2 * p * M) // 6)


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
        Resolution exponent, ``2 <= J <= 24``; the grid has ``N = 2**J`` cells.
    """

    L: float
    J: int

    def __post_init__(self) -> None:
        if not isinstance(self.J, int):
            raise ConfigurationError(f"resolution exponent J must be an int, got {self.J!r}")
        if not (_MIN_USER_J - 2 <= self.J <= _MAX_USER_J):
            raise ConfigurationError(
                f"resolution exponent J={self.J} outside the supported band "
                f"[{_MIN_USER_J - 2}, {_MAX_USER_J}]"
            )
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

    def coarsened(self) -> "Grid":
        """Same domain at resolution ``J - 2`` (used for refinement checks)."""
        return Grid(self.L, self.J - 2)

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
    finite.  Sums, products and ``abs`` of sampled functions on the same grid
    (and with scalars) are sampled functions, so weight products like
    ``u * v`` read naturally.
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

    def __mul__(self, other: "SampledFunction | float") -> "SampledFunction":
        return SampledFunction(self.grid, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __abs__(self) -> "SampledFunction":
        return SampledFunction(self.grid, np.abs(self.values))


def sample(
    expr: Callable[[np.ndarray], np.ndarray], grid: Grid, cls: type = SampledFunction
) -> SampledFunction:
    """Evaluate a vectorized expression at the cell centers.

    Parameters
    ----------
    expr : callable
        Maps an array of points to an array of values (numpy broadcasting
        rules; a scalar result is broadcast to all cells).
    grid : Grid
    cls : type
        The ``SampledFunction`` subclass to build, e.g. a ``Weight``.

    Raises
    ------
    SamplingError
        If any produced value is non-finite (the message names the center).
    """
    with np.errstate(all="ignore"):
        raw = expr(grid.centers)
    vals = np.broadcast_to(np.asarray(raw, dtype=np.float64), (grid.N,))
    return cls(grid, vals)


def block_average(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Project ``N * 2**k`` samples (k >= 0) of a finer grid onto ``grid``'s cells.

    Each cell of ``grid`` is the union of ``2**k`` consecutive finer cells, and
    its value is their mean; any other sample count is refused.
    """
    block, rest = divmod(values.size, grid.N)
    if rest or block < 1 or block & (block - 1):
        raise GridMismatchError(
            f"{values.size} samples do not refine the {grid.N} cells of J={grid.J}: "
            f"need {grid.N} * 2**k"
        )
    return values.reshape(-1, block).mean(axis=1)


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
        M, c = _edge_progression(self.grid, self.j, self.shift_thirds)
        object.__setattr__(self, "_i0", min(self.grid.N, self.k * M + c))
        object.__setattr__(self, "_i1", min(self.grid.N, (self.k + 1) * M + c))

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

    def __post_init__(self) -> None:
        if self.j_max is not None and self.j_max < 0:
            raise ConfigurationError(f"j_max must be >= 0, got {self.j_max}")
        if len(self.shifts) == 0:
            raise ConfigurationError("scan needs at least one shift family")
        for s in self.shifts:
            _shift_to_thirds(s)

    def effective_j_max(self, grid: Grid) -> int:
        return grid.J if self.j_max is None else min(self.j_max, grid.J)


def dyadic_intervals(
    grid: Grid,
    j_max: int | None = None,
    shifts: Sequence[float] = THIRD_SHIFTS,
) -> list[DyadicInterval]:
    """Enumerate the nonempty scanned intervals up to scale ``j_max``.

    Intervals clipped to zero cells (this happens only for shifted families
    hugging the right edge at the finest scales) are skipped.
    """
    jm = grid.J if j_max is None else j_max
    if not (0 <= jm <= grid.J):
        raise DomainError(f"j_max={j_max} outside [0, J={grid.J}]")
    ps = [_shift_to_thirds(s) for s in shifts]
    ivs = (DyadicInterval(grid, j, k, p) for j in range(jm + 1) for p in ps for k in range(1 << j))
    return [iv for iv in ivs if not iv.is_empty]


def scan_progressions(grid: Grid, scan: DyadicScan) -> Iterator[tuple[int, int]]:
    """Yield ``(M, c)`` per scanned family, scales coarse to fine.

    Member ``k`` of the family is ``[c + k M, min(N, c + (k + 1) M))`` for
    ``c + k M < N``: a family has ``(N - c) // M`` members of length ``M``
    and, when ``(N - c) % M != 0``, one clipped last member, which
    ``member_sums``, ``divide_by_widths``, ``member_means`` and
    ``per_member`` handle.  At ``M = 1`` the ``2/3`` shift has ``c = 1 = M``
    and no clipped member.

    Each distinct family is yielded once per scale, in the order of its first
    shift: the thirds shifts coincide at ``M = 1``, where ``(1, 0)`` is both
    the unshifted and the 1/3 family, and at ``M = 2``, where ``(2, 1)`` is
    both shifted ones.  A repeated family has the same members, so no scanned
    sup needs it twice.
    """
    ps = [_shift_to_thirds(s) for s in scan.shifts]
    for j in range(scan.effective_j_max(grid) + 1):
        yield from dict.fromkeys(_edge_progression(grid, j, p) for p in ps)


def member_sums(P: np.ndarray, M: int, c: int, out: np.ndarray) -> np.ndarray:
    """Every member's sum of family ``(M, c)``, read off the prefix sum ``P``.

    The edges are the strided view ``P[c::M]``, and ``P[N]`` closes a clipped
    last member.  The sums are written to the head of ``out`` (at least one
    slot per member), and that head is returned.
    """
    N = P.size - 1
    edges = P[c::M]
    K = edges.size - 1
    sums = out[: -((c - N) // M)]
    np.subtract(edges[1:], edges[:-1], sums[:K])
    if K < sums.size:
        sums[K] = P[N] - edges[K]
    return sums


def divide_by_widths(vals: np.ndarray, M: int, cells: int) -> np.ndarray:
    """Divide each member's value in place by its width: ``M``, and what is
    left of ``cells`` for a clipped last member.  Returns ``vals``."""
    rest = cells % M
    last = vals[-1] / rest if rest else None
    vals /= M
    if rest:
        vals[-1] = last
    return vals


def member_means(block: np.ndarray, M: int) -> np.ndarray:
    """The mean of each member of a block that members of length ``M`` tile,
    the last one possibly clipped: one ``np.add.reduceat``, divided in place."""
    return divide_by_widths(np.add.reduceat(block, np.arange(0, block.size, M)), M, block.size)


def per_member(ufunc: np.ufunc, block: np.ndarray, vals: np.ndarray, M: int, out: np.ndarray) -> None:
    """``out = ufunc(block, vals[k])`` on the cells of each member ``k`` of the block.

    Members of length ``M`` tile ``block`` (the last one possibly clipped);
    ``out`` has the block's shape and may be the block itself.  One call runs
    over the ``(K, M)`` reshape of the whole members, one over the clipped one.
    """
    K = block.size // M
    KM = K * M
    ufunc(block[:KM].reshape(K, M), vals[:K, None], out=out[:KM].reshape(K, M))
    if KM < block.size:
        ufunc(block[KM:], vals[K], out=out[KM:])


def gather_members(vals: np.ndarray, M: int, c: int, rows: np.ndarray) -> np.ndarray:
    """The cells of members ``rows`` (ascending) of family ``(M, c)``, end to end.

    The whole members are taken as rows of the ``(K, M)`` reshape of the
    family's block, and a clipped last member among ``rows`` is appended, so
    that members of length ``M`` tile the result as they tile a block.
    """
    K = (vals.size - c) // M
    k = int(np.searchsorted(rows, K))
    tail = vals[c + K * M :] if k < rows.size else vals[:0]
    out = np.empty(k * M + tail.size)
    whole = vals[c : c + K * M].reshape(K, M)
    np.take(whole, rows[:k], axis=0, out=out[: k * M].reshape(k, M), mode="clip")
    out[k * M :] = tail
    return out


def halving_pyramid(ufunc: np.ufunc, vals: np.ndarray) -> Callable[[int], np.ndarray]:
    """The min or max (``ufunc``) of ``vals`` over windows of ``M`` cells.

    The returned ``level(M)``, called with powers of two that never
    decrease, gives the array ``S`` with ``S[i]`` the ``ufunc`` reduction of
    ``vals[i : min(N, i + M)]``.  So ``level(M)[c::M]`` holds the members of
    family ``(M, c)``, the clipped last one included.  Each step ``S[i] =
    ufunc(S[i], S[i + w])`` for ``i + w < N`` doubles the window ``w``; the
    cells ``i >= N - w`` already span ``i : N``.  A step is written over its
    own level: numpy gives overlapping operands the result of a copy, and
    makes none when the read runs ahead of the write, so one grid array is
    live.  Min and max are exact, so no grouping changes a value.
    """
    level, width = vals.copy(), 1

    def at(M: int) -> np.ndarray:
        nonlocal width
        while width < M:
            ufunc(level[:-width], level[width:], out=level[:-width])
            width *= 2
        return level

    return at


def scan_cell_ranges(grid: Grid, scan: DyadicScan) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(starts, stops)`` cell-index arrays, one pair per interval family.

    Each yield is one family of ``scan_progressions`` (a ``(j, shift)`` family,
    once per distinct progression) with its empty members dropped;
    member cells of interval ``m`` are ``starts[m]:stops[m]``.  Member ``k``
    of the family shifted by ``p/3`` is ``[a0, a0 + l_j)``, ``a0 = -L + (k +
    p/3) l_j``, and ``x_i >= a0  <=>  i >= ((3k + p) 2M - 3) / 6`` with ``M =
    2^(J-j)``.  As ``kM`` is an integer, that ceiling is ``kM + c_p`` with
    ``c_p = ceil((2pM - 3) / 6)``, exact in integers, and ``0 <= c_p <= M``.
    So the edges are ``c_p, c_p + M, ...`` up to the first one ``>= N``,
    clipped to ``N``, and the members past it are empty.  ``starts`` and
    ``stops`` are the read-only views ``edges[:-1]`` and ``edges[1:]``: every
    family is nonempty and tiles ``[starts[0], stops[-1])``.
    """
    for M, c in scan_progressions(grid, scan):
        edges = np.arange(c, grid.N + M, M, dtype=np.int64)
        edges[-1] = grid.N
        edges.setflags(write=False)
        yield (edges[:-1], edges[1:])


def flatten_cell_ranges(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten cell-index ranges into (cell index, owning range) arrays.

    Each produced pair records which range a cell occurrence belongs to, so
    per-range sums are a single ``bincount`` away, even for ranges that
    overlap or leave gaps.  No package module calls it: the benchmark's
    tracer hooks its old bindings, and the test oracles' per-range bisection
    reads it.
    """
    lens = stops - starts
    seg = np.repeat(np.arange(starts.size), lens)
    offs = np.cumsum(lens) - lens
    idx = np.arange(int(lens.sum())) - np.repeat(offs, lens) + np.repeat(starts, lens)
    return idx, seg


def _positive_heights(heights) -> np.ndarray:
    ts = np.asarray(heights, dtype=np.float64)
    if not np.all(ts > 0.0):
        raise DomainError(f"heights must be positive, got {heights}")
    return ts


def superlevel_mass(h: float, level: np.ndarray, density: np.ndarray, heights) -> np.ndarray:
    """``h * sum(density[level > t])`` for each of the ``heights`` (same shape).

    One sort serves every height: ``side="right"`` finds the first sorted cell
    above each height (the strict ``> t``), the density is summed pairwise
    between those cuts and the sums are added up from the top, so a height at
    or above ``max(level)`` gives exactly 0.
    """
    ts = _positive_heights(heights)
    order = np.argsort(level)
    at = np.searchsorted(level[order], ts, side="right")
    cuts = np.unique(at)
    sums = np.add.reduceat(density[order], cuts[cuts < level.size])
    tail = np.append(np.cumsum(sums[::-1])[::-1], 0.0)
    return h * tail[np.searchsorted(cuts, at)]


def modular_mass(h: float, signal: np.ndarray, phi, density: np.ndarray, heights) -> np.ndarray:
    """``h * sum(phi(signal / t) * density)`` for each of the ``heights`` (same shape).

    ``phi`` is a Young function; ``signal >= 0`` and phi(0) = 0, so the zero
    cells are dropped once.  A phi of the form ``c t**r (1 + log+ t)**d``
    with a whole d (``phi.log_power()``) is summed at every height from one
    sort of the signal (:func:`_log_power_sums`); any other phi is evaluated
    over the live cells once per height.  Either way a height's value is
    the same float whatever other heights come with it, and a negative or
    NaN signal is refused with :class:`DomainError`.
    """
    ts = _positive_heights(heights)
    live = signal != 0.0
    if not live.all():  # no copy for signals that vanish nowhere
        signal, density = signal[live], density[live]
    form = phi.log_power()
    # a height where signal / t or the sum overflows reads +inf
    with np.errstate(over="ignore", divide="ignore"):
        if form is None:
            out = [float(np.sum(phi(signal / t) * density)) for t in ts.ravel()]
        else:
            if not (np.all(signal >= 0.0) and np.all(np.isfinite(signal))):
                raise DomainError("modular_mass needs a finite, nonnegative signal")
            c, r, d = form
            out = [c * mass for mass in _log_power_sums(signal, density, r, d, ts.ravel().tolist())]
        return h * np.array(out).reshape(ts.shape)


def _log_power_sums(s: np.ndarray, w: np.ndarray, r: float, d: int, heights: list[float]) -> list[float]:
    """``sum(w (s/t)**r (1 + log+(s/t))**d)`` at each height t, for live cells
    ``s > 0`` with ``w >= 0``.

    With ``lam = log t`` and ``l = log s``, a cell at or below t adds
    ``w s**r``, one above it ``w s**r (1 + l - lam)**d``, both divided by
    ``t**r`` at the end.  One sort of the cells gives the first part at
    every height as a prefix sum.  For the second, anchors ``a = k / 2``
    cut the sorted logs into blocks ``a <= l < a + 1/2``, and each nonempty
    block at or above the lowest height gets the moments ``sum w s**r (l -
    a)**j``, j = 0..d, of the cells from it up (the suffix moments), summed
    from the top block down and re-centered by the anchors' gap at each
    step.  A height then expands ``(1 + l - lam)**d`` about the first anchor
    ``a >= lam`` as ``sum_j C(d, j) (1 + a - lam)**(d - j) (l - a)**j``, and
    adds the cells between lam and that anchor one by one.  Every term of
    every sum is nonnegative, so no cancellation magnifies a rounding error
    and each value keeps the relative accuracy of a sum of nonnegative
    terms, as the per-height loop does; moments about one fixed center
    would subtract large terms instead.  The anchors depend on
    the signal alone, a block's suffix moments only on the blocks above it,
    and ``log t`` and ``t**r`` are rounded one height at a time, so no value
    depends on the other heights.  With d = 0 no sort is needed: every
    height reads ``sum w s**r``.  Both s and t are first divided by the
    power of two just above the largest s, which is exact and keeps
    ``s**r`` and ``t**r`` in the float range wherever ``(s/t)**r`` is.
    """
    if s.size == 0:
        return [0.0] * len(heights)
    e = math.frexp(float(s.max()))[1]
    # numpy scalars, not floats: where t or t**r leaves the float range, total / t**r
    # reads +inf or 0 (toward which (s/t)**r goes) instead of raising
    ts = np.ldexp(heights, -e)
    if d == 0:
        total = float(np.sum(w * np.ldexp(s, -e) ** r))
        return [total / t**r for t in ts]
    order = np.argsort(s)
    ws = w[order]
    s = s[order]
    del order
    np.ldexp(s, -e, out=s)
    logs = np.log(s)
    if r != 1.0:
        np.power(s, r, out=s)
    ws *= s
    del s
    n = ws.size
    # a t that is 0 here reads +inf whatever its log: it takes the least positive float's
    lams = [math.log(t or math.ulp(0.0)) for t in ts]
    # anchors from the lowest height up (an infinite height needs none)
    keys = np.arange(math.ceil(2.0 * min([*lams, logs[-1]])), math.floor(2.0 * logs[-1]) + 1)
    edges = np.searchsorted(logs, 0.5 * keys)
    sizes = np.diff(edges, append=n)
    kept = sizes > 0
    starts, anchors = edges[kept], 0.5 * keys[kept]
    low = starts[0] if starts.size else n
    offset = np.repeat(anchors, sizes[kept])
    np.subtract(logs[low:], offset, out=offset)  # l - a, in [0, 1/2)
    term, moments = ws[low:].copy(), []
    for j in range(d + 1):
        moments.append(np.add.reduceat(term, starts - low).tolist())
        if j < d:
            term *= offset
    del term, offset
    below = np.empty(n + 1)
    below[0] = 0.0
    np.cumsum(ws, out=below[1:])

    starts, anchors = starts.tolist(), anchors.tolist()
    suffix, acc = [None] * len(starts), [0.0] * (d + 1)
    for b in range(len(starts) - 1, -1, -1):
        if b + 1 < len(starts):
            gap = anchors[b + 1] - anchors[b]
            acc = [sum(math.comb(j, q) * gap ** (j - q) * acc[q] for q in range(j + 1))
                   for j in range(d + 1)]
        acc = [m[b] + a for m, a in zip(moments, acc)]
        suffix[b] = acc

    out = []
    for t, lam, at in zip(ts, lams, np.searchsorted(logs, lams, side="right").tolist()):
        b = bisect.bisect_left(anchors, lam)
        top = starts[b] if b < len(starts) else n
        first = min(at, top)
        total = float(below[first])
        if first < top:
            y = logs[first:top] - lam
            y += 1.0
            term = ws[first:top].copy()
            for _ in range(d):
                term *= y
            total += float(np.sum(term))
        if b < len(starts):
            u = 1.0 + (anchors[b] - lam)
            total += sum(math.comb(d, j) * u ** (d - j) * m for j, m in enumerate(suffix[b]))
        out.append(total / t**r)
    return out

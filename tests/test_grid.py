"""Grid substrate: centers, dyadic interval geometry, quadrature."""

from __future__ import annotations

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedweak._errors import (
    ConfigurationError,
    DomainError,
    GeometryError,
    GridMismatchError,
    SamplingError,
)
from mixedweak.grid import (
    THIRD_SHIFTS,
    DyadicInterval,
    DyadicScan,
    Grid,
    divide_by_widths,
    dyadic_intervals,
    make_grid,
    member_means,
    member_sums,
    per_member,
    sample,
    scan_cell_ranges,
    scan_progressions,
)
from oracles import children, contains, integrate, parent


def test_grid_basic_geometry():
    g = make_grid(8.0, 4)
    assert g.N == 16
    assert g.h == 1.0
    assert g.centers[0] == -7.5
    assert g.centers[-1] == 7.5
    # 0 is never a sample point, at any resolution
    for J in (4, 5, 9):
        assert 0.0 not in make_grid(8.0, J).centers


def test_grid_centers_are_readonly():
    g = make_grid(1.0, 4)
    with pytest.raises(ValueError):
        g.centers[0] = 99.0


def test_make_grid_rejects_out_of_band_J():
    for bad in (3, 25, 0, -1):
        with pytest.raises(ConfigurationError):
            make_grid(1.0, bad)
    with pytest.raises(ConfigurationError):
        make_grid(1.0, 4.0)  # type: ignore[arg-type]
    with pytest.raises(ConfigurationError):
        make_grid(-2.0, 6)
    with pytest.raises(ConfigurationError):
        make_grid(math.inf, 6)


def test_grid_type_stops_at_the_user_band():
    # make_grid's upper end bounds the type too, before any center is allocated;
    # below make_grid's lower end the type holds a refinement pair's coarse grid
    # and nothing coarser
    for bad in (25, 1, 0):
        with pytest.raises(ConfigurationError):
            Grid(1.0, bad)
    assert Grid(1.0, 2).N == 4


def test_coarsened_keeps_domain():
    g = make_grid(8.0, 8)
    c = g.coarsened()
    assert c.L == g.L and c.J == 6
    # coarse centers are midpoints of fine center pairs (factor 4 blocks)
    blocks = g.centers.reshape(-1, 4).mean(axis=1)
    np.testing.assert_allclose(c.centers, blocks, rtol=0, atol=1e-15)


def test_sample_constant_and_nonfinite():
    g = make_grid(2.0, 5)
    one = sample(lambda x: 1.0, g)
    assert one.values.shape == (32,)
    assert np.all(one.values == 1.0)
    with pytest.raises(SamplingError, match="non-finite"):
        sample(lambda x: 1.0 / (x - x[0]), g)


def test_sampled_function_arithmetic_and_mismatch():
    g = make_grid(2.0, 5)
    f = sample(np.abs, g)
    two_f = 2.0 * f
    np.testing.assert_array_equal(two_f.values, 2.0 * np.abs(g.centers))
    other = sample(np.abs, make_grid(2.0, 6))
    with pytest.raises(GridMismatchError):
        _ = f + other
    with pytest.raises(ValueError):
        f.values[0] = 5.0


def test_integrate_whole_domain_exact():
    g = make_grid(8.0, 10)
    one = sample(lambda x: 1.0, g)
    assert integrate(one) == pytest.approx(16.0, abs=1e-12)
    # midpoint rule is exact for cell-wise linear through centers: integral of x is 0
    ident = sample(lambda x: x, g)
    assert integrate(ident) == pytest.approx(0.0, abs=1e-12)


def test_integrate_matches_closed_form_for_indicator():
    # f = chi_[0,1] sampled on [-8, 8]: every cell is fully in or out because
    # cell boundaries are dyadic; the quadrature is exact.
    g = make_grid(8.0, 8)
    f = sample(lambda x: ((x >= 0.0) & (x <= 1.0)).astype(float), g)
    assert integrate(f) == pytest.approx(1.0, abs=1e-12)


def test_dyadic_interval_unshifted_cells():
    g = make_grid(8.0, 4)  # h = 1, cells [-8,-7),...
    root = DyadicInterval(g, 0, 0)
    assert (root.cell_start, root.cell_stop) == (0, 16)
    assert root.a == -8.0 and root.b == 8.0
    left, right = children(root)
    assert (left.cell_start, left.cell_stop) == (0, 8)
    assert (right.cell_start, right.cell_stop) == (8, 16)
    assert parent(left) == root
    assert contains(root, left) and contains(root, right)
    assert not contains(left, right)


def test_dyadic_interval_shifted_clipping():
    g = make_grid(8.0, 4)
    # j=0 shift 1/3: raw [-8 + 16/3, -8 + 32/3) -> clipped right at 8
    iv = DyadicInterval(g, 0, 0, shift_thirds=1)
    assert iv.a == pytest.approx(-8.0 + 16.0 / 3.0)
    assert iv.b == 8.0
    # centers in [-8+16/3, 8) = [-2.666, 8): cells -2.5 .. 7.5 -> indices 5..15
    assert (iv.cell_start, iv.cell_stop) == (5, 16)
    # finest scale, shift 2/3, last k: interval sits past the last center
    tail = DyadicInterval(g, 4, 15, shift_thirds=2)
    assert tail.is_empty
    # finest scale, shift 1/3, last k still catches the last center
    tail13 = DyadicInterval(g, 4, 15, shift_thirds=1)
    assert (tail13.cell_start, tail13.cell_stop) == (15, 16)


def test_dyadic_interval_validation():
    g = make_grid(1.0, 4)
    with pytest.raises(GeometryError):
        DyadicInterval(g, 5, 0)
    with pytest.raises(GeometryError):
        DyadicInterval(g, 2, 4)
    with pytest.raises(GeometryError):
        DyadicInterval(g, 2, 0, shift_thirds=3)
    with pytest.raises(GeometryError):
        children(DyadicInterval(g, 2, 0, shift_thirds=1))
    with pytest.raises(GeometryError):
        parent(DyadicInterval(g, 0, 0))
    with pytest.raises(GeometryError):
        children(DyadicInterval(g, 4, 0))


def test_dyadic_intervals_counts_unshifted():
    g = make_grid(4.0, 6)
    ivs = dyadic_intervals(g, j_max=3, shifts=(0.0,))
    assert len(ivs) == 1 + 2 + 4 + 8
    # disjoint cover at each scale
    for j in range(4):
        level = [iv for iv in ivs if iv.j == j]
        cells = sorted((iv.cell_start, iv.cell_stop) for iv in level)
        assert cells[0][0] == 0 and cells[-1][1] == g.N
        for (a0, b0), (a1, b1) in zip(cells, cells[1:]):
            assert b0 == a1


def test_dyadic_intervals_skips_empty_only_at_edge():
    g = make_grid(4.0, 4)
    ivs = dyadic_intervals(g, shifts=(0.0, 1 / 3, 2 / 3))
    assert all(not iv.is_empty for iv in ivs)
    # the only empty candidate in this configuration is (j=J, k=N-1, shift 2/3)
    full_count = sum(3 * (1 << j) for j in range(g.J + 1))
    assert len(ivs) == full_count - 1


def test_dyadic_intervals_domain_checks():
    g = make_grid(1.0, 4)
    with pytest.raises(DomainError):
        dyadic_intervals(g, j_max=5)


@settings(max_examples=60, deadline=None)
@given(
    j=st.integers(min_value=0, max_value=6),
    data=st.data(),
)
def test_interval_cells_match_float_membership(j, data):
    """Integer cell ranges agree with naive floating-point membership."""
    g = make_grid(5.0, 6)
    k = data.draw(st.integers(min_value=0, max_value=(1 << j) - 1))
    p = data.draw(st.sampled_from([0, 1, 2]))
    iv = DyadicInterval(g, j, k, p)
    lj = 2.0 * g.L * 2.0 ** (-j)
    a_raw = -g.L + (k + p / 3.0) * lj
    mask = (g.centers >= a_raw - 1e-12) & (g.centers < a_raw + lj - 1e-12)
    idx = np.flatnonzero(mask)
    if iv.is_empty:
        assert idx.size == 0
    else:
        assert (idx[0], idx[-1] + 1) == (iv.cell_start, iv.cell_stop)


def oracle_cell_range(grid, j, k, p):
    """Cells ``[start, stop)`` of member ``k`` of family ``(j, p)`` by floor division.

    ``a0 = -L + (k + p/3) l_j``, and ``x_i >= a0  <=>  i >= ((3k + p) 2^(J-j+1)
    - 3) / 6``; both ceilings are taken exactly in integers and clipped to
    [0, N].  ``k`` is a Python int or an int64 array.
    """
    scale = 1 << (grid.J - j + 1)
    start = -((3 - (3 * k + p) * scale) // 6)
    stop = -((3 - (3 * k + 3 + p) * scale) // 6)
    if isinstance(k, np.ndarray):
        return np.clip(start, 0, grid.N), np.clip(stop, 0, grid.N)
    return max(0, min(start, grid.N)), max(0, min(stop, grid.N))


def oracle_family(grid, j, p):
    """Family ``(j, p)`` by the oracle, empty members dropped."""
    starts, stops = oracle_cell_range(grid, j, np.arange(1 << j, dtype=np.int64), p)
    keep = stops > starts
    return starts[keep], stops[keep]


def distinct_family_keys(grid, scan):
    """The ``(j, p)`` families a scan walks, by the oracle: per scale, in the
    order of the shifts, each family whose members differ from every earlier
    one at that scale.  The thirds shifts coincide only at M = 1 and M = 2."""
    keys = []
    for j in range(scan.effective_j_max(grid) + 1):
        seen = set()
        for s in scan.shifts:
            p = round(3 * s)
            members = tuple(tuple(edges.tolist()) for edges in oracle_family(grid, j, p))
            if members not in seen:
                seen.add(members)
                keys.append((j, p))
    return keys


def assert_scan_matches_oracle(grid, scan):
    families = list(scan_cell_ranges(grid, scan))
    keys = distinct_family_keys(grid, scan)
    assert len(families) == len(keys)
    for (j, p), (starts, stops) in zip(keys, families):
        want_starts, want_stops = oracle_family(grid, j, p)
        assert starts.dtype == stops.dtype == np.int64
        assert np.array_equal(starts, want_starts) and np.array_equal(stops, want_stops), (grid.J, j, p)


def test_scan_and_intervals_match_oracle_exhaustively():
    """Every member of every family, J = 2-12: the closed form is the floor-division formula."""
    for J in range(2, 13):
        g = Grid(2.0, J)
        assert_scan_matches_oracle(g, DyadicScan())
        for j in range(J + 1):
            for p in (0, 1, 2):
                for k in range(1 << j):
                    iv = DyadicInterval(g, j, k, p)
                    assert (iv.cell_start, iv.cell_stop) == oracle_cell_range(g, j, k, p)


@pytest.mark.parametrize("J", [16, 20])
def test_scan_matches_oracle_on_fine_grids(J):
    assert_scan_matches_oracle(Grid(2.0, J), DyadicScan())


@pytest.mark.parametrize("J", [24, 30])
def test_interval_matches_oracle_at_sampled_members(J):
    # the cell arithmetic reads only J and N; a real grid this fine would hold 2^J centers
    g = SimpleNamespace(J=J, N=1 << J)
    rng = np.random.default_rng(J)
    for j in range(J + 1):
        last = (1 << j) - 1
        ks = {0, 1, last - 1, last} | set(rng.integers(0, last + 1, size=8).tolist())
        for p in (0, 1, 2):
            for k in sorted(k for k in ks if 0 <= k <= last):
                iv = DyadicInterval(g, j, k, p)  # type: ignore[arg-type]
                assert (iv.cell_start, iv.cell_stop) == oracle_cell_range(g, j, k, p), (j, k, p)


def test_scan_yields_read_only_views():
    for starts, stops in scan_cell_ranges(Grid(1.0, 6), DyadicScan()):
        assert not starts.flags.writeable and not stops.flags.writeable
        with pytest.raises(ValueError):
            starts[0] = 1
        with pytest.raises(ValueError):
            stops[-1] = 1


def test_scan_peak_memory_is_a_few_grid_arrays():
    # one arange of edges per family, the yields views of it: nothing of size N is copied
    g = make_grid(8.0, 16)
    tracemalloc.start()
    try:
        for starts, stops in scan_cell_ranges(g, DyadicScan()):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * g.N


@st.composite
def dyadic_scans(draw, J):
    """A scan over any scales of a J grid and any nonempty subset of the shifts."""
    j_max = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=J)))
    shifts = draw(st.lists(st.sampled_from(THIRD_SHIFTS), min_size=1, max_size=3, unique=True))
    return DyadicScan(j_max=j_max, shifts=tuple(shifts))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), J=st.integers(min_value=2, max_value=8))
def test_scan_cell_ranges_matches_interval_objects(data, J):
    g = Grid(3.0, J)
    scan = data.draw(dyadic_scans(J))
    families = list(scan_cell_ranges(g, scan))
    got = [(int(s), int(e)) for starts, stops in families for s, e in zip(starts, stops)]
    j_max = scan.effective_j_max(g)
    keys = distinct_family_keys(g, scan)
    want = [
        (iv.cell_start, iv.cell_stop)
        for iv in dyadic_intervals(g, j_max=j_max, shifts=scan.shifts)
        if (iv.j, iv.shift_thirds) in keys
    ]
    # scan_cell_ranges groups by (j, shift); dyadic_intervals by (j, shift, k):
    # same grouping order, so the flat lists must agree exactly once the
    # repeated families are dropped from the intervals.
    assert got == want
    assert_scan_matches_oracle(g, scan)
    assert len(families) == len(keys)
    # every family is nonempty and tiles [starts[0], stops[-1]): each stop is the next start
    for starts, stops in families:
        assert starts.size > 0
        assert np.all(stops > starts)
        assert np.array_equal(stops[:-1], starts[1:])
    # the empty members are a suffix: the kept ones are members 0 .. n - 1 of their family
    for (j, p), (starts, _) in zip(keys, families):
        nonempty = [k for k in range(1 << j) if not DyadicInterval(g, j, k, p).is_empty]
        assert nonempty == list(range(starts.size))


def test_scan_yields_each_distinct_family_once():
    # the thirds shifts coincide only at M = 2, on (2, 1), and at M = 1, on (1, 0)
    for J in (2, 6, 12):
        fams = list(scan_progressions(Grid(2.0, J), DyadicScan()))
        assert len(fams) == len(set(fams)) == 3 * (J + 1) - 2
        assert fams[-4:] == [(2, 0), (2, 1), (1, 0), (1, 1)]


def assert_members_match_gather(g, scan, vals):
    """The member helpers on every family of ``scan`` are bitwise the gather
    through its ``(starts, stops)`` arrays; returns the families' member
    counts and whole-member counts."""
    P = np.concatenate([[0.0], np.cumsum(vals)])
    counts = []
    families = zip(scan_progressions(g, scan), scan_cell_ranges(g, scan), strict=True)
    for (M, c), (starts, stops) in families:
        lens = stops - starts
        block = vals[c:]
        assert (starts[0], stops[-1]) == (c, g.N)
        sums = member_sums(P, M, c, np.full(g.N + 1, np.nan))
        assert np.array_equal(sums, P[stops] - P[starts])
        assert np.array_equal(divide_by_widths(sums, M, g.N - c), (P[stops] - P[starts]) / lens)
        means = member_means(block, M)
        assert np.array_equal(means, np.add.reduceat(block, starts - c) / lens)
        for ufunc in (np.subtract, np.maximum):
            out = np.empty_like(block)
            per_member(ufunc, block, means, M, out)
            assert np.array_equal(out, ufunc(block, np.repeat(means, lens)))
        counts.append((lens.size, int(np.sum(lens == M))))
    return counts


@settings(max_examples=60, deadline=None)
@given(data=st.data(), J=st.integers(min_value=4, max_value=12))
def test_member_helpers_equal_the_gather(data, J):
    g = Grid(8.0, J)
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    vals = rng.standard_normal(g.N) * 10.0 ** rng.uniform(-3, 3, g.N)
    assert_members_match_gather(g, data.draw(dyadic_scans(J)), vals)
    # the scale-0 families shifted by a third have no whole member, only a clipped one
    thirds = DyadicScan(j_max=0, shifts=(1.0 / 3.0, 2.0 / 3.0))
    assert assert_members_match_gather(g, thirds, vals) == [(1, 0), (1, 0)]


def test_one_third_trick_containment():
    """Any interval with |I| <= (2/3) l_j is inside a scanned scale-j interval."""
    g = make_grid(2.0, 6)
    scanned = dyadic_intervals(g, shifts=(0.0, 1 / 3, 2 / 3))
    by_scale: dict[int, list[DyadicInterval]] = {}
    for iv in scanned:
        by_scale.setdefault(iv.j, []).append(iv)
    rng = np.random.default_rng(7)
    for _ in range(200):
        j = int(rng.integers(0, g.J + 1))
        lj = 2.0 * g.L * 2.0 ** (-j)
        length = float(rng.uniform(0.05, 2.0 / 3.0)) * lj
        a = float(rng.uniform(-g.L, g.L - length))
        lo = int(np.searchsorted(g.centers, a))
        hi = int(np.searchsorted(g.centers, a + length, side="right"))
        if hi <= lo:
            continue  # no centers inside; nothing to cover
        assert any(
            iv.cell_start <= lo and hi <= iv.cell_stop for iv in by_scale[j]
        ), f"uncovered interval [{a}, {a + length}] at scale {j}"


def test_quadrature_additivity_over_children():
    g = make_grid(8.0, 6)
    f = sample(lambda x: np.exp(-x * x), g)
    for iv in dyadic_intervals(g, j_max=4, shifts=(0.0,)):
        if iv.j == 4:
            continue
        left, right = children(iv)
        whole = integrate(f, iv)
        assert whole == pytest.approx(integrate(f, left) + integrate(f, right), rel=1e-14)


def test_quadrature_refinement_consistency():
    """Integral of a smooth function changes < 1% between J and J+2."""
    for expr in (lambda x: np.exp(-x * x), lambda x: 1.0 / (1.0 + x * x)):
        coarse = integrate(sample(expr, make_grid(8.0, 8)))
        fine = integrate(sample(expr, make_grid(8.0, 10)))
        assert abs(fine - coarse) <= 0.01 * abs(fine)


def test_integrate_weighted():
    g = make_grid(2.0, 6)
    f = sample(lambda x: x * x, g)
    w = sample(lambda x: np.abs(x), g)
    direct = float(g.h * np.sum(f.values * w.values))
    assert integrate(f, weight=w) == direct
    with pytest.raises(GridMismatchError):
        integrate(f, weight=sample(np.abs, make_grid(2.0, 5)))


def test_interior_mask():
    g = make_grid(8.0, 6)
    m = g.interior_mask(0.05)
    assert m.sum() < g.N
    assert np.all(np.abs(g.centers[m]) <= 0.95 * 8.0)
    with pytest.raises(DomainError):
        g.interior_mask(0.7)

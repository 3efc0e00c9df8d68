"""Grid substrate: centers, dyadic interval geometry, quadrature."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedweak._errors import (
    ConfigurationError,
    DomainError,
    GeometryError,
    GridMismatchError,
    RangeError,
    SamplingError,
)
from mixedweak.grid import (
    DyadicInterval,
    DyadicScan,
    ExhaustiveScan,
    dyadic_intervals,
    integrate,
    make_grid,
    sample,
    scan_cell_ranges,
)


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
    left, right = root.children()
    assert (left.cell_start, left.cell_stop) == (0, 8)
    assert (right.cell_start, right.cell_stop) == (8, 16)
    assert left.parent() == root
    assert root.contains(left) and root.contains(right)
    assert not left.contains(right)


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
        DyadicInterval(g, 2, 0, shift_thirds=1).children()
    with pytest.raises(GeometryError):
        DyadicInterval(g, 0, 0).parent()
    with pytest.raises(GeometryError):
        DyadicInterval(g, 4, 0).children()


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
    with pytest.raises(DomainError):
        dyadic_intervals(g, j_max=2, j_min=3)


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


def test_scan_cell_ranges_matches_interval_objects():
    g = make_grid(3.0, 5)
    scan = DyadicScan(j_max=4)
    got = [
        (int(s), int(e))
        for starts, stops in scan_cell_ranges(g, scan)
        for s, e in zip(starts, stops)
    ]
    want = [
        (iv.cell_start, iv.cell_stop)
        for iv in dyadic_intervals(g, j_max=4, shifts=scan.shifts)
    ]
    # scan_cell_ranges groups by (j, shift); dyadic_intervals by (j, shift, k):
    # same grouping order, so the flat lists must agree exactly.
    assert got == want
    # within each family, shifted or not, every stop is the next member's start
    for starts, stops in scan_cell_ranges(g, scan):
        assert np.array_equal(stops[:-1], starts[1:])


def test_exhaustive_scan_guard_and_count():
    g = make_grid(1.0, 4)
    n_intervals = sum(
        starts.size for starts, _ in scan_cell_ranges(g, ExhaustiveScan())
    )
    assert n_intervals == g.N * (g.N + 1) // 2
    big = make_grid(1.0, 10)
    with pytest.raises(RangeError):
        list(scan_cell_ranges(big, ExhaustiveScan()))


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
        left, right = iv.children()
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

"""Hilbert transform and commutators: closed forms, identities, kernel bounds."""

from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedweak._errors import DomainError, GridMismatchError
from mixedweak.grid import SampledFunction, make_grid, sample
from mixedweak.singular import commutator, hilbert
from mixedweak.weights import bmo_norm, power_weight
from oracles import HILBERT_KERNEL, ConvolutionKernel, iterated_maximal, kernel_smoothness_check


def chi11(x):
    return np.where(np.abs(x) <= 1.0, 1.0, 0.0)


def direct_sum(b, f, m, kernel=HILBERT_KERNEL):
    """The O(N^2) definition of T_b^m f, blocked over output rows: the oracle."""
    grid = f.grid
    assert grid.N <= 2**10, "the dense oracle is for small grids only"
    x, bv = grid.centers, b.values
    out = np.empty(grid.N)
    for i0 in range(0, grid.N, 256):
        i1 = min(i0 + 256, grid.N)
        with np.errstate(divide="ignore"):
            kern = kernel.coef / (x[i0:i1, None] - x[None, :])
        rows = np.arange(i0, i1)
        kern[rows - i0, rows] = 0.0  # the epsilon = h/2 exclusion: own cell only
        if m > 0:
            kern *= (bv[i0:i1, None] - bv[None, :]) ** m
        out[i0:i1] = kern @ f.values
    return out * grid.h


def rel_sup_error(fast, exact):
    return float(np.max(np.abs(fast - exact)) / np.max(np.abs(exact)))


def test_kernel_shape():
    k = ConvolutionKernel()
    xs = np.array([0.5, 1.0, 7.0, -2.5])
    assert np.array_equal(k(-xs), -k(xs))
    np.testing.assert_allclose(np.abs(k(xs) * xs), 1.0 / math.pi, rtol=1e-15)
    assert k.size_constant == 1.0 / math.pi
    fitted = k.with_smoothness(0.64)
    assert fitted.smoothness == 0.64 and k.smoothness is None


def test_zero_in_zero_out():
    g = make_grid(8.0, 8)
    assert np.all(hilbert(sample(lambda x: 0.0, g)).values == 0.0)


def test_even_input_gives_odd_output():
    g = make_grid(8.0, 12)
    hf = hilbert(sample(chi11, g)).values
    np.testing.assert_allclose(hf[::-1], -hf, atol=1e-12)


def test_indicator_closed_form():
    # H chi_[-1,1](x) = (1/pi) log|(x+1)/(x-1)|
    g = make_grid(8.0, 12)
    hf = hilbert(sample(chi11, g)).values
    x = g.centers
    i3 = int(np.argmin(np.abs(x - 3.0)))
    form3 = (1.0 / math.pi) * math.log((x[i3] + 1.0) / (x[i3] - 1.0))
    assert form3 == pytest.approx((1.0 / math.pi) * math.log(2.0), rel=1e-2)
    assert hf[i3] == pytest.approx(form3, rel=0.02)
    window = (np.abs(x) > 1.3) & (np.abs(x) < 6.0)
    form = (1.0 / math.pi) * np.log(np.abs((x[window] + 1.0) / (x[window] - 1.0)))
    assert np.max(np.abs(hf[window] - form) / np.abs(form)) < 1e-4


def test_l2_operator_norm_proxy():
    g = make_grid(8.0, 12)
    for fn in (chi11, lambda x: np.exp(-x * x), lambda x: np.sin(3.0 * x) * np.exp(-0.2 * x * x)):
        f = sample(fn, g)
        ratio = math.sqrt(float(np.sum(hilbert(f).values ** 2) / np.sum(f.values**2)))
        assert 0.8 < ratio <= 1.05


def test_commutator_order_zero_is_hilbert_bitwise():
    g = make_grid(8.0, 10)
    f = sample(chi11, g)
    b = sample(lambda x: np.log(np.abs(x)), g)
    assert np.array_equal(commutator(b, f, 0).values, hilbert(f).values)


def test_constant_symbol_annihilates():
    g = make_grid(8.0, 10)
    f = sample(chi11, g)
    for m in (1, 2, 3):
        assert np.all(commutator(sample(lambda x: 2.0, g), f, m).values == 0.0)


@pytest.mark.parametrize("J", [8, 10])
def test_fft_matches_direct_sum_on_named_inputs(J):
    g = make_grid(8.0, J)
    b = sample(lambda x: np.log(np.abs(x)), g)
    inputs = (
        chi11,
        lambda x: np.where((x > 0.0) & (x < 1.0), np.abs(x) ** -0.25, 0.0),
        lambda x: np.exp(-8.0 * (x - 1.5) ** 2) - 0.5 * np.exp(-3.0 * (x + 2.0) ** 2),
    )
    for fn in inputs:
        f = sample(fn, g)
        for m in range(4):
            assert rel_sup_error(commutator(b, f, m).values, direct_sum(b, f, m)) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(
    J=st.integers(min_value=4, max_value=10),
    m=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    offset=st.floats(min_value=-1e6, max_value=1e6),
    spread=st.floats(min_value=1e-3, max_value=10.0),
)
def test_fft_commutator_matches_direct_sum(J, m, seed, offset, spread):
    # random rough symbols, offsets up to 1e6 and random signed data: the
    # midrange shift and the binomial split must stay within 1e-11 of the
    # dense definition
    rng = np.random.default_rng(seed)
    g = make_grid(8.0, J)
    b = SampledFunction(g, offset + spread * rng.standard_normal(g.N))
    f = SampledFunction(g, rng.standard_normal(g.N))
    assert rel_sup_error(commutator(b, f, m).values, direct_sum(b, f, m)) <= 1e-11


def test_commutator_memory_is_linear_in_n():
    # a few length-2N spectra per order, never an N x block tile
    g = make_grid(8.0, 16)
    f = sample(chi11, g)
    b = sample(lambda x: np.log(np.abs(x)), g)
    tracemalloc.start()
    try:
        commutator(b, f, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 8 * g.N


def test_commutator_two_route_identity():
    g = make_grid(8.0, 12)
    f = sample(chi11, g)
    b = sample(lambda x: np.log(np.abs(x)), g)
    direct = commutator(b, f, 1).values
    two_route = b.values * hilbert(f).values - hilbert(SampledFunction(g, b.values * f.values)).values
    rel = np.max(np.abs(direct - two_route)) / np.max(np.abs(two_route))
    assert rel < 1e-10


def test_commutator_linear_in_f():
    rng = np.random.default_rng(3)
    g = make_grid(8.0, 9)
    b = sample(lambda x: np.log(np.abs(x)), g)
    f1 = SampledFunction(g, rng.standard_normal(g.N))
    f2 = SampledFunction(g, rng.standard_normal(g.N))
    combo = commutator(b, SampledFunction(g, 2.0 * f1.values + f2.values), 2).values
    split = 2.0 * commutator(b, f1, 2).values + commutator(b, f2, 2).values
    np.testing.assert_allclose(combo, split, rtol=1e-11, atol=1e-13)


def test_commutator_guards():
    g = make_grid(8.0, 8)
    f = sample(chi11, g)
    b = sample(lambda x: x, g)
    with pytest.raises(DomainError):
        commutator(b, f, -1)
    with pytest.raises(GridMismatchError):
        commutator(sample(lambda x: x, make_grid(8.0, 9)), f, 1)


def test_smoothness_constant_of_hilbert_kernel():
    res = kernel_smoothness_check(HILBERT_KERNEL)
    assert res.total == 100_000 and res.skipped == 0
    assert res.constant <= 2.0 / math.pi + 1e-9
    assert res.constant == pytest.approx(2.0 / math.pi, rel=1e-3)


def test_smoothness_degenerate_and_violating_samplers():
    def equal_yz(rng, count):
        y = rng.uniform(1.0, 2.0, count)
        return y + 3.0, y, y.copy()

    res = kernel_smoothness_check(HILBERT_KERNEL, sampler=equal_yz, count=100)
    assert res.constant == 0.0 and res.skipped == 0

    def inadmissible(rng, count):
        y = rng.uniform(1.0, 2.0, count)
        return y + 0.1, y, y + 0.3  # |x-y| far below 2|y-z|

    res = kernel_smoothness_check(HILBERT_KERNEL, sampler=inadmissible, count=100)
    assert res.skipped == 100 and res.constant == 0.0


def test_transform_runtime_budget():
    g = make_grid(8.0, 14)
    f = sample(chi11, g)
    start = time.perf_counter()
    hilbert(f)
    assert time.perf_counter() - start < 5.0


def test_coifman_control_finite_and_refinement_stable():
    # int |T_b^m f|^p w dx against int (M^{m+1} f)^p w dx for an A_infinity
    # weight; smooth bump input so the log-singularity quadrature converges
    # at desk-scale resolutions
    def bump(x):
        return np.exp(-8.0 * (x - 1.5) ** 2)

    def ratio(J, m, p):
        g = make_grid(8.0, J)
        w = power_weight(g, -0.25)
        b = sample(lambda x: np.log(np.abs(x)), g)
        bn = SampledFunction(g, b.values / bmo_norm(b))
        f = sample(bump, g)
        num = float(np.sum(np.abs(commutator(bn, f, m).values) ** p * w.values))
        den = float(np.sum(iterated_maximal(f, m + 1).values ** p * w.values))
        return num / den

    expected = {
        (1, 1.5): (10, 0.205707),
        (1, 2.0): (10, 0.159068),
        (2, 1.5): (12, 0.690836),
        (2, 2.0): (12, 1.601200),
    }
    for (m, p), (J, frozen) in expected.items():
        coarse = ratio(J, m, p)
        fine = ratio(J + 2, m, p)
        assert coarse == pytest.approx(frozen, rel=1e-4)
        assert 0.0 < coarse < 10.0
        assert fine == pytest.approx(coarse, rel=0.2)

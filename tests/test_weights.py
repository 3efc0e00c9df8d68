"""Weight-constant estimators against naive oracles and class membership facts."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedweak._errors import DomainError, GeometryError, GridMismatchError
from mixedweak.grid import (
    THIRD_SHIFTS,
    DyadicInterval,
    DyadicScan,
    Grid,
    SampledFunction,
    dyadic_intervals,
    make_grid,
    sample,
)
from mixedweak.weights import (
    ConstantEstimate,
    Weight,
    bmo_norm,
    custom_weight,
    estimate_Ap,
    estimate_Ap_u,
    fundamental_ratio,
    power_weight,
    refined,
)
from oracles import (
    bmo_w_norm,
    dilated_average_gap,
    estimate_RH,
    estimate_RH_inf,
    jn_tail,
    oscillation_max,
    product_weight,
    weighted_expL_vs_plain,
)


# --- naive interval oracles (independent of the package scan machinery) ---


def _intervals(n):
    for i in range(n):
        for j in range(i + 1, n + 1):
            yield i, j


def naive_A1(vals):
    return max(vals[i:j].mean() / vals[i:j].min() for i, j in _intervals(len(vals)))


def naive_Ap(vals, p):
    return max(
        vals[i:j].mean() * (vals[i:j] ** (-1.0 / (p - 1.0))).mean() ** (p - 1.0)
        for i, j in _intervals(len(vals))
    )


def naive_RH(vals, s):
    return max(
        (vals[i:j] ** s).mean() ** (1.0 / s) / vals[i:j].mean() for i, j in _intervals(len(vals))
    )


def naive_RH_inf(vals):
    return max(vals[i:j].max() / vals[i:j].mean() for i, j in _intervals(len(vals)))


def naive_fundamental(uvals, vvals):
    return max(
        (uvals[i:j] * vvals[i:j]).sum() / (vvals[i:j].sum() * uvals[i:j].min())
        for i, j in _intervals(len(uvals))
    )


def naive_bmo(bvals, p=1.0):
    return max(
        (np.abs(bvals[i:j] - bvals[i:j].mean()) ** p).mean() ** (1.0 / p)
        for i, j in _intervals(len(bvals))
    )


def naive_bmo_w(bvals, wvals):
    return max(
        (np.abs(bvals[i:j] - bvals[i:j].mean()) * wvals[i:j]).sum() / wvals[i:j].sum()
        for i, j in _intervals(len(bvals))
    )


def on_both(g, constant):
    """``constant(grid)`` on ``g.coarsened()`` and on ``g``, as one refinement pair."""
    return refined(constant(g.coarsened()), constant(g))


# --- Weight type ----------------------------------------------------------


def test_weight_positivity_guard():
    g = make_grid(2.0, 4)
    with pytest.raises(DomainError, match="strictly positive"):
        Weight(sample(lambda x: x, g))
    w = power_weight(g, -0.5)
    assert np.all(w.values > 0.0)


def test_product_weight_composes_exprs():
    g = make_grid(8.0, 6)
    p = product_weight(power_weight(g, -0.5), power_weight(g, 0.25))
    np.testing.assert_allclose(p.values, np.abs(g.centers) ** -0.25, rtol=1e-12)
    with pytest.raises(GridMismatchError):
        product_weight(power_weight(g, 1.0), power_weight(make_grid(8.0, 7), 1.0))


# --- A_p estimates --------------------------------------------------------


def test_Ap_of_constant_weight_is_one_exactly():
    g = make_grid(8.0, 6)
    for p in (1.0, 1.5, 2.0):
        est = on_both(g, lambda h: estimate_Ap(custom_weight(h, np.ones(h.N)), p))
        assert est.value == 1.0
        assert est.stable
        assert est.refinement_pair == (1.0, 1.0)


def test_Ap_guards():
    g = make_grid(8.0, 6)
    with pytest.raises(DomainError):
        estimate_Ap(power_weight(g, -0.5), 0.5)
    with pytest.raises(DomainError):
        estimate_RH(power_weight(g, -0.5), 1.0)
    with pytest.raises(DomainError):
        estimate_Ap_u(power_weight(g, -0.5), power_weight(g, 0.0), 0.9)


def test_A1_power_weight_stable_and_oracle_sandwiched():
    est = on_both(make_grid(8.0, 10), lambda h: estimate_Ap(power_weight(h, -0.5), 1.0))
    assert est.stable
    assert 2.0 <= est.value <= 2.5  # continuum A1 constant of |x|^(-1/2) is 1 + sqrt 2
    g6 = make_grid(8.0, 6)
    w6 = power_weight(g6, -0.5)
    scan_val = estimate_Ap(w6, 1.0)
    oracle = naive_A1(w6.values)
    assert scan_val <= oracle * (1.0 + 1e-12)
    assert oracle <= 3.0 * scan_val


def test_Ap_oracle_sandwich_p2():
    g6 = make_grid(8.0, 6)
    w6 = power_weight(g6, -0.5)
    scan_val = estimate_Ap(w6, 2.0)
    oracle = naive_Ap(w6.values, 2.0)
    assert scan_val <= oracle * (1.0 + 1e-12) <= 9.0 * scan_val


def test_A2_of_nonmember_weight_grows():
    est = on_both(make_grid(8.0, 10), lambda h: estimate_Ap(power_weight(h, -2.0), 2.0))
    coarse, fine = est.refinement_pair
    assert not est.stable
    assert fine > 2.0 * coarse  # mass at the singularity doubles the estimate and more


def test_Ap_monotone_in_p_for_power_weight():
    w = power_weight(make_grid(8.0, 8), -0.5)
    vals = [estimate_Ap(w, p) for p in (1.0, 1.5, 2.0, 3.0)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


@settings(max_examples=30, deadline=None)
@given(logs=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=16, max_size=16))
def test_Ap_monotone_in_p_property(logs):
    g = make_grid(1.0, 4)
    w = custom_weight(g, np.exp(np.asarray(logs)))
    v1 = estimate_Ap(w, 1.5)
    v2 = estimate_Ap(w, 2.5)
    assert v2 <= v1 * (1.0 + 1e-9)


# --- reverse Hoelder ------------------------------------------------------


def test_RH_constant_weight():
    g = make_grid(8.0, 6)
    est = on_both(g, lambda h: estimate_RH(custom_weight(h, np.ones(h.N)), 2.0))
    assert est.value == 1.0 and est.stable


def test_RH_power_weight_integrability_threshold():
    g = make_grid(8.0, 10)
    ok = on_both(g, lambda h: estimate_RH(power_weight(h, -0.5), 1.5))
    assert ok.stable and ok.value < 1.5
    bad = on_both(g, lambda h: estimate_RH(power_weight(h, -0.5), 3.0))  # w^3 = |x|^(-3/2) is not locally integrable
    assert not bad.stable
    coarse, fine = bad.refinement_pair
    assert fine > coarse


def test_RH_oracle_sandwich():
    g6 = make_grid(8.0, 6)
    w6 = power_weight(g6, -0.5)
    scan_val = estimate_RH(w6, 1.5)
    oracle = naive_RH(w6.values, 1.5)
    assert scan_val <= oracle * (1.0 + 1e-12) <= 3.0 * scan_val


def test_RH_inf_proxy_lemma_facts():
    g = make_grid(8.0, 10)

    def inv(h):  # inverse of an A1 weight is RH_inf
        return power_weight(h, 0.5)

    def other(h):
        return Weight(sample(lambda x: (1.0 + np.abs(x)) ** 0.3, h))

    assert on_both(g, lambda h: estimate_RH_inf(inv(h))).stable
    # product of two RH_inf-stable weights stays RH_inf-stable
    assert on_both(g, lambda h: estimate_RH_inf(other(h))).stable
    assert on_both(g, lambda h: estimate_RH_inf(product_weight(inv(h), other(h)))).stable


# --- weighted A_p ---------------------------------------------------------


def test_Ap_u_reduces_to_Ap_for_lebesgue_measure():
    g = make_grid(8.0, 8)
    v = power_weight(g, -0.25)
    one = custom_weight(g, np.ones(g.N))
    for p in (1.0, 2.0):
        assert estimate_Ap_u(v, one, p) == pytest.approx(estimate_Ap(v, p), rel=1e-14)


def test_Ap_u_of_constant_v_is_one():
    g = make_grid(8.0, 8)
    one = custom_weight(g, np.ones(g.N))
    u = power_weight(g, -0.5)
    for p in (1.0, 2.0, 3.0):
        assert estimate_Ap_u(one, u, p) == pytest.approx(1.0, rel=1e-14)


def test_Ap_u_power_pair_stable_and_oracle():
    est = on_both(
        make_grid(8.0, 10),
        lambda h: estimate_Ap_u(power_weight(h, -0.25), power_weight(h, -0.5), 2.0),
    )
    assert est.stable
    g6 = make_grid(8.0, 6)
    v6, u6 = power_weight(g6, -0.25), power_weight(g6, -0.5)
    scan_val = estimate_Ap_u(v6, u6, 2.0)
    oracle = max(
        (v6.values[i:j] * u6.values[i:j]).sum()
        / u6.values[i:j].sum()
        * ((v6.values[i:j] ** -1.0 * u6.values[i:j]).sum() / u6.values[i:j].sum())
        for i, j in _intervals(g6.N)
    )
    assert scan_val <= oracle * (1.0 + 1e-12) <= 9.0 * scan_val


def test_product_of_tested_pair_lands_in_A2():
    # u in A1 and v in A_p(u) stable imply uv in A_p stable
    g = make_grid(8.0, 10)

    def pair(h):
        return power_weight(h, -0.5), power_weight(h, -0.25)

    assert on_both(g, lambda h: estimate_Ap(pair(h)[0], 1.0)).stable
    assert on_both(g, lambda h: estimate_Ap_u(pair(h)[1], pair(h)[0], 2.0)).stable
    assert on_both(g, lambda h: estimate_Ap(product_weight(*pair(h)), 2.0)).stable


# --- BMO-type norms -------------------------------------------------------


def test_bmo_constant_is_zero():
    # a dyadic constant so the running mean is exact
    g = make_grid(8.0, 6)
    assert bmo_norm(sample(lambda x: 4.25, g)) == 0.0
    assert bmo_w_norm(sample(lambda x: 4.25, g), power_weight(g, -0.5)) == 0.0


def test_bmo_of_linear_symbol_is_half_L():
    # b(x) = x: the maximizing window is the whole domain, mean |x| = L/2 exactly
    for J in (6, 9):
        g = make_grid(8.0, J)
        assert bmo_norm(sample(lambda x: x, g)) == pytest.approx(4.0, abs=1e-12)


def test_bmo_oracle_sandwich_and_p_equivalence():
    g6 = make_grid(8.0, 6)
    b = sample(lambda x: np.log(np.abs(x)), g6)
    scan1 = bmo_norm(b)
    oracle1 = naive_bmo(b.values)
    assert scan1 <= oracle1 * (1.0 + 1e-12) <= 6.0 * scan1
    # p = 2 dominates p = 1 (power-mean) but stays within a fixed factor
    p2 = oscillation_max(g6, b.values, None, DyadicScan(), 2.0)
    assert scan1 <= p2 * (1.0 + 1e-12)
    assert p2 <= 2.0 * scan1


def test_bmo_refinement_stable_for_log():
    coarse = bmo_norm(sample(lambda x: np.log(np.abs(x)), make_grid(8.0, 8)))
    fine = bmo_norm(sample(lambda x: np.log(np.abs(x)), make_grid(8.0, 10)))
    assert abs(fine - coarse) < 0.05 * fine


def test_bmo_w_reduces_to_bmo_for_unit_weight():
    g = make_grid(8.0, 7)
    b = sample(lambda x: np.log(np.abs(x)), g)
    one = custom_weight(g, np.ones(g.N))
    assert bmo_w_norm(b, one) == bmo_norm(b)


def test_bmo_w_oracle_and_two_sided_comparison():
    g6 = make_grid(8.0, 6)
    b = sample(lambda x: np.log(np.abs(x)), g6)
    w = power_weight(g6, -0.5)
    oracle = naive_bmo_w(b.values, w.values)
    scan = bmo_w_norm(b, w)
    assert scan <= oracle * (1.0 + 1e-12) <= 6.0 * scan


def test_bmo_vs_weighted_bmo_inequality_with_estimated_A1():
    # per-interval: avg|b - b_Q| <= A1ratio_Q * wosc_Q, so the maxima inherit it
    g = make_grid(8.0, 9)
    b = sample(lambda x: np.log(np.abs(x)), g)
    w = power_weight(g, -0.5)
    a1 = estimate_Ap(w, 1.0)
    plain = bmo_norm(b)
    weighted = bmo_w_norm(b, w)
    assert plain <= a1 * weighted * (1.0 + 1e-12)
    # fitted reverse comparison stays bounded on this corpus
    assert weighted <= 5.0 * plain


# --- John-Nirenberg tails -------------------------------------------------


def test_jn_tail_trivial_cases():
    g = make_grid(8.0, 6)
    Q = DyadicInterval(g, 2, 1)
    flat = jn_tail(sample(lambda x: 1.0, g), Q, [0.5, 1.0])
    assert flat == [(0.5, 0.0), (1.0, 0.0)]
    frac0 = jn_tail(sample(lambda x: x, g), Q, [0.0])[0][1]
    assert 0.0 < frac0 <= 1.0
    with pytest.raises(DomainError):
        jn_tail(sample(lambda x: x, g), Q, [-1.0])


def test_jn_tail_log_decay_fit():
    # b = log|x| on Q = [0,1]: the tail {|b - b_Q| > lam} is about e^(-1-lam),
    # so log-fraction vs lam is linear with slope -1
    g = make_grid(8.0, 19)
    b = sample(lambda x: np.log(np.abs(x)), g)
    Q = DyadicInterval(g, 4, 8)
    assert (Q.a, Q.b) == (0.0, 1.0)
    pts = jn_tail(b, Q, range(1, 9))
    lams = np.array([p[0] for p in pts])
    fracs = np.array([p[1] for p in pts])
    assert fracs[0] == pytest.approx(math.exp(-2.0), rel=2e-2)
    logf = np.log(fracs)
    slope = np.polyfit(lams, logf, 1)[0]
    r2 = float(np.corrcoef(lams, logf)[0, 1] ** 2)
    assert slope < 0.0
    assert r2 > 0.95
    assert slope == pytest.approx(-1.0, abs=0.05)


# --- dilated averages -----------------------------------------------------


def test_dilated_gap_trivial_cases():
    g = make_grid(8.0, 8)
    Q = DyadicInterval(g, 4, 9)
    assert dilated_average_gap(sample(lambda x: 7.0, g), Q, 3) == 0.0
    assert dilated_average_gap(sample(lambda x: np.log(np.abs(x)), g), Q, 0) == 0.0
    with pytest.raises(DomainError):
        dilated_average_gap(sample(lambda x: x, g), Q, -1)


def test_dilated_gap_log_symbol_against_closed_forms():
    # Q = [1,2], continuum averages of log|x| over the clipped dilates
    g = make_grid(8.0, 12)
    b = sample(lambda x: np.log(np.abs(x)), g)
    Q = DyadicInterval(g, 4, 9)
    assert (Q.a, Q.b) == (1.0, 2.0)
    # int log x = x log x - x; dilate k=1 is [0.5, 2.5], k=2 is [-0.5, 3.5]
    avg_q = 2.0 * math.log(2.0) - 1.0
    avg_1 = (2.5 * math.log(2.5) - 2.5 - (0.5 * math.log(0.5) - 0.5)) / 2.0
    avg_2 = (0.5 * (math.log(0.5) - 1.0) + 3.5 * (math.log(3.5) - 1.0)) / 4.0
    assert dilated_average_gap(b, Q, 1) == pytest.approx(abs(avg_q - avg_1), abs=1e-3)
    assert dilated_average_gap(b, Q, 2) == pytest.approx(abs(avg_q - avg_2), abs=1e-2)
    # bounded by the lemma shape C k ||b||_BMO with a small fitted C, and the
    # normalized gaps decay once the dilate has swallowed the singularity
    nb = bmo_norm(b)
    ratios = [dilated_average_gap(b, Q, k) / (k * nb) for k in range(1, 6)]
    assert max(ratios) <= 1.0
    assert ratios[4] <= ratios[1]


# --- fundamental ratio ----------------------------------------------------


def test_fundamental_ratio_trivial_and_reduction():
    g = make_grid(8.0, 8)
    one = custom_weight(g, np.ones(g.N))
    v = power_weight(g, -0.25)
    assert fundamental_ratio(one, v) == 1.0
    u = power_weight(g, -0.5)
    assert fundamental_ratio(u, one) == pytest.approx(estimate_Ap(u, 1.0), rel=1e-14)


def test_fundamental_ratio_power_pair():
    est = on_both(
        make_grid(8.0, 10), lambda h: fundamental_ratio(power_weight(h, -0.5), power_weight(h, -0.25))
    )
    assert est.stable
    g6 = make_grid(8.0, 6)
    u6, v6 = power_weight(g6, -0.5), power_weight(g6, -0.25)
    oracle = naive_fundamental(u6.values, v6.values)
    scan = fundamental_ratio(u6, v6)
    assert scan <= oracle * (1.0 + 1e-12) <= 3.0 * scan


# --- exponential-Orlicz comparison ----------------------------------------


def test_weighted_expL_trivial_cases():
    g = make_grid(8.0, 7)
    Q = DyadicInterval(g, 1, 0)
    w = power_weight(g, -0.25)
    assert weighted_expL_vs_plain(sample(lambda x: 3.5, g), Q, w) == (0.0, 0.0)
    one = custom_weight(g, np.ones(g.N))
    b = sample(lambda x: np.log(np.abs(x)), g)
    wt, pl = weighted_expL_vs_plain(b, Q, one)
    assert wt == pl


def test_weighted_expL_fitted_bounds_over_many_intervals():
    g = make_grid(8.0, 9)
    b = sample(lambda x: np.log(np.abs(x)), g)
    w = power_weight(g, -0.25)  # RH_s for every s < 4
    nb = bmo_norm(b)
    for Q in dyadic_intervals(g, j_max=4, shifts=(0.0,)):
        wt, pl = weighted_expL_vs_plain(b, Q, w)
        assert wt <= 2.0 * pl + 1e-12
        assert pl <= 3.0 * nb + 1e-12


# --- scanned families against plain per-interval numpy --------------------


def scanned_max(grid, scan, functional):
    """Test-only oracle: max of functional(a, b) over the intervals of the scan."""
    ivs = dyadic_intervals(grid, scan.effective_j_max(grid), scan.shifts)
    return max(functional(iv.cell_start, iv.cell_stop) for iv in ivs)


@st.composite
def weights_symbol_scan(draw):
    J = draw(st.integers(min_value=3, max_value=7))
    n = 1 << J
    logs = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    bvals = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    j_max = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=J)))
    shifts = draw(st.lists(st.sampled_from(THIRD_SHIFTS), min_size=1, max_size=3, unique=True))
    grid = Grid(8.0, J)
    return (
        custom_weight(grid, np.exp(np.asarray(logs))),
        SampledFunction(grid, np.asarray(bvals)),
        DyadicScan(j_max=j_max, shifts=tuple(shifts)),
    )


@settings(max_examples=25, deadline=None)
@given(case=weights_symbol_scan())
def test_reduceat_estimators_match_per_interval_numpy(case):
    w, b, scan = case
    g, v, x = w.grid, w.values, b.values
    pv = np.concatenate(([0.0], np.cumsum(v)))
    # the cell min and max are exact, and the averages are the same prefix-sum differences
    a1 = estimate_Ap(w, 1.0, scan)
    assert a1 == scanned_max(g, scan, lambda a, z: (pv[z] - pv[a]) / (z - a) / v[a:z].min())
    rh = estimate_RH_inf(w, scan)
    assert rh == scanned_max(g, scan, lambda a, z: v[a:z].max() * (z - a) / (pv[z] - pv[a]))
    # oscillations are sums in another order; abs covers symbols that are nearly constant
    tol = 1e-12 * float(np.max(np.abs(x)))
    osc = {1.0: bmo_norm(b, scan), 2.0: oscillation_max(g, x, None, scan, 2.0)}
    assert osc[1.0] == oscillation_max(g, x, None, scan, 1.0)
    for p in osc:
        want = scanned_max(
            g, scan, lambda a, z: (np.abs(x[a:z] - x[a:z].mean()) ** p).mean() ** (1.0 / p)
        )
        assert osc[p] == pytest.approx(want, rel=1e-12, abs=tol)
    wosc = bmo_w_norm(b, w, scan)
    want = scanned_max(
        g, scan, lambda a, z: (np.abs(x[a:z] - x[a:z].mean()) * v[a:z]).sum() / v[a:z].sum()
    )
    assert wosc == pytest.approx(want, rel=1e-12, abs=tol)
    if g.N <= 64:  # the all-intervals oracles are quadratic Python loops
        assert a1 <= naive_A1(v) * (1.0 + 1e-12)
        assert rh <= naive_RH_inf(v) * (1.0 + 1e-12)
        for p in osc:
            assert osc[p] <= naive_bmo(x, p) * (1.0 + 1e-12) + tol
        assert wosc <= naive_bmo_w(x, v) * (1.0 + 1e-12) + tol


@pytest.mark.parametrize(
    "estimate",
    [
        lambda b, w: estimate_Ap(w, 1.0),
        lambda b, w: estimate_RH_inf(w),
        lambda b, w: bmo_norm(b),
        lambda b, w: bmo_w_norm(b, w),
    ],
    ids=["A1", "RH_inf", "bmo", "bmo_w"],
)
def test_estimator_peak_memory_is_a_few_grid_arrays(estimate):
    # each family is reduced on its own block: no per-scale tables, no flattened copies
    g = make_grid(8.0, 16)
    b = sample(lambda x: np.log(np.abs(x)), g)
    w = power_weight(g, -0.5)
    tracemalloc.start()
    try:
        estimate(b, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * 8 * g.N


# --- estimate bookkeeping -------------------------------------------------


def test_constant_estimate_stable_flag_consistency():
    g = make_grid(8.0, 8)
    for est in (
        on_both(g, lambda h: estimate_Ap(power_weight(h, -0.5), 1.0)),
        on_both(g, lambda h: estimate_RH(power_weight(h, -0.5), 3.0)),
    ):
        coarse, fine = est.refinement_pair
        assert est.value == fine
        assert est.stable == (abs(fine - coarse) < 0.2 * abs(fine))
        assert isinstance(est, ConstantEstimate)
    # the bar is fine-relative and strict, and a non-finite value is never stable
    assert not refined(1.0, 1.25).stable and refined(1.0, 1.2).stable
    assert not refined(math.inf, 1.0).stable and not refined(1.0, math.nan).stable

"""Young functions: evaluation, conjugation, Luxemburg norms, duality."""

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
    RangeError,
)
from mixedweak.grid import DyadicInterval, SampledFunction, make_grid, sample
from mixedweak.young import (
    ExpAlphaL,
    ExpL,
    Identity,
    LegendreConjugate,
    LLogL,
    LuxemburgQuery,
    Power,
    Step,
    complementary,
    conjugate_equivalence_constant,
    duality_gap,
    holder_pair,
    inverse_envelope_constant,
    luxemburg_norm,
    modular_inf,
    segmented_luxemburg_norms,
    submultiplicativity_constant,
    triple_composition_check,
)

ALL_FAMILIES = [
    Identity(),
    Power(2.0),
    Power(1.5, 0.7),
    LLogL(1.0, 1.0),
    LLogL(1.0, 2.0),
    LLogL(2.0, 1.0),
    ExpL(1.0),
    ExpAlphaL(1.0, 0.5),
]


# --- evaluation -----------------------------------------------------------


def test_eval_frozen_values():
    phi = LLogL(1.0, 1.0)
    assert phi.eval(1.0) == 1.0
    assert phi.eval(2.0) == pytest.approx(3.386294361119891, rel=1e-14)
    assert Power(2.0).eval(3.0) == 9.0
    assert ExpL(1.0).eval(1.0) == pytest.approx(math.e - 1.0, rel=1e-14)
    assert ExpAlphaL(2.0, 3.0).eval(4.0) == pytest.approx(math.expm1(6.0), rel=1e-14)
    assert Step(2.0).eval(2.0) == 0.0
    assert Step(2.0).eval(2.5) == math.inf


def test_eval_at_zero_and_domain_guard():
    for phi in ALL_FAMILIES:
        assert phi.eval(0.0) == 0.0
        with pytest.raises(DomainError):
            phi.eval(-0.1)


def test_eval_vectorized_matches_scalar():
    t = np.array([0.0, 0.3, 1.0, 2.5, 40.0])
    for phi in ALL_FAMILIES:
        vec = phi.eval(t)
        for ti, vi in zip(t, vec):
            assert phi.eval(float(ti)) == pytest.approx(vi, rel=1e-14, abs=0.0)


def test_family_construction_guards():
    with pytest.raises(ConfigurationError):
        Power(0.5)
    with pytest.raises(ConfigurationError):
        Power(2.0, -1.0)
    with pytest.raises(ConfigurationError):
        LLogL(0.0, 1.0)
    with pytest.raises(ConfigurationError):
        LLogL(1.0, -0.5)
    with pytest.raises(ConfigurationError):
        ExpL(0.0)
    with pytest.raises(ConfigurationError):
        Step(0.0)


def test_convexity_on_lattice():
    t = np.logspace(-3, 2, 120)
    for phi in ALL_FAMILIES:
        if not phi.convex:
            continue
        vals = phi.eval(t)
        mids = phi.eval(0.5 * (t[:-1] + t[1:]))
        assert np.all(mids <= 0.5 * (vals[:-1] + vals[1:]) + 1e-12 * np.abs(vals[1:]))


def test_convex_flag_is_honest_for_exp_families():
    assert not ExpL(2.0).convex
    assert not LLogL(0.5, 1.0).convex
    assert ExpL(1.0).convex and ExpL(0.5).convex


# --- inverses -------------------------------------------------------------


def test_inverse_frozen_values():
    assert Identity().inverse(7.0) == 7.0
    assert LLogL(1.0, 1.0).inverse(1.0) == pytest.approx(1.0, abs=1e-10)
    assert Power(2.0).inverse(9.0) == 3.0
    assert ExpL(2.0).inverse(math.expm1(4.0)) == pytest.approx(16.0, rel=1e-12)
    # generalized inverse of the step family is the threshold at every height
    assert Step(3.0).inverse(0.0) == 3.0
    assert Step(3.0).inverse(100.0) == 3.0


def test_inverse_meets_value_tolerance():
    phi = LLogL(1.0, 2.0)
    for y in np.logspace(-6, 6, 25):
        t = phi.inverse(float(y))
        assert abs(phi.eval(t) - y) <= 1e-10 * max(1.0, y)


def test_inverse_guards():
    with pytest.raises(DomainError):
        LLogL().inverse(-1.0)
    with pytest.raises(RangeError):
        LLogL().inverse(math.inf)


@settings(max_examples=50, deadline=None)
@given(y=st.floats(min_value=1e-8, max_value=1e8))
def test_inverse_round_trip(y):
    for phi in (LLogL(1.0, 1.0), LLogL(2.0, 1.0), ExpL(1.0)):
        assert phi.eval(phi.inverse(y)) == pytest.approx(y, rel=1e-9)


# --- complementary functions ---------------------------------------------


def test_complementary_closed_forms():
    assert complementary(Identity()) == Step(1.0)
    assert complementary(Step(2.5)) == Power(1.0, 2.5)
    # t^2/2 is self-conjugate
    assert complementary(Power(2.0, 0.5)) == Power(2.0, 0.5)
    # t^2 conjugates to t^2/4
    assert complementary(Power(2.0)) == Power(2.0, 0.25)
    assert complementary(Power(1.0, 3.0)) == Step(3.0)
    assert complementary(LLogL(1.0, 0.0)) == Step(1.0)


def test_complementary_equivalent_vs_exact_form():
    phi = LLogL(1.0, 1.0)
    assert complementary(phi) == ExpL(1.0)
    exact = complementary(phi, exact=True)
    assert isinstance(exact, LegendreConjugate)
    # piecewise closed form: 0 on [0,1], t-1 on [1,2], e^(t-2) beyond
    assert exact.eval(0.5) == 0.0
    assert exact.eval(1.5) == pytest.approx(0.5, abs=2e-3)
    assert exact.eval(3.0) == pytest.approx(math.e, rel=2e-3)
    assert exact.eval(6.0) == pytest.approx(math.exp(4.0), rel=2e-3)


def test_complementary_refuses_nonconvex():
    with pytest.raises(DomainError):
        complementary(ExpL(2.0), exact=True)


def lattice_min_inverse(phi, y, chunk=8):
    """Test-only oracle: min over the slope lattice of (y + phi(s)) / s, a few heights at a time."""
    slopes, heights = phi._slopes, phi._heights
    out = np.empty(y.size)
    buf = np.empty((chunk, slopes.size))
    with np.errstate(over="ignore", divide="ignore"):
        for i in range(0, y.size, chunk):
            rows = buf[: y[i : i + chunk].size]
            np.add(y[i : i + chunk, None], heights, out=rows)
            np.divide(rows, slopes, out=rows)
            out[i : i + chunk] = np.min(rows, axis=1)
    return out


def test_legendre_inverse_of_many_heights_matches_lattice_min():
    # 10^4 heights at once: one lookup per height, no heights x lattice temporary
    phi = complementary(LLogL(1.0, 1.0), exact=True)
    y = np.logspace(-12.0, 8.0, 10**4)
    fast = phi.inverse(y)
    assert fast.shape == y.shape
    assert np.max(np.abs(fast / lattice_min_inverse(phi, y) - 1.0)) <= 1e-14


@pytest.mark.parametrize("base", [LLogL(2.0, 1.0), ExpAlphaL(0.5, 2.0), Power(3.0)])
def test_legendre_inverse_at_the_kinks_matches_lattice_min(base):
    # the envelope's breakpoints are where the lookup switches affine piece
    phi = LegendreConjugate(base)
    kinks = phi._kinks[np.isfinite(phi._kinks) & (phi._kinks > 0.0)]
    y = np.concatenate([kinks[:: max(1, kinks.size // 100)], np.logspace(-12.0, 8.0, 100)])
    assert np.max(np.abs(phi.inverse(y) / lattice_min_inverse(phi, y) - 1.0)) <= 1e-14


def test_conjugate_equivalence_constant_frozen():
    # sup over [2, 12] of (e^t - 1)/exact is e^2 - e^-10, just under e^2
    k = conjugate_equivalence_constant(LLogL(1.0, 1.0))
    assert k == pytest.approx(7.389010699000888, rel=3e-3)


# --- Luxemburg norms ------------------------------------------------------


def _box(grid, lo, hi):
    return lambda x: ((x >= lo) & (x < hi)).astype(float)


def test_luxemburg_constant_function_identity():
    g = make_grid(8.0, 5)
    Q = DyadicInterval(g, 0, 0)
    f = sample(lambda x: 3.0, g)
    w = sample(lambda x: 1.0 + np.abs(x), g)
    # phi(1) = 1 makes the norm of a constant the constant itself
    assert luxemburg_norm(LuxemburgQuery(f, Q, LLogL(1.0, 1.0), w)) == pytest.approx(3.0, rel=1e-10)
    assert luxemburg_norm(LuxemburgQuery(f, Q, LLogL(1.0, 1.0))) == pytest.approx(3.0, rel=1e-10)


def test_luxemburg_zero_function():
    g = make_grid(8.0, 5)
    Q = DyadicInterval(g, 2, 1)
    f = sample(lambda x: 0.0, g)
    assert luxemburg_norm(LuxemburgQuery(f, Q, LLogL())) == 0.0


def test_luxemburg_indicator_power_two():
    # f = chi_[0,1/2], Q = [0,1]: modular (1/2) lam^-2 = 1 at lam = 1/sqrt(2)
    g = make_grid(8.0, 5)  # h = 0.5
    Q = DyadicInterval(g, 4, 8)  # [0, 1)
    assert Q.a == 0.0 and Q.b == 1.0
    f = sample(_box(g, 0.0, 0.5), g)
    norm = luxemburg_norm(LuxemburgQuery(f, Q, Power(2.0)))
    assert norm == pytest.approx(0.7071067811865475, rel=1e-9)


def test_luxemburg_step_family_is_weighted_sup():
    g = make_grid(2.0, 6)
    Q = DyadicInterval(g, 0, 0)
    f = sample(lambda x: np.abs(x), g)
    norm = luxemburg_norm(LuxemburgQuery(f, Q, Step(2.0)))
    assert norm == pytest.approx(float(np.abs(g.centers).max()) / 2.0, rel=1e-9)


def test_luxemburg_query_guards():
    g = make_grid(8.0, 4)
    f = sample(lambda x: 1.0, g)
    other = sample(lambda x: 1.0, make_grid(8.0, 5))
    with pytest.raises(GeometryError):
        LuxemburgQuery(f, DyadicInterval(make_grid(8.0, 5), 0, 0), LLogL())
    with pytest.raises(GeometryError):
        LuxemburgQuery(f, DyadicInterval(g, 4, 15, shift_thirds=2), LLogL())
    with pytest.raises(GeometryError):
        LuxemburgQuery(f, DyadicInterval(g, 0, 0), LLogL(), w=other)
    with pytest.raises(DomainError):
        LuxemburgQuery(f, DyadicInterval(g, 0, 0), LLogL(), w=sample(lambda x: 0.0, g))


def test_modular_saturation_at_returned_norm():
    g = make_grid(8.0, 6)
    Q = DyadicInterval(g, 1, 0)
    w = sample(lambda x: np.exp(-np.abs(x)), g)
    rng = np.random.default_rng(3)
    f = SampledFunction(g, rng.uniform(0.0, 5.0, g.N))
    for phi in (LLogL(1.0, 1.0), Power(2.0), ExpL(1.0), LLogL(2.0, 1.0)):
        lam = luxemburg_norm(LuxemburgQuery(f, Q, phi, w))
        sl = Q.cell_slice
        wq = w.values[sl]
        mod = float(np.sum(phi.eval(np.abs(f.values[sl]) / lam) * wq) / np.sum(wq))
        assert 1.0 - 1e-6 <= mod <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    vals=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=16, max_size=16),
    c=st.floats(min_value=1e-3, max_value=1e3),
)
def test_luxemburg_scaling_and_monotonicity(vals, c):
    g = make_grid(4.0, 4)
    Q = DyadicInterval(g, 0, 0)
    f = SampledFunction(g, np.asarray(vals))
    phi = LLogL(1.0, 1.0)
    base = luxemburg_norm(LuxemburgQuery(f, Q, phi))
    scaled = luxemburg_norm(LuxemburgQuery(c * f, Q, phi))
    assert scaled == pytest.approx(c * base, rel=1e-8, abs=1e-12)
    bigger = luxemburg_norm(LuxemburgQuery(f + 1.0, Q, phi))
    assert bigger >= base - 1e-9 * max(1.0, base)


def test_segmented_norms_match_loop_of_single_queries():
    g = make_grid(4.0, 6)
    rng = np.random.default_rng(11)
    vals = rng.uniform(0.0, 3.0, g.N)
    w = rng.uniform(0.1, 2.0, g.N)
    starts = np.array([0, 16, 40], dtype=np.int64)
    stops = np.array([16, 40, 64], dtype=np.int64)
    phi = LLogL(1.0, 1.0)
    batch = segmented_luxemburg_norms(phi, vals, w, starts, stops)
    for s, e, got in zip(starts, stops, batch):
        single = segmented_luxemburg_norms(
            phi, vals[s:e], w[s:e], np.array([0], dtype=np.int64), np.array([e - s], dtype=np.int64)
        )
        assert got == pytest.approx(float(single[0]), rel=1e-12)


# --- modular infimum ------------------------------------------------------


def test_modular_inf_constant_function_frozen():
    # f == 1, LLogL(1,1): F(tau) = tau + tau*phi(1/tau) has infimum 2 at tau = 1
    g = make_grid(8.0, 5)
    Q = DyadicInterval(g, 0, 0)
    f = sample(lambda x: 1.0, g)
    got = modular_inf(LuxemburgQuery(f, Q, LLogL(1.0, 1.0)))
    assert got == pytest.approx(2.0, rel=1e-5)


def test_modular_inf_zero():
    g = make_grid(8.0, 5)
    f = sample(lambda x: 0.0, g)
    assert modular_inf(LuxemburgQuery(f, DyadicInterval(g, 0, 0), LLogL())) == 0.0


def test_modular_inf_vs_norm_two_sided():
    g = make_grid(8.0, 6)
    Q = DyadicInterval(g, 1, 1)
    rng = np.random.default_rng(5)
    w = SampledFunction(g, rng.uniform(0.2, 3.0, g.N))
    for seed in range(6):
        f = SampledFunction(g, np.random.default_rng(seed).uniform(0.0, 10.0, g.N))
        for phi in (LLogL(1.0, 1.0), Power(2.0), ExpL(1.0)):
            q = LuxemburgQuery(f, Q, phi, w)
            norm = luxemburg_norm(q)
            inf = modular_inf(q)
            assert norm * (1.0 - 1e-5) <= inf <= 2.0 * norm * (1.0 + 1e-5)


# --- Hoelder and duality --------------------------------------------------


def test_holder_trivial_and_unit_example():
    g = make_grid(8.0, 5)
    Q = DyadicInterval(g, 4, 8)  # [0, 1)
    zero = sample(lambda x: 0.0, g)
    one = sample(lambda x: 1.0, g)
    lhs, rhs = holder_pair(zero, one, Q, Power(2.0))
    assert lhs == 0.0 and rhs >= 0.0
    lhs, rhs = holder_pair(one, one, Q, Power(2.0))
    assert lhs == pytest.approx(1.0, rel=1e-12)
    assert rhs >= 1.0


def test_holder_random_trials():
    g = make_grid(4.0, 5)
    Q = DyadicInterval(g, 1, 0)
    rng = np.random.default_rng(17)
    w = SampledFunction(g, rng.uniform(0.1, 4.0, g.N))
    families = [Power(2.0), LLogL(1.0, 1.0), LLogL(1.0, 2.0), Power(3.0, 0.5)]
    for trial in range(250):
        f = SampledFunction(g, rng.uniform(0.0, 6.0, g.N))
        h = SampledFunction(g, rng.uniform(0.0, 6.0, g.N))
        phi = families[trial % len(families)]
        lhs, rhs = holder_pair(f, h, Q, phi, w)
        assert lhs <= rhs * (1.0 + 1e-9), f"Hoelder violated for {phi} on trial {trial}"


def test_duality_gap_frozen_cases():
    # linear/step pair: ratio exactly 1
    assert duality_gap(Identity(), 5.0).ratio == pytest.approx(1.0, abs=1e-14)
    # t^2 and t^2/4: PhiInv(1)*BarPhiInv(1) = 1*2 = 2
    got = duality_gap(Power(2.0), 1.0)
    assert got.ratio == pytest.approx(2.0, rel=1e-12)
    assert got.passed


def test_duality_gap_sweep_all_families():
    for phi in (LLogL(1.0, 1.0), LLogL(1.0, 2.0), LLogL(2.0, 1.0), Power(2.0), Power(1.5, 0.7), ExpL(1.0), Identity()):
        for t in np.logspace(-3, 3, 25):
            got = duality_gap(phi, float(t))
            assert got.passed, f"duality ratio {got.ratio} out of band for {phi} at t={t}"


def test_duality_gap_needs_exact_conjugate():
    # with the equivalent exponential conjugate the lower bound fails at small t;
    # this pins the design choice of routing duality through the exact transform
    phi = LLogL(1.0, 1.0)
    equiv = complementary(phi)
    t = 1e-3
    ratio_equiv = phi.inverse(t) * equiv.inverse(t) / t
    assert ratio_equiv < 0.95
    assert duality_gap(phi, t).passed


def test_duality_gap_guards():
    with pytest.raises(DomainError):
        duality_gap(LLogL(), 0.0)


# --- composition and fitted constants ------------------------------------


def test_triple_composition_identity_frozen():
    got = triple_composition_check(Identity(), Identity(), Identity(), samples=61)
    assert got.constant == pytest.approx(500.0, rel=1e-12)
    assert got.skipped == 0 and not got.warning


def test_triple_composition_commutator_split_is_lattice_stable():
    # A = Phi_2, B = exp-type with alpha 1, C = Phi_1: the split used for m = 2
    a, b, c = LLogL(1.0, 2.0), ExpAlphaL(1.0, 1.0), LLogL(1.0, 1.0)
    k1 = triple_composition_check(a, b, c, samples=60)
    k2 = triple_composition_check(a, b, c, samples=120)
    assert math.isfinite(k1.constant)
    assert k2.constant <= k1.constant * 1.1 + 1e-12
    assert k1.constant <= k2.constant * 1.1 + 1e-12


def test_submultiplicativity_of_log_families_is_exactly_one():
    for m in (1, 2, 3):
        k = submultiplicativity_constant(LLogL(1.0, float(m)))
        assert k == pytest.approx(1.0, abs=1e-12)
        assert k <= 2.0**m


def test_inverse_envelope_constant_stable():
    for r, delta in ((1.0, 1.0), (1.5, 1.0), (0.75, 2.0)):
        d1 = inverse_envelope_constant(r, delta, samples=400)
        d2 = inverse_envelope_constant(r, delta, samples=800)
        assert d1 >= 1.0 - 1e-12
        assert abs(d1 - d2) <= 0.1 * d2
        assert d2 <= 10.0  # loose sanity: the envelope only drifts by log-factor ratios

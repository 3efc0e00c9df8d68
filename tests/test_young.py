"""Young functions: evaluation, conjugation, Luxemburg norms, duality."""

from __future__ import annotations

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixedweak._errors import (
    ConfigurationError,
    DomainError,
    GeometryError,
    RangeError,
)
from mixedweak.grid import (
    DyadicInterval,
    SampledFunction,
    dyadic_intervals,
    make_grid,
    sample,
)
from mixedweak import young
from mixedweak.maximal import orlicz_maximal
from mixedweak.young import (
    ExpAlphaL,
    ExpL,
    Identity,
    LegendreConjugate,
    LLogL,
    LuxemburgQuery,
    Power,
    Step,
    _least_root,
    complementary,
    duality_gap,
    luxemburg_norm,
    modular_inf,
    segmented_luxemburg_norms,
)
from oracles import (
    bisection_luxemburg_norms,
    conjugate_equivalence_constant,
    holder_pair,
    inverse_envelope_constant,
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


@pytest.mark.parametrize("y", [1e-58, 1e-300, 5e-324])
def test_inverse_of_a_tiny_height_is_bisected_to_its_width(y):
    # a root far below the bracket's start at 1 is reached by halving the bracket
    # [0, 1] into its binade first: that takes up to 1074 halvings before the
    # 1e-15 relative width can be met, so a cap below that froze the root near
    # 6.2e-61 (a subnormal root is exact up to its spacing)
    assert LLogL(1.0, 1.0).inverse(y) == pytest.approx(y, rel=1e-12, abs=5e-324)
    assert LLogL(2.0, 1.0).inverse(y) == pytest.approx(math.sqrt(y), rel=1e-12)


def test_duality_gap_at_a_tiny_height():
    got = duality_gap(LLogL(1.0, 1.0), 1e-300)
    assert got.passed and got.ratio == pytest.approx(1.0, rel=1e-12)


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


#: the edge arguments of the fused evaluation: signed zeros, 1 and its two
#: neighbours, the least subnormal, a huge value, inf and nan
EDGE_ARGUMENTS = [0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
                  5e-324, 1e308, math.inf, math.nan]
FUSED_FAMILIES = [LLogL(r, d) for r in (0.5, 1.0, 1.5, 2.0, 3.0) for d in (0.0, 0.5, 1.0, 2.0, 2.5, 3.0)]
FUSED_FAMILIES += [Power(1.0), Power(2.0), Power(3.5, 0.25), ExpL(1.0), ExpL(2.0), ExpAlphaL(0.5, 2.0)]


def _old_llogl(phi, t):
    """LLogL's value and slope as written before the fused evaluation, with
    the log+ from ``where``: the fused one must keep these bits."""
    big = t > 1.0
    onelog = 1.0 + np.where(big, np.log(np.maximum(t, 1.0)), 0.0)
    return (t**phi.r * onelog**phi.delta,
            t ** (phi.r - 1.0) * onelog ** (phi.delta - 1.0) * (phi.r * onelog + phi.delta * big))


@settings(max_examples=40, deadline=None)
@given(t=st.lists(st.one_of(st.sampled_from(EDGE_ARGUMENTS), st.floats(0.0, 1e12)),
                  min_size=1, max_size=12))
@example(t=EDGE_ARGUMENTS)
def test_fused_evaluation_is_value_and_slope_bitwise(t):
    t = np.array(t)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for phi in FUSED_FAMILIES:
            val, slope = phi._eval_and_slope(t)
            want = (phi._eval_array(t), phi._slope_array(t))
            assert val.tobytes() == want[0].tobytes(), phi
            assert slope.tobytes() == want[1].tobytes(), phi
            if isinstance(phi, LLogL):
                old = _old_llogl(phi, t)
                assert want[0].tobytes() == old[0].tobytes() and want[1].tobytes() == old[1].tobytes(), phi


@pytest.mark.parametrize("phi", [complementary(LLogL(1.0, 1.0)), complementary(ExpL(1.0))])
def test_fused_evaluation_of_a_conjugate_is_value_and_slope_bitwise(phi):
    # each value and slope of a conjugate is a bisected root, so one fixed draw
    t = np.array([*EDGE_ARGUMENTS, 0.3, 2.5, 40.0])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        val, slope = phi._eval_and_slope(t)
        assert val.tobytes() == phi._eval_array(t).tobytes()
        assert slope.tobytes() == phi._slope_array(t).tobytes()


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
    exact = complementary(phi)
    assert isinstance(exact, LegendreConjugate)
    # piecewise closed form: 0 on [0,1], t-1 on [1,2], e^(t-2) beyond
    assert exact.eval(0.5) == 0.0
    assert exact.eval(1.5) == pytest.approx(0.5, rel=1e-12)
    assert exact.eval(3.0) == pytest.approx(math.e, rel=1e-12)
    assert exact.eval(6.0) == pytest.approx(math.exp(4.0), rel=1e-12)


def test_complementary_refuses_nonconvex():
    with pytest.raises(DomainError):
        complementary(ExpL(2.0))


def test_convexity_is_required_by_legendre_and_modular_inf():
    phi = LLogL(0.5, 1.0)
    with pytest.raises(DomainError, match="non-convex"):
        LegendreConjugate(phi)
    g = make_grid(8.0, 5)
    q = LuxemburgQuery(sample(lambda x: 1.0 + x * x, g), DyadicInterval(g, 0, 0), phi)
    with pytest.raises(DomainError, match="convex"):
        modular_inf(q)


#: an entry of the Orlicz engine, called with phi on a nonzero f of 32 cells
ENTRIES = {
    "LegendreConjugate": lambda phi, f: LegendreConjugate(phi),
    "segmented_luxemburg_norms": lambda phi, f: segmented_luxemburg_norms(
        phi, f.values, np.array([0, 8])),
    "luxemburg_norm": lambda phi, f: luxemburg_norm(
        LuxemburgQuery(f, DyadicInterval(f.grid, 0, 0), phi)),
    "modular_inf": lambda phi, f: modular_inf(LuxemburgQuery(f, DyadicInterval(f.grid, 0, 0), phi)),
    "orlicz_maximal": lambda phi, f: orlicz_maximal(f, phi),
    "orlicz_maximal of 0": lambda phi, f: orlicz_maximal(0.0 * f, phi),
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("phi", [LLogL(0.5, 1.0), ExpL(2.0), ExpAlphaL(2.0, 3.0)])
def test_every_entry_refuses_a_non_convex_phi_alike(entry, phi):
    # one check owns the rule: every entry raises its one text, whatever f is
    f = sample(lambda x: 1.0 + x * x, make_grid(8.0, 5))
    with pytest.raises(DomainError) as err:
        ENTRIES[entry](phi, f)
    assert str(err.value) == (f"a Luxemburg norm or a conjugate needs a convex Young function, "
                              f"got the non-convex {phi!r}")


def test_complementary_is_the_legendre_conjugate_by_value():
    for base in (LLogL(1.0, 1.0), ExpL(1.0), ExpAlphaL(0.5, 2.0)):
        assert complementary(base) == LegendreConjugate(base)
        assert hash(complementary(base)) == hash(LegendreConjugate(base))
    assert complementary(LLogL(1.0, 1.0)) != complementary(LLogL(1.0, 2.0))


def test_legendre_of_log_family_matches_its_closed_form():
    # the conjugate of t (1 + log+ t): 0 on [0, 1], t - 1 on [1, 2], e^(t - 2)
    # beyond; its inverse is 1 + y for y <= 1 and 2 + ln y beyond
    phi = complementary(LLogL(1.0, 1.0))
    t = np.concatenate((np.linspace(0.0, 1.0, 11), np.linspace(1.1, 2.0, 10), np.linspace(2.5, 700.0, 40)))
    want = np.where(t <= 1.0, 0.0, np.where(t <= 2.0, t - 1.0, np.exp(t - 2.0)))
    np.testing.assert_allclose(phi.eval(t), want, rtol=1e-12, atol=0.0)
    y = np.concatenate((np.linspace(0.0, 1.0, 11), np.logspace(0.1, 300.0, 60)))
    want = np.where(y <= 1.0, 1.0 + y, 2.0 + np.log(np.maximum(y, 1.0)))
    np.testing.assert_allclose(phi.inverse(y), want, rtol=1e-12, atol=0.0)


MP_BASES = {
    LLogL(2.0, 1.0): lambda s: s**2 * (1 + mpmath.log(s)) if s > 1 else s**2,
    ExpL(1.0): lambda s: mpmath.expm1(s),
    ExpAlphaL(0.5, 2.0): lambda s: mpmath.expm1(2 * s**2),
    Power(3.0): lambda s: s**3,
}


def mp_golden_min(f, hi):
    """Test-only oracle: argmin of a unimodal f on [0, hi] by golden section in 50 digits."""
    r = (mpmath.sqrt(5) - 1) / 2
    a, b = mpmath.mpf(0), hi
    for _ in range(260):
        c, d = b - r * (b - a), a + r * (b - a)
        if f(c) < f(d):
            b = d
        else:
            a = c
    return (a + b) / 2


def mp_conjugate(phi, t):
    """sup_s {t s - phi(s)} and its optimizing s; the sup lies where phi(s) / s <= t."""
    t, hi = mpmath.mpf(t), mpmath.mpf(1)
    while phi(hi) / hi <= t:
        hi *= 2
    s = mp_golden_min(lambda s: phi(s) - t * s, hi)
    return max(t * s - phi(s), 0), s


def mp_conjugate_inverse(phi, y):
    """inf_s (y + phi(s)) / s: quasi-convex in s, so its minimum lies below the first rise."""
    y, hi = mpmath.mpf(y), mpmath.mpf(1)

    def f(s):
        return (y + phi(s)) / s if s > 0 else mpmath.inf

    while f(2 * hi) <= f(hi):
        hi *= 2
    return f(mp_golden_min(f, 2 * hi))


@pytest.mark.parametrize("base", list(MP_BASES), ids=repr)
def test_legendre_matches_mpmath_oracle(base):
    phi, mp_phi = LegendreConjugate(base), MP_BASES[base]
    rng = np.random.default_rng(41)
    with mpmath.workdps(50):
        for t in 10.0 ** rng.uniform(-3.0, 3.0, 12):
            want, s = mp_conjugate(mp_phi, t)
            # Young's equality subtracts phi(s) from t s: rounding scales with t s
            assert abs(phi.eval(t) - float(want)) <= 1e-12 * float(t * s), (base, t)
        for y in 10.0 ** rng.uniform(-6.0, 12.0, 12):
            want = float(mp_conjugate_inverse(mp_phi, y))
            assert phi.inverse(y) == pytest.approx(want, rel=1e-12), (base, y)


def test_legendre_ends_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the optimizing slope e^998 overflows, and so does the value
        assert complementary(LLogL(1.0, 1.0)).eval(1e3) == math.inf
        for base, slope_at_zero in ((LLogL(1.0, 1.0), 1.0), (ExpL(1.0), 1.0),
                                    (LLogL(2.0, 1.0), 0.0), (ExpAlphaL(0.5, 2.0), 0.0)):
            phi = LegendreConjugate(base)
            # inverse(0) = inf_s phi(s) / s is the limit phi'(0)
            assert phi.inverse(0.0) == slope_at_zero
            assert math.isfinite(phi.inverse(1e300)) and phi.inverse(1e300) > 0.0


def test_conjugate_equivalence_constant_frozen():
    # sup over [2, 12] of (e^t - 1)/exact is e^2 - e^-10, just under e^2
    k = conjugate_equivalence_constant(LLogL(1.0, 1.0))
    assert k == pytest.approx(math.exp(2.0) - math.exp(-10.0), rel=1e-12)


# --- Luxemburg norms ------------------------------------------------------


def _box(grid, lo, hi):
    return lambda x: ((x >= lo) & (x < hi)).astype(float)


def test_luxemburg_constant_function_identity():
    g = make_grid(8.0, 5)
    Q = DyadicInterval(g, 0, 0)
    f = sample(lambda x: 3.0, g)
    # phi(1) = 1 makes the norm of a constant the constant itself
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
    with pytest.raises(GeometryError):
        LuxemburgQuery(f, DyadicInterval(make_grid(8.0, 5), 0, 0), LLogL())
    with pytest.raises(GeometryError):
        LuxemburgQuery(f, DyadicInterval(g, 4, 15, shift_thirds=2), LLogL())


def test_modular_saturation_at_returned_norm():
    g = make_grid(8.0, 6)
    Q = DyadicInterval(g, 1, 0)
    rng = np.random.default_rng(3)
    f = SampledFunction(g, rng.uniform(0.0, 5.0, g.N))
    for phi in (LLogL(1.0, 1.0), Power(2.0), ExpL(1.0), LLogL(2.0, 1.0)):
        lam = luxemburg_norm(LuxemburgQuery(f, Q, phi))
        mod = float(np.mean(phi.eval(np.abs(f.values[Q.cell_slice]) / lam)))
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
    off = np.array([0, 16, 40], dtype=np.int64)
    phi = LLogL(1.0, 1.0)
    batch = segmented_luxemburg_norms(phi, vals, off)
    for s, e, got in zip(off, [16, 40, 64], batch):
        single = segmented_luxemburg_norms(phi, vals[s:e], np.zeros(1, dtype=np.int64))
        assert got == pytest.approx(float(single[0]), rel=1e-12)


def test_segmented_norms_refuse_ranges_that_do_not_tile():
    # the offsets must rise strictly from 0 and leave the last range nonempty
    vals = np.ones(16)
    for off in ([0, 4, 4], [0, 6, 4], [4, 8], [-1, 4], [0, 16], [0, 20], []):
        with pytest.raises(GeometryError):
            segmented_luxemburg_norms(LLogL(), vals, np.array(off, dtype=np.int64))
    with pytest.raises(GeometryError):
        segmented_luxemburg_norms(LLogL(), np.ones(0), np.zeros(1, dtype=np.int64))


NEWTON_FAMILIES = [
    Power(2.0),
    Power(3.0, 0.5),
    ExpL(1.0),
    ExpAlphaL(0.5, 2.0),
    complementary(LLogL(1.0, 1.0)),
]


@pytest.mark.parametrize("phi", [*NEWTON_FAMILIES, ExpL(2.0), LLogL(1.0, 1.0), LLogL(2.0, 0.5),
                                 LLogL(0.5, 2.0)])
def test_slopes_match_central_differences(phi):
    # away from the kink of the log families at t = 1
    t = np.concatenate((np.linspace(0.05, 0.95, 19), np.linspace(1.05, 6.0, 34)))
    h = 1e-6 * t
    numeric = (phi.eval(t + h) - phi.eval(t - h)) / (2.0 * h)
    np.testing.assert_allclose(phi._slope_array(t), numeric, rtol=1e-6)


@settings(max_examples=80, deadline=None)
@given(
    phi=st.one_of(
        st.sampled_from(NEWTON_FAMILIES),
        st.builds(LLogL, st.sampled_from([1.0, 2.0]), st.floats(min_value=0.25, max_value=3.0)),
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log_amp=st.floats(min_value=-3.0, max_value=3.0),
    spikes=st.floats(min_value=1.0, max_value=4.0),
)
def test_newton_norms_match_bisection_oracle(phi, seed, log_amp, spikes):
    # |normal|^spikes puts most of the mass on few cells, which starts Newton
    # far from the root
    rng = np.random.default_rng(seed)
    n = 64
    vals = 10.0**log_amp * np.abs(rng.standard_normal(n)) ** spikes * (rng.random(n) < 0.7)
    cuts = np.unique(rng.integers(1, n, size=rng.integers(0, 12)))
    starts = np.concatenate(([0], cuts)).astype(np.int64)
    stops = np.concatenate((cuts, [n])).astype(np.int64)
    got = segmented_luxemburg_norms(phi, vals, starts)
    want = bisection_luxemburg_norms(phi, vals, None, starts, stops)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)
    for a, b, lam in zip(starts, stops, got):
        fq = np.abs(vals[a:b])
        if lam == 0.0:
            assert not np.any(fq)
            continue
        modular = float(np.mean(phi.eval(fq / lam)))
        assert 1.0 - 1e-6 <= modular <= 1.0, (phi, modular)


@settings(max_examples=80, deadline=None)
@given(
    phi=st.sampled_from(
        [Identity(), LLogL(1.0, 1.0), LLogL(2.0, 1.0), Power(2.0), ExpL(1.0), Step(2.0)]
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=64),
    constant=st.booleans(),
)
def test_norm_never_exceeds_max_over_unit_argument(phi, seed, n, constant):
    # the Orlicz maximal function skips a range on this bound; a constant |f|
    # puts the modular at the bound exactly to phi(c) = 1, the tightest case
    rng = np.random.default_rng(seed)
    if constant:
        vals = np.full(n, 10.0 ** rng.uniform(-3.0, 3.0))
    else:
        vals = rng.standard_normal(n) * np.exp(2.0 * rng.standard_normal(n)) * (rng.random(n) < 0.7)
    cuts = np.unique(rng.integers(1, max(n, 2), size=rng.integers(0, 8)))
    cuts = cuts[cuts < n]
    off = np.concatenate(([0], cuts)).astype(np.int64)
    got = segmented_luxemburg_norms(phi, vals, off)
    cap = np.maximum.reduceat(np.abs(vals), off) / float(phi.inverse(1.0))
    # measured worst case 6.0e-13, after one raise to the feasible side
    assert np.all(got <= cap * (1.0 + 1e-12))


def test_newton_refuses_a_zero_step_from_an_overflowing_slope():
    # at the right end u = c / mean(|f| / max|f|) = 18.81 phi = expm1(2 u^2) is
    # finite but its slope is not (u in (18.78, 18.84)), so g / phi' is 0 and
    # must not read as converged; the second cell tunes the mean of 32 cells
    phi = ExpAlphaL(0.5, 2.0)
    c = float(phi.inverse(1.0))
    vals = np.zeros(32)
    vals[:2] = 1.0, 32 * c / 18.81 - 1.0
    got = segmented_luxemburg_norms(phi, vals, np.zeros(1, dtype=np.int64))
    np.testing.assert_allclose(got, bisection_luxemburg_norms(phi, vals, None, [0], [32]), rtol=1e-10)


# --- single-range and single-height float paths ---------------------------

FLOAT_PATH_FAMILIES = [
    Identity(),
    Power(1.0, 2.5),
    LLogL(1.0, 0.0),
    Step(1.5),
    Power(2.0),
    Power(1.5, 3.0),
    LLogL(1.0, 1.0),
    LLogL(2.0, 0.5),
    ExpL(1.0),
    ExpAlphaL(0.5, 2.0),
    complementary(LLogL(1.0, 1.0)),
    complementary(ExpL(1.0)),
]


def _outcome(solve):
    """The float a solver returns, or the class of the error it raises."""
    try:
        return float(solve())
    except (RangeError, DomainError) as exc:
        return type(exc)


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b


@settings(max_examples=150, deadline=None)
@given(
    phi=st.sampled_from(FLOAT_PATH_FAMILIES),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log_amp=st.floats(min_value=-200.0, max_value=200.0),
    zero_frac=st.sampled_from([0.0, 0.5, 1.0]),
    j=st.integers(min_value=0, max_value=5),
)
def test_single_range_norm_is_the_segmented_norm_bitwise(phi, seed, log_amp, zero_frac, j):
    # luxemburg_norm holds the segmented solver's iterate in floats; on its
    # one range it must return the same float, or raise the same error.  The
    # segmented solver takes the float iteration itself for a lone range, so
    # a one-cell range beside Q makes it run its array iteration
    rng = np.random.default_rng(seed)
    g = make_grid(8.0, 6)
    Q = DyadicInterval(g, j, int(rng.integers(1 << j)))
    vals = 10.0**log_amp * rng.standard_normal(g.N)
    vals[rng.random(g.N) < zero_frac] = 0.0
    q = LuxemburgQuery(SampledFunction(g, vals), Q, phi)
    sl = Q.cell_slice
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        got = _outcome(lambda: luxemburg_norm(q))
        want = _outcome(lambda: _array_iteration_norm(phi, vals[sl]))
    assert _same(got, want), (got, want)


def _array_iteration_norm(phi, vals):
    """The segmented solver's norm of ``vals``, solved beside a one-cell range
    so that the array iteration runs; ranges are solved independently."""
    beside = np.concatenate([vals, [1.0]])
    return segmented_luxemburg_norms(phi, beside, np.array([0, vals.size]))[0]


class _FlatSlope(Power):
    """A power whose slope reads 0 everywhere, so every Newton step is wild."""

    def _slope_array(self, t):
        return np.zeros_like(t)


def test_single_range_norm_takes_a_zero_slope_as_a_wild_step():
    # a float quotient by a zero slope raises where numpy gives inf or nan; no
    # convex family reaches that guard (the top cell's slope is >= 1/c), so a
    # flat slope forces it, and both solvers fall back to the geometric midpoint
    phi = _FlatSlope(2.0)
    g = make_grid(8.0, 6)
    rng = np.random.default_rng(19)
    for j in range(4):
        Q = DyadicInterval(g, j, int(rng.integers(1 << j)))
        vals = rng.standard_normal(g.N)
        got = luxemburg_norm(LuxemburgQuery(SampledFunction(g, vals), Q, phi))
        with np.errstate(divide="ignore", invalid="ignore"):
            want = _array_iteration_norm(phi, vals[Q.cell_slice])
        assert _same(got, float(want)), (got, want)
        # the norm of Power(2) is the root mean square
        assert got == pytest.approx(math.sqrt(np.mean(vals[Q.cell_slice] ** 2)), rel=1e-10)


class _Capped:
    """A nondecreasing function that never exceeds 1."""

    def g(self, t):
        return np.minimum(t, 1.0)


ROOT_FUNCTIONS = [
    Identity()._eval_array,
    Step(1.5)._eval_array,
    Power(3.0)._eval_array,
    LLogL(1.0, 1.0)._eval_array,
    ExpL(1.0)._slope_array,
    complementary(LLogL(1.0, 1.0))._gap_array,
    complementary(ExpL(1.0))._gap_array,
]


@pytest.mark.parametrize("g", ROOT_FUNCTIONS)
@pytest.mark.parametrize("y", [0.0, 1e-300, 1e-5, 1.0, 3.7, 1e300])
def test_single_height_root_is_the_array_root_bitwise(g, y):
    # a height's root does not depend on the heights solved beside it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        batch = _least_root(g, np.array([y, 1e-5, 3.7, y, 1e300]))
        for height in (y, np.array(y), np.array([y])):
            got = _least_root(g, height)
            assert got.shape == np.shape(height)
            assert np.float64(got.item()).tobytes() == batch[0].tobytes() == batch[3].tobytes()


#: families whose inverse, and conjugates whose value and inverse, are bisected roots
BISECTED = [LLogL(1.0, 1.0), LLogL(1.0, 3.0), LLogL(2.0, 0.5),
            complementary(LLogL(1.0, 1.0)), complementary(LLogL(1.0, 2.0)),
            complementary(ExpL(1.0))]


@settings(max_examples=60, deadline=None)
@given(phi=st.sampled_from(BISECTED),
       heights=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e12)), min_size=1, max_size=8))
@example(phi=LLogL(1.0, 1.0), heights=np.geomspace(1e-6, 1e12, 200).tolist())
def test_an_array_of_heights_gives_its_per_height_roots_bitwise(phi, heights):
    evals = (phi.inverse, phi.eval) if isinstance(phi, LegendreConjugate) else (phi.inverse,)
    for fn in evals:
        want = np.array([fn(height) for height in heights])
        assert fn(np.array(heights)).tobytes() == want.tobytes()


def test_single_height_root_refuses_an_unreached_height():
    g = _Capped().g
    for height in (2.0, np.array([2.0, 2.0])):
        # the bracket doubles past the float range before it gives up
        with np.errstate(over="ignore"), pytest.raises(RangeError, match="not attained"):
            _least_root(g, height)


def test_single_queries_never_call_the_segmented_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("single-range query entered the segmented solver")

    monkeypatch.setattr(young, "segmented_luxemburg_norms", refuse)
    g = make_grid(8.0, 6)
    f = SampledFunction(g, np.random.default_rng(3).standard_normal(g.N))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for phi in FLOAT_PATH_FAMILIES:
            q = LuxemburgQuery(f, DyadicInterval(g, 2, 1), phi)
            assert luxemburg_norm(q) > 0.0
            assert modular_inf(q) > 0.0


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
    for seed in range(6):
        f = SampledFunction(g, np.random.default_rng(seed).uniform(0.0, 10.0, g.N))
        for phi in (LLogL(1.0, 1.0), Power(2.0), ExpL(1.0)):
            q = LuxemburgQuery(f, Q, phi)
            norm = luxemburg_norm(q)
            inf = modular_inf(q)
            assert norm * (1.0 - 1e-5) <= inf <= 2.0 * norm * (1.0 + 1e-5)


def lattice_modular_inf(q):
    """Test-only oracle: scan a ratio-1.01 lattice over norm x [1e-3, 1e3], then golden section."""
    norm = luxemburg_norm(q)
    if norm == 0.0:
        return 0.0
    absf = np.abs(q.f.values[q.Q.cell_slice])

    def objective(tau):
        with np.errstate(over="ignore", invalid="ignore"):
            mod = float(np.mean(q.phi._eval_array(absf / tau)))
        return tau * (1.0 + mod)

    n_pts = int(math.ceil(6.0 / math.log10(1.01))) + 1
    lattice = norm * np.logspace(-3.0, 3.0, n_pts)
    vals = np.array([objective(t) for t in lattice])
    i = int(np.nanargmin(vals))
    a = lattice[max(i - 1, 0)]
    b = lattice[min(i + 1, lattice.size - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > 1e-6 * 0.5 * (a + b):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    return float(min(fc, fd))


CRITERION_1_FAMILIES = [Power(2.0), LLogL(1.0, 1.0), ExpL(1.0), ExpAlphaL(0.5, 2.0)]


def _random_queries(n, seed):
    """Queries drawn like acceptance criterion 1."""
    rng = np.random.default_rng(seed)
    g = make_grid(8.0, 8)
    intervals = list(dyadic_intervals(g, j_max=5, shifts=(0.0,)))
    out = []
    while len(out) < n:
        phi = CRITERION_1_FAMILIES[rng.integers(len(CRITERION_1_FAMILIES))]
        Q = intervals[rng.integers(len(intervals))]
        f = SampledFunction(g, 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(g.N))
        out.append(LuxemburgQuery(f, Q, phi))
    return out


def test_modular_inf_matches_lattice_oracle():
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for q in _random_queries(50, 23):
            assert modular_inf(q) == pytest.approx(lattice_modular_inf(q), rel=1e-8)


def test_modular_inf_power_two_closed_form():
    # tau + A / tau with A the average of f^2 has its infimum 2 sqrt(A) at sqrt(A)
    for q in _random_queries(20, 29):
        q = LuxemburgQuery(q.f, q.Q, Power(2.0))
        avg = float(np.mean(q.f.values[q.Q.cell_slice] ** 2))
        assert modular_inf(q) == pytest.approx(2.0 * math.sqrt(avg), rel=1e-10)


def test_modular_inf_evaluation_count(monkeypatch):
    # one golden-section search over the whole bracket: the norm's bisection and
    # about 46 objective evaluations, where a lattice scan needed about 1,400
    calls = [0]
    for cls in {type(phi) for phi in CRITERION_1_FAMILIES}:
        original = cls._eval_array

        def counted(self, t, original=original):
            calls[0] += 1
            return original(self, t)

        monkeypatch.setattr(cls, "_eval_array", counted)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for q in _random_queries(20, 31):
            calls[0] = 0
            modular_inf(q)
            assert 0 < calls[0] <= 150, (q.phi, calls[0])


def test_modular_inf_of_a_linear_phi_is_the_norm():
    # tau + c avg|f| decreases to the norm c avg|f| as tau -> 0
    for phi in (Identity(), Power(1.0, 2.5), LLogL(1.0, 0.0)):
        for q in _random_queries(10, 37):
            q = LuxemburgQuery(q.f, q.Q, phi)
            assert modular_inf(q) == luxemburg_norm(q)


@pytest.mark.parametrize("r", [1.00001, 1.0001, 1.001, 1.5, 3.0])
def test_modular_inf_power_closed_form(r):
    # tau + tau^(1-r) A, A the average of |f|^r, is least at
    # tau* = ((r - 1) A)^(1/r), which lies below 1e-3 times the norm for r near 1
    for q in _random_queries(6, 41):
        q = LuxemburgQuery(q.f, q.Q, Power(r))
        avg = float(np.mean(np.abs(q.f.values[q.Q.cell_slice]) ** r))
        tau = ((r - 1.0) * avg) ** (1.0 / r)
        assert modular_inf(q) == pytest.approx(tau + tau ** (1.0 - r) * avg, rel=1e-9)


def test_modular_inf_searches_criterion_1_families_once(monkeypatch):
    # the lower end of the bracket is lowered only when a search ends on it;
    # the criterion-1 families never do, so their infima are one search each
    searches = []
    search = young._golden_section

    def counted(objective, a, b):
        out = search(objective, a, b)
        searches.append(out[0] > a)
        return out

    monkeypatch.setattr(young, "_golden_section", counted)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for q in _random_queries(100, 43):
            searches.clear()
            if modular_inf(q) > 0.0:
                assert searches == [True], q.phi



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


@pytest.mark.parametrize("m", [1, 2, 3])
def test_duality_holds_over_twenty_one_decades(m):
    # t <= PhiInv(t) BarPhiInv(t) <= 2t for Phi_m(t) = t (1 + log+ t)^m, 1e-9 <= t <= 1e12
    phi = LLogL(1.0, float(m))
    for t in np.logspace(-9.0, 12.0, 43):
        ratio = duality_gap(phi, float(t)).ratio
        assert 1.0 - 1e-12 <= ratio <= 2.0 + 1e-12, (m, t, ratio)


def test_duality_gap_keeps_a_small_peak():
    # a conjugate holds only its base: building one and checking the duality
    # identity at t = 10 allocates no table
    for phi in (LLogL(1.0, 1.0), ExpL(1.0), ExpAlphaL(0.5, 2.0)):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            LegendreConjugate(phi).inverse(10.0)
            assert duality_gap(phi, 10.0).passed
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (phi, peak)


def test_duality_gap_needs_exact_conjugate():
    # with the equivalent exponential conjugate the lower bound fails at small t;
    # this pins the design choice of routing duality through the exact transform
    phi = LLogL(1.0, 1.0)
    equiv = ExpL(1.0)
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

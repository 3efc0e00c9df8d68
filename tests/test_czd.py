"""Stopping-time decomposition: hand walks, invariants, fault injection."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedweak._errors import DomainError, GridMismatchError, HeightError
from mixedweak.czd import cz_decompose, validate_decomposition
from mixedweak.grid import DyadicInterval, SampledFunction, make_grid, sample
from mixedweak.weights import power_weight
from oracles import check, custom_weight, parent

SEED = 20260823


def chi01(x):
    return np.where((x >= 0.0) & (x <= 1.0), 1.0, 0.0)


def unit_weight(g):
    return custom_weight(g, np.ones(g.N))


def test_constant_below_height_selects_nothing():
    g = make_grid(4.0, 6)
    r = cz_decompose(sample(lambda x: 0.5, g), 1.0, unit_weight(g))
    assert r.cubes == [] and not np.any(r.bad.values) and r.averages == []
    assert np.array_equal(r.g.values, np.full(g.N, 0.5))
    assert r.doubling_bound == 1.0
    rep = validate_decomposition(r, sample(lambda x: 0.5, g), unit_weight(g))
    assert rep.passed


def test_indicator_hand_walk():
    # [-4,4] avg 1/8, [0,4] avg 1/4 (not above), [0,2] avg 1/2: selected
    for J in (5, 8):
        g = make_grid(4.0, J)
        f = sample(chi01, g)
        r = cz_decompose(f, 0.25, unit_weight(g))
        assert [(q.j, q.k) for q in r.cubes] == [(2, 2)]
        assert (r.cubes[0].a, r.cubes[0].b) == (0.0, 2.0)
        assert r.averages == [0.5]
        assert r.doubling_bound == 2.0
        sl = r.cubes[0].cell_slice
        assert np.all(r.g.values[sl] == 0.5)
        outside = np.ones(g.N, dtype=bool)
        outside[sl] = False
        assert np.array_equal(r.g.values[outside], f.values[outside])
        np.testing.assert_array_equal(r.bad.values[sl], f.values[sl] - 0.5)
        rep = validate_decomposition(r, f, unit_weight(g))
        assert rep.passed
        assert check(rep, "reconstruction").slack == 0.0
        assert check(rep, "cancellation").slack == 0.0


def test_indicator_weighted_selects_coarser_cube():
    # against v = |x|^(-1/2) the mass near 0 pushes [0,4] above the height
    for J in (8, 10):
        g = make_grid(4.0, J)
        f = sample(chi01, g)
        v = power_weight(g, -0.5)
        r = cz_decompose(f, 0.25, v)
        assert [(q.j, q.k) for q in r.cubes] == [(1, 1)]
        assert 0.25 < r.averages[0] < 0.5
        assert r.doubling_bound == pytest.approx(2.0, rel=1e-12)
        assert validate_decomposition(r, f, v).passed


def test_doubling_bound_refinement_stable_for_a_infinity_weight():
    vals = {}
    for J in (8, 10):
        g = make_grid(4.0, J)
        r = cz_decompose(sample(chi01, g), 0.25, power_weight(g, -0.5))
        vals[J] = r.doubling_bound
    assert vals[8] == pytest.approx(vals[10], rel=0.2)


def test_preconditions():
    g = make_grid(4.0, 6)
    f = sample(chi01, g)
    with pytest.raises(DomainError):
        cz_decompose(f, 0.0, unit_weight(g))
    with pytest.raises(DomainError, match="f >= 0"):
        cz_decompose(sample(lambda x: x, g), 1.0, unit_weight(g))
    with pytest.raises(GridMismatchError):
        cz_decompose(f, 1.0, unit_weight(make_grid(4.0, 7)))
    with pytest.raises(HeightError) as exc:
        cz_decompose(f, 0.01, unit_weight(g))
    assert exc.value.root_average == 0.125


def test_unit_weight_matches_unweighted_reference():
    def reference_cubes(fvals, t, J):
        out = []

        def walk(j, k):
            n = len(fvals) >> j
            if np.mean(fvals[k * n : (k + 1) * n]) > t:
                out.append((j, k))
                return
            if j < J:
                walk(j + 1, 2 * k)
                walk(j + 1, 2 * k + 1)

        walk(1, 0)
        walk(1, 1)
        return sorted(out)

    rng = np.random.default_rng(SEED)
    g = make_grid(4.0, 8)
    for _ in range(25):
        fvals = np.abs(rng.standard_normal(g.N)) * rng.uniform(0.2, 3.0)
        t = float(np.mean(fvals)) * rng.uniform(1.0001, 4.0)
        r = cz_decompose(SampledFunction(g, fvals), t, unit_weight(g))
        assert sorted((q.j, q.k) for q in r.cubes) == reference_cubes(fvals, t, g.J)


def test_random_decompositions_validate_cleanly():
    rng = np.random.default_rng(SEED)
    g = make_grid(4.0, 9)
    v = power_weight(g, -0.25)
    for _ in range(15):
        fvals = np.abs(rng.standard_normal(g.N))
        f = SampledFunction(g, fvals)
        t = float(np.sum(fvals * v.values) / np.sum(v.values)) * rng.uniform(1.5, 6.0)
        r = cz_decompose(f, t, v)
        rep = validate_decomposition(r, f, v)
        assert rep.passed, [(c.name, c.slack) for c in rep.checks if not c.passed]
        assert r.cubes == sorted(r.cubes, key=lambda q: (q.j, q.k))
        # selected heights sit in the band, single cells included
        for avg in r.averages:
            assert t < avg <= r.doubling_bound * t * (1.0 + 1e-12)


def weighted_walk(fv, vv, t, J):
    """Test-only stopping-time walk: select a node when its v-average exceeds t."""
    out = []

    def walk(j, k):
        n = len(fv) >> j
        sl = slice(k * n, (k + 1) * n)
        avg = float(np.sum(fv[sl]) / np.sum(vv[sl]))
        if avg > t:
            out.append((j, k, avg))
        elif j < J:
            walk(j + 1, 2 * k)
            walk(j + 1, 2 * k + 1)

    walk(1, 0)
    walk(1, 1)
    return sorted(out)


def ancestor_walk_maximality(r, fv, vv):
    """Test-only oracle: (passed, slack) of maximality, walking up from each cube on its own."""
    ok, worst = True, 0.0
    for q in r.cubes:
        p = q
        while p.j > 0:
            p = parent(p)
            avg = float(np.sum(fv[p.cell_slice]) / np.sum(vv[p.cell_slice]))
            worst = max(worst, avg / r.t)
            if avg > r.t * (1.0 + 1e-12):
                ok = False
    return ok, worst


@settings(max_examples=60, deadline=None)
@given(
    J=st.integers(min_value=4, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.floats(min_value=-3.0, max_value=3.0),
    shape=st.sampled_from(["plain", "spike", "half_zero"]),
    weight=st.sampled_from(["ones", "power", "lognormal"]),
    beta=st.floats(min_value=-0.9, max_value=0.9),
    above=st.floats(min_value=0.0, max_value=1.5),
)
def test_descent_matches_weighted_walk(J, seed, scale, shape, weight, beta, above):
    rng = np.random.default_rng(seed)
    g = make_grid(4.0, J)
    fvals = np.abs(rng.standard_normal(g.N)) * 10.0**scale
    if shape == "spike":
        fvals[rng.integers(g.N)] = 100.0 * np.max(fvals)
    elif shape == "half_zero":
        fvals[rng.permutation(g.N)[: g.N // 2]] = 0.0
    if weight == "ones":
        v = unit_weight(g)
    elif weight == "power":
        v = power_weight(g, beta)
    else:
        v = custom_weight(g, np.exp(rng.standard_normal(g.N)))
    f = SampledFunction(g, fvals)
    fv = fvals * v.values
    t = float(np.sum(fv) / np.sum(v.values)) * 10.0**above
    try:
        r = cz_decompose(f, t, v)
    except HeightError:
        return
    assert [(q.j, q.k, avg) for q, avg in zip(r.cubes, r.averages)] == weighted_walk(
        fv, v.values, t, J
    )
    rep = validate_decomposition(r, f, v)
    assert rep.passed, [(c.name, c.slack) for c in rep.checks if not c.passed]
    for name in ("height_band", "reconstruction", "cancellation"):
        assert check(rep, name).slack <= 1e-12
    maximality = check(rep, "maximality")
    assert (maximality.passed, maximality.slack) == ancestor_walk_maximality(r, fv, v.values)


def test_memory_is_linear_in_n():
    # one good and one bad array, never a full-grid array per cube
    g = make_grid(4.0, 12)
    f = SampledFunction(g, np.abs(np.random.default_rng(0).standard_normal(g.N)))
    v = power_weight(g, -0.25)
    t = 1.5 * float(np.sum(f.values * v.values) / np.sum(v.values))
    tracemalloc.start()
    try:
        r = cz_decompose(f, t, v)
        validate_decomposition(r, f, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(r.cubes) == 726
    assert peak < 64 * 8 * g.N


def test_cubes_can_be_single_cells():
    g = make_grid(4.0, 6)
    fvals = np.zeros(g.N)
    fvals[17] = 2.5  # above the height alone, below it after any averaging
    f = SampledFunction(g, fvals)
    r = cz_decompose(f, 1.5, unit_weight(g))
    assert [(q.j, q.k) for q in r.cubes] == [(6, 17)]
    assert r.cubes[0].n_cells == 1
    assert validate_decomposition(r, f, unit_weight(g)).passed


def test_fault_injection_cancellation():
    g = make_grid(4.0, 6)
    f = sample(chi01, g)
    r = cz_decompose(f, 0.25, unit_weight(g))
    broken = dataclasses.replace(
        r, bad=SampledFunction(g, r.bad.values + np.where(np.abs(g.centers - 1.0) < 1.0, 0.1, 0.0))
    )
    rep = validate_decomposition(broken, f, unit_weight(g))
    assert not rep.passed
    assert not check(rep, "cancellation").passed
    assert check(rep, "disjoint").passed


def test_fault_injection_support():
    g = make_grid(4.0, 6)
    f = sample(chi01, g)
    r = cz_decompose(f, 0.25, unit_weight(g))
    assert r.cubes[0].cell_start > 0  # cell 0 lies off Omega
    stray = r.bad.values.copy()
    stray[0] += 0.1
    broken = dataclasses.replace(r, bad=SampledFunction(g, stray))
    rep = validate_decomposition(broken, f, unit_weight(g))
    assert not check(rep, "support").passed
    assert check(rep, "support").slack == 1.0


def test_fault_injection_height_band():
    g = make_grid(4.0, 6)
    f = sample(chi01, g)
    r = cz_decompose(f, 0.25, unit_weight(g))
    broken = dataclasses.replace(r, averages=[r.averages[0] + 1.0])
    rep = validate_decomposition(broken, f, unit_weight(g))
    assert not check(rep, "height_band").passed
    assert check(rep, "reconstruction").passed


def test_fault_injection_overlapping_cubes():
    g = make_grid(4.0, 6)
    f = sample(chi01, g)
    r = cz_decompose(f, 0.25, unit_weight(g))
    overlapping = [r.cubes[0], DyadicInterval(g, 3, 4)]  # [0,1) sits inside [0,2)
    broken = dataclasses.replace(
        r, cubes=overlapping, averages=r.averages + [1.0]
    )
    rep = validate_decomposition(broken, f, unit_weight(g))
    assert not check(rep, "disjoint").passed


def test_fault_injection_maximality():
    g = make_grid(4.0, 6)
    f = sample(chi01, g)
    r = cz_decompose(f, 0.25, unit_weight(g))
    broken = dataclasses.replace(r, t=r.t / 100.0)
    rep = validate_decomposition(broken, f, unit_weight(g))
    assert not check(rep, "maximality").passed


def test_fault_injection_off_omega():
    g = make_grid(4.0, 6)
    f = sample(chi01, g)
    r = cz_decompose(f, 0.25, unit_weight(g))
    # drop the only cube but keep g/bad: the cube's cells now violate f <= t
    broken = dataclasses.replace(r, cubes=[], averages=[])
    rep = validate_decomposition(broken, f, unit_weight(g))
    assert not check(rep, "off_omega").passed
    assert check(rep, "off_omega").slack > 0


def test_fault_injection_off_omega_next_to_a_cube():
    # a cell off Omega above t fails the check even where it touches a cube
    g = make_grid(4.0, 6)
    f = sample(chi01, g)
    r = cz_decompose(f, 0.25, unit_weight(g))
    i = r.cubes[0].cell_start - 1
    raised = f.values.copy()
    raised[i] = 5.0 * r.t
    rep = validate_decomposition(r, SampledFunction(g, raised), unit_weight(g))
    assert not check(rep, "off_omega").passed
    assert check(rep, "off_omega").slack == 1.0


def test_chebyshev_measure_bound():
    rng = np.random.default_rng(SEED)
    g = make_grid(4.0, 8)
    v = power_weight(g, -0.5)
    fvals = np.abs(rng.standard_normal(g.N))
    f = SampledFunction(g, fvals)
    t = float(np.sum(fvals * v.values) / np.sum(v.values)) * 2.0
    r = cz_decompose(f, t, v)
    assert len(r.cubes) > 0
    mu_omega = sum(g.h * float(np.sum(v.values[q.cell_slice])) for q in r.cubes)
    assert mu_omega <= g.h * float(np.sum(fvals * v.values)) / t * (1.0 + 1e-12)

"""End-to-end acceptance gate: nine criteria, one test and one verdict line each.

Each test prints ``criterion N (<name>): PASS`` with its key measurements once
every assertion has cleared, so a ``pytest -v`` run shows one line per
criterion and ``-s`` adds the numbers.  Frozen reference values were measured
on this implementation and pin regressions at rel 1e-3; the inequality and
stability bounds are the actual gate.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from mixedweak.czd import cz_decompose, validate_decomposition
from mixedweak.grid import DyadicInterval, SampledFunction, dyadic_intervals, make_grid, sample
from mixedweak.maximal import hl_maximal
from mixedweak.singular import commutator, hilbert
from mixedweak.verify import (
    ExperimentConfig,
    run_theorem1,
    run_theorem2,
    run_theorem3,
)
from mixedweak.weights import (
    bmo_norm,
    estimate_Ap,
    fundamental_ratio,
    power_weight,
    refined,
)
from mixedweak.young import (
    ExpAlphaL,
    ExpL,
    LLogL,
    LuxemburgQuery,
    Power,
    duality_gap,
    luxemburg_norm,
    modular_inf,
)
from oracles import (
    HILBERT_KERNEL,
    bmo_w_norm,
    brute_force_maximal,
    check,
    compare_llogl_iterated,
    custom_weight,
    dilated_average_gap,
    iterated_maximal,
    jn_tail,
    kernel_smoothness_check,
    solve_scale_a,
    weighted_expL_vs_plain,
)


def chi11(x):
    return np.where(np.abs(x) <= 1.0, 1.0, 0.0)


def two_bumps(x):
    return np.exp(-8.0 * (x - 1.5) ** 2) + np.exp(-8.0 * (x + 2.0) ** 2)


F_LIST = ["indicator a=0 b=1", "bumps", "cusp gamma=0.25 a=0 b=1"]
V_LIST = ["const", "power beta=-0.25"]


def test_criterion_1_orlicz_kernel():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    g = make_grid(8.0, 8)
    families = [Power(2.0), LLogL(1.0, 1.0), ExpL(1.0), ExpAlphaL(0.5, 2.0)]
    intervals = list(dyadic_intervals(g, j_max=5, shifts=(0.0,)))
    done = 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while done < 1000:
            phi = families[rng.integers(len(families))]
            Q = intervals[rng.integers(len(intervals))]
            amp = 10.0 ** rng.uniform(-3, 3)
            f = SampledFunction(g, amp * rng.standard_normal(g.N))
            q = LuxemburgQuery(f, Q, phi)
            lam = luxemburg_norm(q)
            if lam == 0.0:
                continue
            modular = float(np.mean(phi(np.abs(f.values[Q.cell_slice]) / lam)))
            assert 1.0 - 1e-6 <= modular <= 1.0
            ratio = modular_inf(q) / lam
            assert 1.0 <= ratio <= 2.0
            done += 1
        gaps = [
            duality_gap(phi, 10.0**k) for phi in families for k in range(-3, 3)
        ]
    assert all(gap.passed for gap in gaps)
    assert all(0.95 <= gap.ratio <= 2.05 for gap in gaps)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"criterion 1 (orlicz kernel): PASS - 1000 queries saturated, "
        f"duality in [{min(g.ratio for g in gaps):.3f}, {max(g.ratio for g in gaps):.3f}], "
        f"{elapsed:.1f}s"
    )


def test_criterion_2_maximal_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    g = make_grid(8.0, 8)
    for _ in range(20):
        f = SampledFunction(g, rng.standard_normal(g.N))
        scanned = hl_maximal(f).values
        brute = brute_force_maximal(f).values
        assert np.all(scanned <= brute * (1.0 + 1e-12))
        assert np.all(brute <= 3.0 * scanned)
    pinned = {1: 0.74737, 2: 0.57913}
    for m, fn in ((1, chi11), (2, two_bumps)):
        pair = {J: compare_llogl_iterated(sample(fn, make_grid(8.0, J)), m) for J in (10, 12)}
        for side in (0, 1):
            assert 0.0 < pair[10][side] <= 1.0 + 1e-9
            assert pair[12][side] == pytest.approx(pair[10][side], rel=0.2)
        assert pair[12][0] == pytest.approx(pinned[m], rel=1e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 2 (maximal oracle): PASS - sandwich on 20 fns, drift ~0, {elapsed:.1f}s")


def test_criterion_3_cz_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    g = make_grid(8.0, 8)
    vs = [
        custom_weight(g, np.ones(g.N)),
        power_weight(g, -0.5),
        power_weight(g, -0.25),
    ]

    def reference_cubes(fv, t):
        found = []

        def descend(j, k):
            cells = fv.size >> j
            seg = fv[k * cells : (k + 1) * cells]
            if float(np.sum(seg)) / cells > t:
                found.append((j, k))
            elif j < g.J:
                descend(j + 1, 2 * k)
                descend(j + 1, 2 * k + 1)

        descend(1, 0)
        descend(1, 1)
        return sorted(found)

    nonempty = 0
    worst_slack = 0.0
    for trial in range(50):
        v = vs[trial % 3]
        fvals = np.abs(rng.standard_normal(g.N))
        fvals[rng.integers(g.N)] += 10.0 ** rng.uniform(0.5, 1.5)
        f = SampledFunction(g, fvals)
        root = float(np.sum(fvals * v.values) / np.sum(v.values))
        t = root * 10.0 ** rng.uniform(0.05, 1.0)
        result = cz_decompose(f, t, v)
        report = validate_decomposition(result, f, v)
        assert report.passed
        worst_slack = max(worst_slack, check(report, "cancellation").slack)
        nonempty += bool(result.cubes)
        if trial % 3 == 0:
            assert [(q.j, q.k) for q in result.cubes] == reference_cubes(fvals, t)
    assert worst_slack < 1e-12
    assert nonempty >= 25
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"criterion 3 (cz invariants): PASS - 50 triples, {nonempty} nonempty, "
        f"slack {worst_slack:.1e}, {elapsed:.1f}s"
    )


def test_criterion_4_hilbert_accuracy():
    start = time.perf_counter()
    g = make_grid(8.0, 12)
    x = g.centers
    hf = hilbert(sample(chi11, g)).values
    form = (1.0 / math.pi) * np.log(np.abs((x + 1.0) / (x - 1.0)))
    for mask in (
        (np.abs(x) > 1.2) & (np.abs(x) < 0.95 * g.L),
        (np.abs(x) > 0.2) & (np.abs(x) < 0.9),
    ):
        rel = np.max(np.abs(hf[mask] - form[mask]) / np.abs(form[mask]))
        assert rel < 0.02
    # even input: odd output, so the midpoint value interpolates to zero
    np.testing.assert_allclose(hf[::-1], -hf, atol=1e-12)
    assert abs(hf[g.N // 2 - 1] + hf[g.N // 2]) / 2.0 <= 1e-12
    for fn in (chi11, lambda t: np.exp(-t * t), lambda t: np.sin(3.0 * t) * np.exp(-0.2 * t * t)):
        f = sample(fn, g)
        ratio = math.sqrt(float(np.sum(hilbert(f).values ** 2) / np.sum(f.values**2)))
        assert 0.8 < ratio <= 1.05
    b = sample(lambda t: np.log(np.abs(t)), g)
    f = sample(chi11, g)
    direct = commutator(b, f, 1).values
    two_route = b.values * hilbert(f).values - hilbert(
        SampledFunction(g, b.values * f.values)
    ).values
    assert np.max(np.abs(direct - two_route)) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 4 (hilbert accuracy): PASS - closed form, parity, L2, routes, {elapsed:.1f}s")


def test_criterion_5_theorem1_desk_scale():
    start = time.perf_counter()
    pinned = {
        ("const", 0): 0.94103,
        ("const", 1): 0.34404,
        ("const", 2): 0.79301,
        ("power beta=-0.25", 0): 1.29476,
        ("power beta=-0.25", 1): 0.28188,
        ("power beta=-0.25", 2): 1.15729,
    }
    for v in V_LIST:
        for i, f in enumerate(F_LIST):
            report = run_theorem1(ExperimentConfig(J=12, f=f, u="power beta=-0.5", v=v))
            assert math.isfinite(report.sup_ratio)
            assert report.j_pair == (10, 12)
            assert report.drift <= 0.2
            lhs = [row.lhs for row in report.rows]
            rhs = [row.rhs for row in report.rows]
            assert all(a >= b for a, b in zip(lhs, lhs[1:]))
            assert all(a >= b for a, b in zip(rhs, rhs[1:]))
            assert report.sup_ratio == pytest.approx(pinned[(v, i)], rel=1e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"criterion 5 (theorem 1 desk scale): PASS - 6 combos stable, monotone, {elapsed:.1f}s")


def test_criterion_6_theorem2_higher_order():
    start = time.perf_counter()
    pinned = {
        (2, "const"): [2.84894, 0.11837, 2.59712],
        (2, "power beta=-0.25"): [5.19208, 0.15640, 4.57030],
        (3, "const"): [12.87889, 0.05526, 14.89870],
        (3, "power beta=-0.25"): [23.69679, 0.08396, 30.09398],
    }
    # the triple-log m = 3 convergence needs one more level than m = 2
    for m, J in ((2, 12), (3, 14)):
        for v in V_LIST:
            for i, f in enumerate(F_LIST):
                report = run_theorem2(ExperimentConfig(J=J, f=f, u="power beta=-0.5", v=v, m=m))
                assert math.isfinite(report.sup_ratio)
                assert report.drift <= 0.2
                assert report.sup_ratio == pytest.approx(pinned[(m, v)][i], rel=1e-3)
    cfg = ExperimentConfig(J=10, u="power beta=-0.5", v="power beta=-0.25")
    assert run_theorem2(replace(cfg, m=1)).rows == run_theorem1(cfg).rows
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(
        f"criterion 6 (theorem 2 m=2,3): PASS - 12 combos stable, m=1 rows identical, "
        f"{elapsed:.1f}s"
    )


def test_criterion_7_theorem3_sawyer_orlicz():
    start = time.perf_counter()
    pinned = {
        ("chibump", (1.0, 0.0, -2.0)): 1.194827,
        ("chibump", (1.0, 1.0, -2.0)): 0.588135,
        ("chibump", (2.0, 1.0, -1.5)): 0.382743,
        ("power beta=-0.5", (1.0, 0.0, -2.0)): 0.980120,
        ("power beta=-0.5", (1.0, 1.0, -2.0)): 0.060009,
        ("power beta=-0.5", (2.0, 1.0, -1.5)): 0.089455,
    }
    for u in ("chibump", "power beta=-0.5"):
        for r, d, beta in ((1.0, 0.0, -2.0), (1.0, 1.0, -2.0), (2.0, 1.0, -1.5)):
            report = run_theorem3(ExperimentConfig(J=14, u=u, r=r, delta=d, beta=beta))
            assert math.isfinite(report.sup_ratio)
            assert report.drift <= 0.2
            alts = np.array([row.alt for row in report.rows])
            assert np.all(np.isfinite(alts))
            assert math.isfinite(report.extras["weak_orlicz_sup"])
            assert report.sup_ratio == pytest.approx(pinned[(u, (r, d, beta))], rel=1e-3)
            if (r, d) == (1.0, 0.0):
                # identity Young function: the derived weight is v itself
                assert report.extras["weak_orlicz_sup"] == pytest.approx(
                    report.sup_ratio, rel=1e-12
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"criterion 7 (theorem 3): PASS - 6 combos stable, weak-Orlicz finite, {elapsed:.1f}s")


def test_criterion_8_negative_control():
    start = time.perf_counter()
    bad = ExperimentConfig(
        J=12, f="cusp gamma=0.25 a=0 b=1", u="power beta=0.5", v="power beta=-0.9", force=True
    )
    report = run_theorem1(bad)
    assert not report.preflight["A1_u"].stable
    coarse, fine = report.refinement_pair
    growth = fine / coarse - 1.0
    assert growth > 0.5
    good = ExperimentConfig(
        J=12, f="cusp gamma=0.25 a=0 b=1", u="power beta=-0.5", v="power beta=-0.9"
    )
    control = run_theorem1(good)
    c, f = control.refinement_pair
    assert abs(f / c - 1.0) < 0.2
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    print(
        f"criterion 8 (negative control): PASS - bad u grows {growth:+.0%}, "
        f"good u {f / c - 1.0:+.0%}, {elapsed:.1f}s"
    )


def test_criterion_9_lemma_suite():
    start = time.perf_counter()
    # two-sided comparison of plain vs weighted oscillation norms
    g9 = make_grid(8.0, 9)
    b9 = sample(lambda t: np.log(np.abs(t)), g9)
    w9 = power_weight(g9, -0.5)
    plain = bmo_norm(b9)
    weighted = bmo_w_norm(b9, w9)
    assert plain <= estimate_Ap(w9, 1.0) * weighted * (1.0 + 1e-12)
    assert weighted <= 5.0 * plain
    # weighted exponential-Orlicz norms controlled by the plain ones
    w4 = power_weight(g9, -0.25)
    for Q in dyadic_intervals(g9, j_max=4, shifts=(0.0,)):
        wt, pl = weighted_expL_vs_plain(b9, Q, w4)
        assert wt <= 2.0 * pl + 1e-12
        assert pl <= 3.0 * plain + 1e-12
    # dilated-average gaps grow at most linearly in the number of doublings
    g12 = make_grid(8.0, 12)
    b12 = sample(lambda t: np.log(np.abs(t)), g12)
    Q12 = DyadicInterval(g12, 4, 9)
    nb = bmo_norm(b12)
    assert max(dilated_average_gap(b12, Q12, k) / (k * nb) for k in range(1, 6)) <= 1.0
    # two-weight fundamental ratio is finite and refinement stable
    g10 = make_grid(8.0, 10)
    est = refined(*(fundamental_ratio(power_weight(g, -0.5), power_weight(g, -0.25))
                    for g in (g10.coarsened(), g10)))
    assert math.isfinite(est.value) and est.stable
    # exponential decay of oscillation tails
    g19 = make_grid(8.0, 19)
    pts = jn_tail(sample(lambda t: np.log(np.abs(t)), g19), DyadicInterval(g19, 4, 8),
                  range(1, 9))
    lams = np.array([p[0] for p in pts])
    logf = np.log([p[1] for p in pts])
    slope = np.polyfit(lams, logf, 1)[0]
    r2 = float(np.corrcoef(lams, logf)[0, 1] ** 2)
    assert slope < 0.0 and r2 > 0.95
    # scale root against closed forms: a * mass(|y| <= a^gamma) = lam with
    # F = 1 on [-2, 2] solves 2 a**(gamma+1) = lam below the cap, 4a at it
    g22 = make_grid(2.0, 22)
    ones = SampledFunction(g22, np.ones(g22.N))
    assert solve_scale_a(ones, 1.0, 1.0) == pytest.approx(math.sqrt(0.5), rel=1e-6)
    assert solve_scale_a(ones, 2.0, 1.0) == pytest.approx(0.5 ** (1.0 / 3.0), rel=1e-6)
    assert solve_scale_a(ones, 1.0, 8.0) == pytest.approx(2.0, rel=1e-9)
    # kernel smoothness constant of the truncated Hilbert kernel
    res = kernel_smoothness_check(HILBERT_KERNEL)
    assert res.constant <= 2.0 / math.pi + 1e-9
    # Coifman-type control of the commutator by the iterated maximal function
    def coifman_ratio(J):
        gg = make_grid(8.0, J)
        w = power_weight(gg, -0.25)
        bb = sample(lambda t: np.log(np.abs(t)), gg)
        bn = SampledFunction(gg, bb.values / bmo_norm(bb))
        ff = sample(lambda t: np.exp(-8.0 * (t - 1.5) ** 2), gg)
        num = float(np.sum(np.abs(commutator(bn, ff, 1).values) ** 1.5 * w.values))
        den = float(np.sum(iterated_maximal(ff, 2).values ** 1.5 * w.values))
        return num / den

    c10, c12 = coifman_ratio(10), coifman_ratio(12)
    assert 0.0 < c10 < 10.0 and math.isfinite(c12)
    assert c12 == pytest.approx(c10, rel=0.2)
    assert c10 == pytest.approx(0.205707, rel=1e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    print(
        f"criterion 9 (lemma suite): PASS - oscillation, tails, root, kernel, "
        f"coifman, {elapsed:.1f}s"
    )

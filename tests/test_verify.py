"""Tests for the verification harness.

Closed-form rows are checked exactly where the quadrature is exact (indicator
data, unit weights); measured sup-ratios at small grids are frozen with
loose bands since only refinement stability, not the value, is meaningful.
"""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedweak._errors import (
    ConfigurationError,
    DomainError,
    GridMismatchError,
    HypothesisError,
    PreflightError,
    RangeError,
)
from mixedweak.cli import build_parser, main, parse_config
from mixedweak.grid import (
    DyadicScan,
    SampledFunction,
    make_grid,
    modular_mass,
    sample,
    superlevel_mass,
)
from mixedweak.maximal import orlicz_maximal
from mixedweak.verify import (
    STABILITY_BAR,
    ExperimentConfig,
    build_theorem3_weight,
    build_weight,
    modular_rhs,
    parse_family,
    run_base_sawyer,
    run_theorem1,
    run_theorem2,
    run_theorem3,
    sample_b,
    sample_f,
    theorem3_set_partition,
    weak_lhs,
)
from mixedweak.weights import Weight, estimate_Ap
from mixedweak.young import Identity, LLogL, Power
from oracles import solve_scale_a


def unit_weight(grid):
    return Weight(sample(lambda x: 1.0 + 0.0 * x, grid))


# --- configuration and family grammar --------------------------------------


def test_config_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(steps=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(margin=0.5)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(t_min=-1.0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(t_min=2.0, t_max=1.0)


def test_config_scan_carries_scan_fields():
    cfg = ExperimentConfig(j_max=3, shifts=(0.0,))
    assert cfg.scan() == DyadicScan(j_max=3, shifts=(0.0,))


def test_parse_family_splits_name_and_params():
    assert parse_family("cusp gamma=0.5 a=0 b=1") == (
        "cusp",
        {"gamma": "0.5", "a": "0", "b": "1"},
    )
    with pytest.raises(ConfigurationError):
        parse_family("")
    with pytest.raises(ConfigurationError):
        parse_family("cusp gamma")


def test_sample_f_indicator_is_exact():
    grid = make_grid(4.0, 8)
    f = sample_f(grid, "indicator a=0 b=1 height=2.5")
    inside = (grid.centers >= 0.0) & (grid.centers <= 1.0)
    assert np.array_equal(f.values[inside], np.full(inside.sum(), 2.5))
    assert np.array_equal(f.values[~inside], np.zeros((~inside).sum()))


def test_sample_f_families_and_guards():
    grid = make_grid(4.0, 6)
    assert np.all(sample_f(grid, "bumps").values > 0.0)
    assert np.all(sample_f(grid, "zero").values == 0.0)
    cusp = sample_f(grid, "cusp gamma=0.25 a=0 b=1")
    assert np.all(cusp.values >= 0.0) and np.max(cusp.values) > 1.0
    with pytest.raises(ConfigurationError):
        sample_f(grid, "cusp gamma=1.2")
    with pytest.raises(ConfigurationError):
        sample_f(grid, "mystery")


def test_sample_f_custom_round_trips_through_file(tmp_path):
    grid = make_grid(2.0, 5)
    rng = np.random.default_rng(7)
    vals = rng.uniform(0.0, 3.0, grid.N)
    path = tmp_path / "f.txt"
    np.savetxt(path, vals)
    assert np.array_equal(sample_f(grid, f"custom path={path}").values, vals)
    short = tmp_path / "short.txt"
    np.savetxt(short, vals[:-1])
    with pytest.raises(ConfigurationError, match="short.txt: 31 samples do not refine"):
        sample_f(grid, f"custom path={short}")


def test_sample_b_log_and_shift_invariant_sawtooth():
    grid = make_grid(4.0, 8)
    assert np.array_equal(
        sample_b(grid, "log").values, np.log(np.abs(grid.centers))
    )
    saw = sample_b(grid, "sawtoothlog").values
    assert np.all(np.isfinite(saw))
    # h = 1/32 divides 1, so shifting by one lattice period lands on other
    # centers and the distance to the nearest integer is reproduced exactly
    step = int(round(1.0 / grid.h))
    assert np.array_equal(saw[step:], saw[:-step])


def test_build_weight_families():
    grid = make_grid(4.0, 6)
    w = build_weight(grid, "power beta=-0.5")
    assert np.array_equal(w.values, np.abs(grid.centers) ** -0.5)
    assert np.all(build_weight(grid, "const value=2.5").values == 2.5)
    bump = build_weight(grid, "chibump a=-1 b=1 floor=0.5")
    assert set(np.unique(bump.values)) == {0.5, 1.5}
    with pytest.raises(ConfigurationError):
        build_weight(grid, "chibump floor=0")
    with pytest.raises(ConfigurationError):
        build_weight(grid, "gaussian")


@pytest.mark.parametrize("a,b", [("1", "0"), ("2", "1"), ("0.5", "0.5")])
def test_interval_families_refuse_a_reversed_or_empty_interval(tmp_path, capsys, a, b):
    # with a >= b no cell center is inside, so a run would measure nothing
    # (indicator f: sup_ratio 0, "stable") or only the floor (chibump u: A1_u 1)
    grid = make_grid(4.0, 6)
    for family, build in (("indicator", sample_f), ("cusp", sample_f), ("chibump", build_weight)):
        with pytest.raises(ConfigurationError, match=f"family '{family}' needs a < b, "
                                                     f"got a={float(a)!r} b={float(b)!r}"):
            build(grid, f"{family} a={a} b={b}")
    for subcommand, key, family in (("verify-thm1", "f", "indicator"),
                                    ("estimate", "weight.u", "chibump")):
        path = tmp_path / "run.cfg"
        path.write_text(f"grid.J = 8\n{key}.family = {family} a={a} b={b}\n")
        assert main([subcommand, "--config", str(path), "--out", str(tmp_path)]) == 2
        assert f"family '{family}' needs a < b" in capsys.readouterr().err


# --- the two sides ---------------------------------------------------------


def test_weak_lhs_trivial_and_unit_function():
    grid = make_grid(4.0, 8)
    one = unit_weight(grid)
    f = sample_f(grid, "indicator a=0 b=1")
    assert weak_lhs(f, one, one, 2.0) == 0.0
    # unit function: every interior cell is in the level set below 1
    unit = sample(lambda x: 1.0 + 0.0 * x, grid)
    count = int(np.sum(np.abs(grid.centers) <= 0.95 * grid.L))
    assert weak_lhs(unit, one, one, 0.5) == grid.h * count == 7.625
    assert weak_lhs(unit, one, one, 0.5, margin=0.2) <= 7.625
    with pytest.raises(DomainError):
        weak_lhs(f, one, one, 0.0)
    with pytest.raises(GridMismatchError):
        weak_lhs(f, unit_weight(make_grid(4.0, 7)), one, 1.0)


def test_modular_rhs_closed_forms():
    grid = make_grid(4.0, 8)
    one = unit_weight(grid)
    f = sample_f(grid, "indicator a=0 b=1")
    # identity Young function turns the modular into (1/t) int |f| u v
    assert modular_rhs(f, Identity(), one, one, 0.5) == 2.0
    want = 2.0 * (1.0 + math.log(2.0))
    assert modular_rhs(f, LLogL(1, 1), one, one, 0.5) == pytest.approx(want, rel=1e-12)
    assert modular_rhs(sample_f(grid, "zero"), LLogL(1, 1), one, one, 1.0) == 0.0
    with pytest.raises(DomainError):
        modular_rhs(f, Identity(), one, one, -1.0)


def loop_superlevel(h, level, density, ts):
    """Test-only oracle: one masked sum over all cells per height."""
    return np.array([h * float(np.sum(density[level > t])) for t in ts])


def loop_modular(h, signal, phi, density, ts):
    """Test-only oracle: phi over all cells, zeros included, per height."""
    return np.array([h * float(np.sum(phi(signal / t) * density)) for t in ts])


@st.composite
def level_sets(draw):
    """A signal with ties and zeros (sometimes nothing else), a positive density,
    and heights that hit the signal's values or lie at or above its maximum."""
    grid = make_grid(4.0, draw(st.integers(min_value=4, max_value=6)))
    pool = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=5))
    cells = st.lists(st.sampled_from([0.0, *pool]), min_size=grid.N, max_size=grid.N)
    signal = np.array(draw(cells)) * draw(st.sampled_from([1.0, 1.0, 1.0, 0.0]))
    logs = draw(st.lists(st.floats(-3.0, 3.0), min_size=grid.N, max_size=grid.N))
    top = float(signal.max())
    above = [top, 2.0 * top] if top > 0.0 else []
    ts = np.array([*pool, *above, *draw(st.lists(st.floats(1e-3, 1e3), max_size=6))])
    return grid, signal, np.exp(np.array(logs)), ts


@settings(max_examples=60, deadline=None)
@given(case=level_sets(), phi=st.sampled_from([Identity(), LLogL(1.0, 3.0), LLogL(2.0, 1.0), Power(2.0)]))
def test_height_kernels_match_per_height_loops(case, phi):
    grid, signal, density, ts = case
    h = grid.h
    lhs = superlevel_mass(h, signal, density, ts)
    rhs = modular_mass(h, signal, phi, density, ts)
    assert lhs == pytest.approx(loop_superlevel(h, signal, density, ts), rel=1e-12)
    assert rhs == pytest.approx(loop_modular(h, signal, phi, density, ts), rel=1e-12)
    assert np.all(lhs[ts >= signal.max()] == 0.0)
    if not signal.any():
        assert np.all(rhs == 0.0)
    order = np.argsort(ts)
    assert np.all(np.diff(lhs[order]) <= 0.0)
    assert np.all(np.diff(rhs[order]) <= 0.0)
    # the weighted entry points: |Tout / v| on the interior against u v, phi(|f| / t) u v
    f = SampledFunction(grid, signal)
    u, v = Weight(SampledFunction(grid, density)), build_weight(grid, "power beta=-0.25")
    interior = grid.interior_mask(0.05)
    level = np.abs(signal / v.values)[interior]
    uv = u.values * v.values
    got = weak_lhs(f, u, v, ts)
    assert got == pytest.approx(loop_superlevel(h, level, uv[interior], ts), rel=1e-12)
    one = weak_lhs(f, u, v, float(ts[0]))
    assert isinstance(one, float) and one == pytest.approx(got[0], rel=1e-12)
    got = modular_rhs(f, phi, u, v, ts)
    assert got == pytest.approx(loop_modular(h, signal, phi, uv, ts), rel=1e-12)
    one = modular_rhs(f, phi, u, v, float(ts[0]))
    assert isinstance(one, float) and one == pytest.approx(got[0], rel=1e-12)


def test_modular_rhs_memory_is_a_few_grid_arrays():
    # bumps are nonzero on every cell: 33 heights must not build a heights x cells temporary
    grid = make_grid(8.0, 16)
    f = sample_f(grid, "bumps")
    u, v = build_weight(grid, "power beta=-0.5"), build_weight(grid, "power beta=-0.25")
    ts = np.geomspace(1e-3, 10.0, 33)
    tracemalloc.start()
    try:
        modular_rhs(f, LLogL(1.0, 3.0), u, v, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 8 * grid.N


# --- runners ---------------------------------------------------------------


def test_base_sawyer_unit_weights_is_stable():
    cfg = ExperimentConfig(L=8.0, J=8, f="indicator a=0 b=1", u="const", v="const")
    rep = run_base_sawyer(cfg)
    assert rep.theorem == "base_sawyer"
    assert len(rep.rows) == cfg.steps
    assert rep.preflight["A1_u"].value == 1.0
    assert rep.sup_ratio == pytest.approx(0.6326, rel=0.05)
    coarse, fine = rep.refinement_pair
    assert abs(fine - coarse) / coarse < 0.15
    assert rep.j_pair == (6, 8)


def test_refinement_needs_headroom():
    with pytest.raises(ConfigurationError):
        run_base_sawyer(ExperimentConfig(J=5, u="const", v="const"))


def test_rows_monotone_and_sweep_endpoints():
    cfg = ExperimentConfig(
        L=8.0, J=8, u="const", v="const", t_min=0.25, t_max=16.0, steps=9
    )
    rep = run_theorem1(cfg)
    ts = [row.t for row in rep.rows]
    assert ts[0] == 0.25 and ts[-1] == 16.0 and ts == sorted(ts)
    for prev, cur in zip(rep.rows, rep.rows[1:]):
        assert cur.lhs <= prev.lhs
        assert cur.rhs <= prev.rhs


def test_theorem1_small_scale_report():
    cfg = ExperimentConfig(L=8.0, J=8, f="indicator a=0 b=1", u="power beta=-0.5", v="const")
    rep = run_theorem1(cfg)
    assert rep.theorem == "theorem1"
    assert not rep.degenerate_symbol
    assert rep.sup_ratio == pytest.approx(0.8764, rel=0.05)
    assert math.isfinite(rep.sup_ratio)
    assert set(rep.stage_s) == {"preflight", "fine", "coarse"}
    assert 0.0 < sum(rep.stage_s.values())
    # after normalization the split-form column coincides with the main RHS
    assert all(row.alt == row.rhs for row in rep.rows)


def test_theorem2_m1_reduces_to_theorem1():
    cfg = ExperimentConfig(L=8.0, J=7, u="const", v="const")
    assert run_theorem2(replace(cfg, m=1)).rows == run_theorem1(cfg).rows
    with pytest.raises(DomainError):
        run_theorem2(replace(cfg, m=0))
    with pytest.raises(DomainError):
        run_theorem2(replace(cfg, m=4))


def test_constant_symbol_degenerates_to_zero_rows():
    cfg = ExperimentConfig(L=8.0, J=7, b="const value=3", u="const", v="const")
    rep = run_theorem1(cfg)
    assert rep.degenerate_symbol
    assert all(r.lhs == r.rhs == r.ratio == r.alt == 0.0 for r in rep.rows)
    assert rep.sup_ratio == 0.0


def test_zero_function_gives_zero_report():
    cfg = ExperimentConfig(L=8.0, J=7, f="zero", u="const", v="const")
    rep = run_theorem1(cfg)
    assert all(r.lhs == r.rhs == r.ratio == 0.0 for r in rep.rows)
    assert rep.sup_ratio == 0.0 and rep.refinement_pair == (0.0, 0.0)


def test_preflight_refuses_non_a1_u_unless_forced():
    cfg = ExperimentConfig(L=8.0, J=8, u="power beta=0.5", v="const")
    with pytest.raises(PreflightError) as err:
        run_theorem1(cfg)
    assert set(err.value.estimates) == {"A1_u", "A1_v", "A2_v_wrt_u"}
    assert not err.value.estimates["A1_u"].stable
    rep = run_theorem1(ExperimentConfig(L=8.0, J=8, u="power beta=0.5", v="const", force=True))
    assert not rep.preflight["A1_u"].stable
    assert math.isfinite(rep.sup_ratio)


def test_negative_control_diverges_and_contrast_does_not():
    bad = ExperimentConfig(
        L=8.0, J=10, f="cusp gamma=0.25 a=0 b=1",
        u="power beta=0.5", v="power beta=-0.9", force=True,
    )
    coarse, fine = run_theorem1(bad).refinement_pair
    assert fine / coarse - 1.0 > 0.5  # measured +81.8%
    good = ExperimentConfig(
        L=8.0, J=10, f="cusp gamma=0.25 a=0 b=1",
        u="power beta=-0.5", v="power beta=-0.9",
    )
    coarse, fine = run_theorem1(good).refinement_pair
    assert abs(fine / coarse - 1.0) < 0.2  # measured +11.7%, no force needed


def test_theorem3_weight_pair():
    grid = make_grid(4.0, 6)
    v, w = build_theorem3_weight(grid, 1.0, 0.0, -2.0)
    assert w is v
    v, w = build_theorem3_weight(grid, 1.0, 1.0, -2.0)
    phi = LLogL(1, 1)
    assert np.array_equal(w.values, 1.0 / phi(1.0 / v.values))
    with pytest.raises(HypothesisError):
        build_theorem3_weight(grid, 1.0, 1.0, -0.5)
    with pytest.raises(DomainError):
        build_theorem3_weight(grid, 0.5, 1.0, -2.0)


def test_theorem3_small_scale_report():
    cfg = ExperimentConfig(L=8.0, J=10, f="indicator a=0 b=1", u="chibump",
                           r=1, delta=1, beta=-2)
    rep = run_theorem3(cfg)
    assert rep.theorem == "theorem3_r1_d1_b-2"
    assert rep.sup_ratio == pytest.approx(0.4643, rel=0.05)
    coarse, fine = rep.refinement_pair
    assert abs(fine - coarse) / coarse < 0.2
    assert rep.extras["weak_orlicz_rhs"] > 0.0
    assert rep.extras["weak_orlicz_sup"] == pytest.approx(0.2461, rel=0.05)


def test_theorem3_identity_case_matches_weak_orlicz_form():
    # for Phi(t) = t the two formulations are the same statement, so the
    # harness must report the same sup through both columns
    cfg = ExperimentConfig(L=8.0, J=8, f="indicator a=0 b=1", u="chibump",
                           r=1, delta=0, beta=-2)
    rep = run_theorem3(cfg)
    assert rep.extras["weak_orlicz_sup"] == pytest.approx(rep.sup_ratio, rel=1e-12)


def test_theorem3_exponents_are_checked_before_any_grid_is_built():
    # J = 5 would fail _drive's headroom check, so reaching these errors
    # shows the exponent rule runs first
    cfg = ExperimentConfig(L=8.0, J=5, r=1, delta=1, beta=-2)
    with pytest.raises(ConfigurationError):
        run_theorem3(cfg)
    with pytest.raises(HypothesisError, match="beta must be < -1"):
        run_theorem3(replace(cfg, beta=-0.5))
    with pytest.raises(DomainError):
        run_theorem3(replace(cfg, r=0.5))


def test_theorem3_zero_function():
    cfg = ExperimentConfig(L=8.0, J=7, f="zero", u="const", r=1, delta=1, beta=-2)
    rep = run_theorem3(cfg)
    assert all(r.ratio == 0.0 for r in rep.rows)
    assert rep.extras == {"weak_orlicz_rhs": 0.0, "weak_orlicz_sup": 0.0}


def test_theorem3_default_sweep_closes_at_twice_the_interior_quotient_top():
    cfg = ExperimentConfig(L=8.0, J=8, f="indicator a=0 b=1", u="chibump", r=1, delta=1, beta=-2)
    grid = make_grid(cfg.L, cfg.J)
    v, _ = build_theorem3_weight(grid, 1.0, 1.0, -2.0)
    fv = sample_f(grid, cfg.f) * v.fn
    quotient = orlicz_maximal(fv, LLogL(1, 1), cfg.scan()).values / v.values
    top = 2.0 * float(np.max(quotient[grid.interior_mask(cfg.margin)]))
    absfv = np.abs(fv.values)
    center = float(np.median(absfv[absfv > 0.0]))
    ts = [row.t for row in run_theorem3(cfg).rows]
    assert ts[0] == center * 1e-2 < top
    assert ts[-1] == top
    # an explicit upper end wins, and a top below the lower end falls back
    # to two decades above the median
    assert run_theorem3(ExperimentConfig(**{**vars(cfg), "t_max": 5.0})).rows[-1].t == 5.0
    above = ExperimentConfig(**{**vars(cfg), "t_min": 2.0 * top})
    assert run_theorem3(above).rows[-1].t == center * 1e2


# --- the verdict -----------------------------------------------------------


def test_report_verdict_edge_pairs():
    # (0, 0): nothing measured on either grid is drift 0, and stable
    for rep in (
        run_theorem1(ExperimentConfig(L=8.0, J=7, f="zero", u="const", v="const")),
        run_theorem3(ExperimentConfig(L=8.0, J=7, f="zero", u="const", r=1, delta=1, beta=-2)),
    ):
        assert rep.refinement_pair == (0.0, 0.0)
        assert rep.drift == 0.0 and rep.stable
    # the forced A1 negative control drifts far past the bar
    control = run_theorem1(ExperimentConfig(
        L=8.0, J=10, f="cusp gamma=0.25 a=0 b=1",
        u="power beta=0.5", v="power beta=-0.9", force=True,
    ))
    coarse, fine = control.refinement_pair
    assert control.drift == abs(fine - coarse) / coarse > 0.5
    assert not control.stable
    # its compliant contrast: drift relative to the coarse value, within the bar
    rep = run_theorem1(ExperimentConfig(
        L=8.0, J=10, f="cusp gamma=0.25 a=0 b=1", u="power beta=-0.5", v="power beta=-0.9",
    ))
    coarse, fine = rep.refinement_pair
    assert rep.drift == abs(fine - coarse) / coarse <= STABILITY_BAR
    assert rep.stable


@pytest.mark.parametrize(
    "subcommand,text",
    [
        ("verify-thm1", "grid.J = 8\nweight.u.family = const\nweight.v.family = const\n"),
        ("verify-thm1", "grid.J = 8\nf.family = cusp gamma=0.25 a=0 b=1\n"
                        "weight.u.family = power beta=0.5\nweight.v.family = power beta=-0.9\n"),
        ("verify-thm3", "grid.J = 8\nweight.u.family = chibump\n"),
    ],
)
def test_cli_verdict_is_the_reports(tmp_path, capsys, subcommand, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    argv = [subcommand, "--config", str(path), "--out", str(tmp_path)]
    if subcommand == "verify-thm1":  # theorem 3 has no preflight, so no --force
        argv.append("--force")
    rep = {"verify-thm1": run_theorem1, "verify-thm3": run_theorem3}[subcommand](
        parse_config(str(path), build_parser().parse_args(argv))
    )
    assert main(argv) == (0 if rep.stable else 1)
    body = json.loads((tmp_path / f"{subcommand}.json").read_text())["report"]
    assert body["drift"] == rep.drift
    assert body["stable"] is rep.stable
    assert f"drift={rep.drift:.3g}" in capsys.readouterr().out


@pytest.mark.parametrize("source", ["formula", "custom"])
def test_preflight_reads_the_coarse_runs_own_inputs(tmp_path, source):
    # one coarse instance, built on Grid.coarsened(), feeds both the coarse
    # sweep and every refinement pair; estimate pairs the same inputs
    fine_grid = make_grid(8.0, 8)
    specs = {"u": "power beta=-0.5", "v": "power beta=-0.25"}
    if source == "custom":  # files at 4N samples, block-averaged onto each grid
        for name, spec in specs.items():
            path = tmp_path / f"{name}.txt"
            np.savetxt(path, build_weight(make_grid(8.0, 10), spec).values)
            specs[name] = f"custom path={path}"
    path = tmp_path / "run.cfg"
    path.write_text(f"grid.J = 8\nweight.u.family = {specs['u']}\n"
                    f"weight.v.family = {specs['v']}\n")
    reports = {}
    for subcommand in ("verify-thm1", "estimate"):
        out = tmp_path / subcommand
        assert main([subcommand, "--config", str(path), "--out", str(out), "--format", "json"]) in (0, 1)
        reports[subcommand] = json.loads((out / f"{subcommand}.json").read_text())["report"]
    preflight = reports["verify-thm1"]["preflight"]
    assert list(preflight) == ["A1_u", "A1_v", "A2_v_wrt_u"]
    assert preflight == {name: reports["estimate"][name] for name in preflight}
    coarse_u = build_weight(fine_grid.coarsened(), specs["u"])
    assert preflight["A1_u"]["refinement_pair"][0] == estimate_Ap(
        coarse_u, 1.0, ExperimentConfig().scan()
    )


# --- scale solver ----------------------------------------------------------


def test_solve_scale_a_closed_forms():
    F = sample_f(make_grid(2.0, 12), "indicator a=-1 b=1")
    # a * |[-a, a] cap [-1, 1]| = lambda: the map is 2a^2 until a = 1, then 2a
    assert solve_scale_a(F, 1.0, 1.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=5e-4)
    assert solve_scale_a(F, 1.0, 4.0) == pytest.approx(2.0, rel=1e-9)
    assert solve_scale_a(F, 2.0, 1.0) == pytest.approx(2.0 ** (-1.0 / 3.0), rel=5e-4)


def test_solve_scale_a_is_a_left_continuous_root():
    grid = make_grid(2.0, 10)
    F = sample_f(grid, "indicator a=-1 b=1") + 0.5 * sample(lambda x: np.exp(-x * x), grid)
    xs = np.sort(np.abs(grid.centers))
    cmass = np.cumsum(F.values[np.argsort(np.abs(grid.centers))]) * grid.h

    def G(a, gamma):
        idx = int(np.searchsorted(xs, a**gamma, side="right"))
        return a * (float(cmass[idx - 1]) if idx else 0.0)

    for gamma in (0.5, 1.0, 2.0):
        for lam in (0.3, 1.7):
            a = solve_scale_a(F, gamma, lam)
            assert G(a, gamma) >= lam * (1.0 - 1e-12)
            assert G(a * (1.0 - 3e-8), gamma) < lam * (1.0 + 1e-12)


def test_solve_scale_a_domain_and_range():
    F = sample_f(make_grid(2.0, 8), "indicator a=-1 b=1")
    with pytest.raises(DomainError):
        solve_scale_a(F, 0.0, 1.0)
    with pytest.raises(DomainError):
        solve_scale_a(F, 1.0, 0.0)
    with pytest.raises(DomainError):
        solve_scale_a(sample_f(F.grid, "zero"), 1.0, 1.0)
    with pytest.raises(RangeError):
        solve_scale_a(F, 1.0, 4.0001)
    # monotone in the target level
    roots = [solve_scale_a(F, 1.0, lam) for lam in (0.5, 1.0, 2.0)]
    assert roots == sorted(roots)


# --- proof-set diagnostics -------------------------------------------------


def test_set_partition_examples():
    assert theorem3_set_partition(3.0, 1) == frozenset({"G", "I"})
    assert theorem3_set_partition(1.0, 1) == frozenset({"C"})
    assert theorem3_set_partition(40.0, 1) == frozenset({"L"})
    assert theorem3_set_partition(2.0, 1) == frozenset({"I"})
    assert theorem3_set_partition(4.0, 1) == frozenset({"G", "I"})
    assert theorem3_set_partition(8.0, 1) == frozenset({"I"})
    assert theorem3_set_partition(8.0001, 1) == frozenset({"L"})


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(min_value=1e-30, max_value=1e30, allow_nan=False),
    k=st.integers(min_value=-40, max_value=40),
)
def test_set_partition_properties(x, k):
    labels = theorem3_set_partition(x, k)
    assert len(labels & {"C", "I", "L"}) == 1
    if "G" in labels:
        assert "I" in labels
        assert 2.0**k < x <= 2.0 ** (k + 1)
    assert theorem3_set_partition(-x, k) == labels

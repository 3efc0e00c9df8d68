"""Tests for the verification harness.

Closed-form rows are checked exactly where the quadrature is exact (indicator
data, unit weights); measured sup-ratios at small grids are frozen with
loose bands since only refinement stability, not the value, is meaningful.
"""

import hashlib
import json
import math
import re
import sys
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixedweak._errors import (
    ConfigurationError,
    DomainError,
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
from mixedweak.maximal import hl_maximal, orlicz_maximal
from mixedweak.singular import commutator
from mixedweak.verify import (
    _FAMILIES,
    STABILITY_BAR,
    ExperimentConfig,
    _sides,
    build_weight,
    evaluate,
    parse_family,
    prepare,
    run_base_sawyer,
    run_theorem1,
    run_theorem2,
    run_theorem3,
    sample_b,
    sample_f,
)
from mixedweak.weights import Weight, bmo_norm, estimate_Ap, power_weight
from mixedweak.young import Identity, LLogL, Power
from oracles import solve_scale_a, theorem3_set_partition


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
    with pytest.raises(ConfigurationError, match="t_max must be positive and finite"):
        ExperimentConfig(t_max=math.inf)
    with pytest.raises(ConfigurationError, match="t_min must be positive and finite"):
        ExperimentConfig(t_min=math.inf)


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


#: the families each input takes, in the order its refusal names them
TAKES = {"f": "indicator, bumps, cusp, zero, custom", "b": "log, sawtoothlog, const, custom",
         "weight": "power, const, chibump, custom"}


@pytest.mark.parametrize("family", [*_FAMILIES, "pwr"])
@pytest.mark.parametrize("key,kind,build", [
    ("f.family", "f", sample_f), ("b.family", "b", sample_b),
    ("weight.u.family", "weight", build_weight), ("weight.v.family", "weight", build_weight),
], ids=["f", "b", "u", "v"])
def test_every_family_against_every_input(tmp_path, capsys, family, key, kind, build):
    spec = family
    if family == "custom":
        values = np.linspace(0.5, 2.0, 1 << 8)
        np.savetxt(tmp_path / "values.txt", values)
        spec = f"custom path={tmp_path / 'values.txt'}"
    if family in TAKES[kind].split(", "):
        # every parameter at its default
        got = build(make_grid(8.0, 8), spec)
        assert type(got) is (Weight if kind == "weight" else SampledFunction)
        assert family != "custom" or np.array_equal(got.values, values)
        return
    path = tmp_path / "run.cfg"
    path.write_text(f"grid.J = 8\n{key} = {spec}\n")
    assert main(["verify-thm1", "--config", str(path), "--out", str(tmp_path)]) == 2
    want = f"error: unknown {kind} family {family!r} (takes {TAKES[kind]})\n"
    assert capsys.readouterr().err == want


@pytest.mark.parametrize("a,b", [("1", "0"), ("2", "1"), ("0.5", "0.5"), ("nan", "1"), ("0", "nan"),
                                 ("0.13", "0.2"), ("0.1", "0.2")])
def test_interval_families_refuse_a_reversed_or_empty_interval(tmp_path, capsys, a, b):
    # with no cell center inside, a run would measure nothing (indicator f: sup_ratio 0,
    # "stable") or only the floor (chibump u: A1_u 1).  At L = 8 [0.13, 0.2] holds no
    # center of J = 6 or J = 4, and [0.1, 0.2] one of J = 6 but none of its coarse
    # grid J = 4 (where the run read drift=inf)
    lo, hi = float(a), float(b)
    reversed_ = not lo < hi
    grid = make_grid(8.0, 4)
    for family, build in (("indicator", sample_f), ("cusp", sample_f), ("chibump", build_weight)):
        want = (f"family '{family}' needs a < b, got a={lo!r} b={hi!r}" if reversed_ else
                re.escape(f"family '{family}' has no cell center in [{lo!r}, {hi!r}] at J=4"))
        with pytest.raises(ConfigurationError, match=want):
            build(grid, f"{family} a={a} b={b}")
    subcommands = [("verify-thm1", "f", "indicator"), ("estimate", "weight.u", "chibump")]
    if not reversed_:
        subcommands += [("verify-thm2", "f", "indicator"), ("verify-thm3", "f", "indicator")]
    for subcommand, key, family in subcommands:
        path = tmp_path / "run.cfg"
        path.write_text(f"grid.J = 6\n{key}.family = {family} a={a} b={b}\n")
        argv = [subcommand, "--config", str(path), "--out", str(tmp_path)]
        assert main(argv + (["--m", "3"] if subcommand == "verify-thm2" else [])) == 2
        err = capsys.readouterr().err
        assert f"family '{family}' " + ("needs a < b" if reversed_ else "has no cell center") in err
        if not reversed_:
            assert f"at J={6 if lo == 0.13 else 4}" in err


# --- the two sides ---------------------------------------------------------


def on_grid(grid, density, margin=0.05):
    """What ``_sides`` reads of one grid of a prepared pair: the interior
    mask, the left side's density and the symbol's norm (none here)."""
    return SimpleNamespace(grid=grid, interior=grid.interior_mask(margin), density=density,
                           bmo_norm=None)


def test_sides_left_trivial_and_unit_function():
    grid = make_grid(4.0, 8)
    ones = np.ones(grid.N)
    chi = np.abs(sample_f(grid, "indicator a=0 b=1").values)

    def lhs(level, t, margin=0.05):
        return _sides(on_grid(grid, ones, margin), Identity(), np.array([t]), level, chi, ones)[0][0]

    assert lhs(chi, 2.0) == 0.0
    # unit function: every interior cell is in the level set below 1
    count = int(np.sum(np.abs(grid.centers) <= 0.95 * grid.L))
    assert lhs(ones, 0.5) == grid.h * count == 7.625
    assert lhs(ones, 0.5, margin=0.2) <= 7.625
    with pytest.raises(DomainError):
        lhs(chi, 0.0)


def test_sides_right_closed_forms():
    grid = make_grid(4.0, 8)
    ones = np.ones(grid.N)
    chi = np.abs(sample_f(grid, "indicator a=0 b=1").values)

    def rhs(signal, phi, t):
        return _sides(on_grid(grid, ones), phi, np.array([t]), chi, signal, ones)[1][0]

    # identity Young function turns the modular into (1/t) int |f| u v
    assert rhs(chi, Identity(), 0.5) == 2.0
    want = 2.0 * (1.0 + math.log(2.0))
    assert rhs(chi, LLogL(1, 1), 0.5) == pytest.approx(want, rel=1e-12)
    assert rhs(np.zeros(grid.N), LLogL(1, 1), 1.0) == 0.0
    with pytest.raises(DomainError):
        rhs(chi, Identity(), -1.0)
    # a negative or NaN signal is refused, by the sorted sum and by the loop
    for bad in (-chi, np.where(chi > 0.0, np.nan, 0.0)):
        for phi in (LLogL(1, 1), LLogL(1, 0.5)):
            with pytest.raises(DomainError):
                rhs(bad, phi, 1.0)


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


def just_above_the_heights():
    """Cells at t (1 + 10^-u) just above the heights t = 1e-3 and 1e3, far from
    log t = 0: there (1 + log(s/t))^3 expanded about one fixed center cancels
    large terms, and a sum of nonnegative terms does not."""
    rng = np.random.default_rng(0)
    grid = make_grid(4.0, 12)
    ts = np.array([1e-3, 1e3])
    signal = np.concatenate([t * (1.0 + 10.0 ** -rng.uniform(0.3, 12.0, grid.N // 2)) for t in ts])
    return grid, signal, np.exp(rng.uniform(-3.0, 3.0, grid.N)), ts


# LLogL(1, 2.5) has a fractional log power, so it takes the per-height loop
@settings(max_examples=60, deadline=None)
@example(case=just_above_the_heights(), phi=LLogL(1.0, 3.0))
@given(case=level_sets(), phi=st.sampled_from([Identity(), LLogL(1.0, 3.0), LLogL(2.0, 1.0), Power(2.0),
                                               LLogL(1.0, 2.5), Power(1.5, 3.0)]))
def test_height_kernels_match_per_height_loops(case, phi):
    grid, signal, density, ts = case
    h = grid.h
    lhs = superlevel_mass(h, signal, density, ts)
    rhs = modular_mass(h, signal, phi, density, ts)
    assert lhs == pytest.approx(loop_superlevel(h, signal, density, ts), rel=1e-12)
    assert rhs == pytest.approx(loop_modular(h, signal, phi, density, ts), rel=1e-12)
    # a height's value does not depend on the other heights of the call
    for t, value in zip(ts, rhs):
        assert modular_mass(h, signal, phi, density, [t])[0] == value
    # nor on a common power-of-two scale of signal and heights, even one that
    # takes s**r alone out of the float range
    tiny = 2.0 ** -400
    assert np.array_equal(modular_mass(h, signal * tiny, phi, density, ts * tiny), rhs)
    assert np.all(lhs[ts >= signal.max()] == 0.0)
    if not signal.any():
        assert np.all(rhs == 0.0)
    order = np.argsort(ts)
    assert np.all(np.diff(lhs[order]) <= 0.0)
    assert np.all(np.diff(rhs[order]) <= 0.0)
    # both sides as the runners measure them: the quotient |Tout / v| on the
    # interior against u v, and phi(|f| / t) u v on every cell
    v = build_weight(grid, "power beta=-0.25").values
    interior = grid.interior_mask(0.05)
    level, uv = np.abs(signal / v), density * v
    left, right = _sides(on_grid(grid, uv), phi, ts, level, signal, uv)
    assert left == pytest.approx(loop_superlevel(h, level[interior], uv[interior], ts), rel=1e-12)
    assert right == pytest.approx(loop_modular(h, signal, phi, uv, ts), rel=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e-280])
@pytest.mark.parametrize("phi", [Identity(), Power(2.0), LLogL(1.0, 1.0), LLogL(2.0, 1.0),
                                 LLogL(1.0, 0.5)], ids=repr)
def test_heights_at_the_ends_of_the_float_range_read_inf_or_toward_zero(phi, scale):
    # the sorted kernel divides s and t by the power of two above the largest s;
    # at these heights that takes t, or t**r, out of the float range (above it
    # for the smaller signal, which lifts t), and no height may raise or warn
    heights = [5e-324, 1e-320, 1e-300, 1e200, 1e300]
    signal = scale * np.geomspace(1e-3, 10.0, 40)
    density = np.random.default_rng(3).uniform(0.5, 2.0, signal.size)
    got = modular_mass(0.25, signal, phi, density, heights)
    with np.errstate(over="ignore"):
        want = loop_modular(0.25, signal, phi, density, heights)
    for t, value, per_cell in zip(heights, got.tolist(), want.tolist()):
        if per_cell >= sys.float_info.min:
            assert value == pytest.approx(per_cell, rel=1e-12), t
        elif per_cell == 0.0:
            assert value == 0.0, t
        else:  # subnormal
            assert value < sys.float_info.min, t
        assert modular_mass(0.25, signal, phi, density, [t])[0] == value


def test_modular_mass_memory_is_a_few_grid_arrays():
    # bumps are nonzero on every cell: 33 heights must not build a heights x cells temporary
    grid = make_grid(8.0, 16)
    signal = np.abs(sample_f(grid, "bumps").values)
    u, v = build_weight(grid, "power beta=-0.5"), build_weight(grid, "power beta=-0.25")
    uv = u.values * v.values
    ts = np.geomspace(1e-3, 10.0, 33)
    tracemalloc.start()
    try:
        modular_mass(grid.h, signal, LLogL(1.0, 3.0), uv, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * grid.N


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
    # the fine grid's BMO norm, which b is divided by
    assert rep.extras == {"bmo_norm": bmo_norm(sample_b(make_grid(8.0, 8), "log"), cfg.scan())}
    assert rep.extras["bmo_norm"] > 0.0
    assert rep.sup_ratio == pytest.approx(0.8764, rel=0.05)
    assert math.isfinite(rep.sup_ratio)
    assert set(rep.stage_s) == {"prepare", "fine", "coarse"}
    assert 0.0 < sum(rep.stage_s.values())
    # only theorem 3 has a second right side
    assert all(row.alt is None for row in rep.rows)


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
    assert rep.extras == {"bmo_norm": 0.0}
    assert all(r.lhs == r.rhs == r.ratio == 0.0 and r.alt is None for r in rep.rows)
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
    # a theorem-3 pair holds v = |x|^beta and, with u = 1, the left side's density
    # w = 1/Phi(1/v); for Phi = Identity w keeps v's samples bit for bit
    cfg = ExperimentConfig(L=4.0, J=6, u="const", r=1, delta=0, beta=-2)
    for res in (prepare(cfg, "maximal").fine, prepare(cfg, "maximal").coarse):
        assert np.array_equal(res.v.values, power_weight(res.grid, -2.0).values)
        assert np.array_equal(res.density, res.v.values)
    res = prepare(replace(cfg, delta=1), "maximal").fine
    assert np.array_equal(res.density, 1.0 / LLogL(1, 1)(1.0 / res.v.values))
    with pytest.raises(HypothesisError):
        prepare(replace(cfg, delta=1, beta=-0.5), "maximal")
    with pytest.raises(DomainError):
        prepare(replace(cfg, r=0.5, delta=1), "maximal")


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


def test_theorem3_estimates_no_weight_constant(monkeypatch):
    # the theorem hypothesizes nothing of u, so no constant is estimated and
    # the report's preflight is empty; the pinned bits are the run's own, as
    # estimating a constant would not move either side
    import mixedweak.verify as verify

    def refuse(*args, **kwargs):
        raise AssertionError("theorem 3 estimated a weight constant")

    for name in ("preflight_weights", "estimate_Ap", "estimate_Ap_u", "bmo_norm"):
        monkeypatch.setattr(verify, name, refuse)
    cfg = ExperimentConfig(L=8.0, J=10, f="indicator a=0.25 b=1", u="power beta=-0.5",
                           r=2, delta=1, beta=-1.5)
    rep = run_theorem3(cfg)
    assert rep.preflight == {}
    assert rep.sup_ratio.hex() == "0x1.a8d77cf72be10p-3"
    assert rep.argmax_t.hex() == "0x1.17c53c633b885p+0"
    assert rep.drift.hex() == "0x1.94efb2615785ap-8"
    assert rep.refinement_pair[0].hex() == "0x1.a63b9b8dd3d63p-3"
    assert rep.stable
    rows = repr([(r.t, r.lhs, r.rhs, r.ratio, r.alt) for r in rep.rows])
    assert hashlib.sha256(rows.encode()).hexdigest()[:16] == "ab396d1664a8f866"


def test_theorem3_identity_case_matches_weak_orlicz_form():
    # for Phi(t) = t the two formulations are the same statement, so the
    # harness must report the same sup through both columns
    cfg = ExperimentConfig(L=8.0, J=8, f="indicator a=0 b=1", u="chibump",
                           r=1, delta=0, beta=-2)
    rep = run_theorem3(cfg)
    assert rep.extras["weak_orlicz_sup"] == pytest.approx(rep.sup_ratio, rel=1e-12)


def test_theorem3_exponents_are_checked_before_any_grid_is_built():
    # J = 5 would fail prepare's headroom check, so reaching these errors
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


@pytest.mark.parametrize("f", ["indicator a=0.01 b=2", "indicator a=-2 b=-0.01"])
def test_theorem3_right_sides_read_the_unrestricted_maximal_function(f):
    # the run computes Mu only on the span of fv's nonzero cells; on the cells
    # the modular reads it must be the full-grid Mu, bitwise.  u's spike sits
    # just outside that span, so an interval that reaches it from an end cell
    # of the span sets Mu there
    cfg = ExperimentConfig(L=8.0, J=10, f=f, u="power beta=-0.5", r=2, delta=1, beta=-1.5)
    rep = run_theorem3(cfg)
    grid = make_grid(cfg.L, cfg.J)
    v = power_weight(grid, cfg.beta)
    fv = np.abs((sample_f(grid, cfg.f) * v).values)
    mu = hl_maximal(build_weight(grid, cfg.u), cfg.scan()).values
    ts = np.array([row.t for row in rep.rows])
    rhs = modular_mass(grid.h, fv, LLogL(cfg.r, cfg.delta), mu, np.append(ts, 1.0))
    assert [row.rhs for row in rep.rows] == rhs[:-1].tolist()
    assert rep.extras["weak_orlicz_rhs"] == rhs[-1]


def test_theorem3_default_sweep_closes_at_twice_the_interior_quotient_top():
    cfg = ExperimentConfig(L=8.0, J=8, f="indicator a=0 b=1", u="chibump", r=1, delta=1, beta=-2)
    grid = make_grid(cfg.L, cfg.J)
    v = power_weight(grid, cfg.beta)
    fv = sample_f(grid, cfg.f) * v
    quotient = orlicz_maximal(fv, LLogL(1, 1), cfg.scan()).values / v.values
    top = 2.0 * float(np.max(quotient[grid.interior_mask(cfg.margin)]))
    absfv = np.abs(fv.values)
    center = float(np.median(absfv[absfv > 0.0]))
    ts = [row.t for row in run_theorem3(cfg).rows]
    assert ts[0] == center * 1e-2 < top
    assert ts[-1] == top
    # an explicit upper end wins; a top below the lower end falls back to two
    # decades above the median, and a window that still inverts is refused
    assert run_theorem3(ExperimentConfig(**{**vars(cfg), "t_max": 5.0})).rows[-1].t == 5.0
    assert center * 1e2 < 2.0 * top
    with pytest.raises(ConfigurationError, match=re.escape("got the window [8597.29, 404.718]")):
        run_theorem3(ExperimentConfig(**{**vars(cfg), "t_min": 2.0 * top}))
    # nothing to measure: the quotient's top is 0 and the window is [0.01, 100]
    ts = [row.t for row in run_theorem3(replace(cfg, f="zero")).rows]
    assert ts[0] == 1e-2 and ts[-1] == 1e2


@pytest.mark.parametrize(("key", "flag", "end", "window"), [
    ("t_min", "--t-min", 1e4, "[10000, 100]"),
    ("t_max", "--t-max", 1e-4, "[0.01, 0.0001]"),
])
def test_a_one_sided_window_that_inverts_is_refused(tmp_path, capsys, key, flag, end, window):
    # the default f's median is 1, so the missing end is 100 or 0.01
    with pytest.raises(ConfigurationError, match=re.escape(f"got the window {window}")):
        run_theorem1(ExperimentConfig(J=8, **{key: end}))
    assert main(["verify-thm1", "--grid-J", "8", flag, str(end), "--out", str(tmp_path)]) == 2
    assert "t_min must not exceed t_max" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    # a one-sided window that does not invert keeps its given end
    ts = [row.t for row in run_theorem1(ExperimentConfig(J=8, u="const", v="const", **{key: 1.0})).rows]
    assert ts[0 if key == "t_min" else -1] == 1.0


# --- a prepared pair ------------------------------------------------------


@pytest.mark.parametrize(("run", "kind", "m"), [
    (run_base_sawyer, "base", 1), (run_theorem1, "commutator", 1),
    (run_theorem2, "commutator", 3), (run_theorem3, "maximal", 1),
])
def test_a_prepared_pair_evaluates_any_f_as_a_fresh_run_does(run, kind, m):
    cfg = ExperimentConfig(J=10, m=m)
    pair = prepare(cfg, kind)
    for f in ("indicator a=-0.5 b=2 height=3", "bumps", "cusp gamma=0.2 a=-1 b=0.5"):
        got, want = evaluate(pair, f), run(replace(cfg, f=f))
        assert got.theorem == want.theorem and got.j_pair == want.j_pair == (8, 10)
        assert got.rows == want.rows
        assert got.sup_ratio == want.sup_ratio and got.argmax_t == want.argmax_t
        assert got.drift == want.drift and got.refinement_pair == want.refinement_pair
        assert got.extras == want.extras and got.preflight == want.preflight
        assert got.stage_s["prepare"] == pair.prepare_s
    with pytest.raises(ConfigurationError, match="kind must be"):
        prepare(cfg, "hilbert")


def test_a_malformed_f_is_named_before_the_preflight_refuses(tmp_path, capsys):
    # f, u and v are all sampled before the weight hypotheses can refuse the run
    path = tmp_path / "run.cfg"
    for f, code, text in (("indicator a=1 b=0", 2, "error: family 'indicator' needs a < b"),
                          ("indicator a=0 b=1", 1, "refused: weight hypotheses not met")):
        path.write_text(f"grid.J = 8\nf.family = {f}\nweight.u.family = power beta=0.5\n")
        assert main(["verify-thm1", "--config", str(path), "--out", str(tmp_path)]) == code
        assert text in capsys.readouterr().err


#: J of the pointwise check, and its points x with today's relative error bound
#: of the quotient |T_b^m(f v) / v| there, per order m: the error halves per rung
#: at m = 3 and shrinks about 2.6x per rung at m = 1 (the point-sampled singular
#: rows next to 0 carry it everywhere), so these bounds are to be lowered, not raised
CONTINUUM_J = 14
CONTINUUM_BOUNDS = {
    1: {-5.0: 0.003444, -2.0: 0.004956, -0.5: 0.01288, -0.2: 0.04138, -0.01: 0.07696,
        0.01: 0.03686, 0.1: 0.01156, 0.3: 0.007342, 0.7: 0.005441, 2.0: 0.003725},
    3: {-5.0: 0.04043, -2.0: 0.06343, -0.5: 0.1262, -0.2: 0.2039, -0.01: 0.4627,
        0.01: 0.1699, 0.1: 0.1909, 0.3: 0.1442, 0.7: 0.09966, 2.0: 0.0593},
}


@pytest.mark.parametrize("m", [1, 3])
def test_headline_quotient_against_the_continuum(m):
    # for m >= 1 the kernel (b(x) - b(y))^m / (pi (x - y)) is bounded near y = x
    # where b = log|.| is smooth, so on the default config (f = chi_[0, 1],
    # v = |x|^-1/4) T_b^m(f v)(x) is the ordinary integral
    # int_0^1 (log|x| - log y)^m y^-1/4 / (pi (x - y)) dy / n^m, with n the lab's
    # BMO norm of log at the same J; it is compared at the cell centers nearest x
    cfg = ExperimentConfig(J=CONTINUUM_J)
    grid = make_grid(cfg.L, cfg.J)
    b = sample_b(grid, cfg.b)
    n = bmo_norm(b, cfg.scan())
    v = build_weight(grid, cfg.v)
    lab = np.abs(commutator(SampledFunction(grid, b.values / n), sample_f(grid, cfg.f) * v, m).values
                 / v.values)
    mpmath.mp.dps = 20
    for x_near, bound in CONTINUUM_BOUNDS[m].items():
        i = int(np.argmin(np.abs(grid.centers - x_near)))
        x = mpmath.mpf(float(grid.centers[i]))
        points = [0, x, 1] if 0 < x < 1 else [0, 1]
        integral = mpmath.quad(lambda y: (mpmath.log(abs(x)) - mpmath.log(y)) ** m
                               * y ** mpmath.mpf(-0.25) / (mpmath.pi * (x - y)), points)
        reference = float(abs(integral) / n**m * abs(x) ** mpmath.mpf(0.25))
        assert abs(lab[i] / reference - 1.0) <= bound, (m, x_near)


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

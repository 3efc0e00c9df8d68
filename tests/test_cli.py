"""Tests for the command-line front end.

Every invocation goes through main(argv) in-process so exit codes, stdout
summaries, and written artifacts can all be asserted without subprocesses.
"""

import argparse
import json
import math
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from mixedweak import cli
from mixedweak._errors import ConfigurationError
from mixedweak.cli import build_parser, main, parse_config, read_config
from mixedweak.czd import cz_decompose
from mixedweak.grid import make_grid
from mixedweak.maximal import orlicz_maximal
from mixedweak.verify import (
    _FAMILIES,
    ExperimentConfig,
    InequalityReport,
    ReportRow,
    build_weight,
    sample_b,
    sample_f,
)
from mixedweak.weights import ConstantEstimate, estimate_Ap
from mixedweak.young import LLogL

BASE_CFG = """\
# small grid for test speed
grid.L = 8
grid.J = 8
f.family = indicator a=0 b=1
b.family = log
weight.u.family = const
weight.v.family = const
sweep.steps = 9
"""


def write_cfg(tmp_path, text=BASE_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def load_report(path):
    with open(path) as fh:
        return json.load(fh)["report"]


def test_read_config_parses_values_with_embedded_equals(tmp_path):
    path = write_cfg(tmp_path)
    entries = read_config(path)
    assert entries[("f", "family")] == "indicator a=0 b=1"
    assert entries[("grid", "J")] == "8"
    assert ("sweep", "steps") in entries


@pytest.mark.parametrize(
    "line,needle",
    [
        ("just words", "expected"),
        ("nodots = 3", "no section prefix"),
        ("orbit.J = 3", "unknown section"),
        ("grid.Q = 3", "unknown key"),
        ("grid.J =", "empty value"),
    ],
)
def test_read_config_rejects_malformed_lines(tmp_path, line, needle):
    path = tmp_path / "bad.cfg"
    path.write_text("grid.L = 4\n" + line + "\n")
    with pytest.raises(ConfigurationError, match=needle) as err:
        read_config(path)
    assert ":2:" in str(err.value)


def test_read_config_rejects_duplicates_and_missing_file(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("grid.J = 8\ngrid.J = 9\n")
    with pytest.raises(ConfigurationError, match="duplicate"):
        read_config(path)
    with pytest.raises(ConfigurationError, match="cannot read"):
        read_config(tmp_path / "absent.cfg")


def test_parse_config_flags_override_file(tmp_path):
    path = write_cfg(tmp_path)
    args = build_parser().parse_args(
        ["verify-thm1", "--config", path, "--grid-J", "9", "--shifts", "1", "--margin", "0.1"]
    )
    cfg = parse_config(path, args)
    assert cfg.J == 9 and cfg.L == 8.0
    assert cfg.shifts == (0.0,)
    assert cfg.margin == 0.1
    assert cfg.f == "indicator a=0 b=1"
    assert not cfg.force


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "8/8 passed" in out and "FAIL" not in out


def test_verify_writes_deterministic_reports(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify-thm1", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["verify-thm1", "--config", cfg, "--out", str(out2)]) == 0
    assert "stable=yes" in capsys.readouterr().out
    rep = load_report(out1 / "verify-thm1.json")
    assert rep["theorem"] == "theorem1"
    assert rep["stable"] is True
    assert len(rep["rows"]["t"]) == 9
    assert set(rep["preflight"]) == {"A1_u", "A1_v", "A2_v_wrt_u"}
    # determinism: everything except the meta object is byte-identical
    assert rep == load_report(out2 / "verify-thm1.json")
    meta = json.loads((out1 / "verify-thm1.json").read_text())["meta"]
    assert set(meta["stage_s"]) == {"prepare", "fine", "coarse"}
    assert all(s >= 0.0 for s in meta["stage_s"].values())
    assert sum(meta["stage_s"].values()) <= meta["runtime_s"]
    csv1 = (out1 / "verify-thm1.csv").read_text()
    assert csv1 == (out2 / "verify-thm1.csv").read_text()
    assert csv1.splitlines()[0] == "t,lhs,rhs,ratio,alt"
    assert len(csv1.splitlines()) == 10
    assert not list(out1.glob(".*tmp*"))


def test_verify_base_and_format_selection(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "csvonly"
    assert main(["verify-base", "--config", cfg, "--out", str(out), "--format", "csv"]) == 0
    assert (out / "verify-base.csv").exists()
    assert not (out / "verify-base.json").exists()


def test_preflight_refusal_exits_one_without_report(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "grid.J = 8\nweight.u.family = power beta=0.5\nweight.v.family = const\n",
    )
    out = tmp_path / "refused"
    assert main(["verify-thm1", "--config", cfg, "--out", str(out)]) == 1
    assert "refused" in capsys.readouterr().err
    assert not out.exists()


def test_forced_negative_control_exits_one_with_report(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "grid.J = 10\n"
        "f.family = cusp gamma=0.25 a=0 b=1\n"
        "weight.u.family = power beta=0.5\n"
        "weight.v.family = power beta=-0.9\n",
    )
    out = tmp_path / "neg"
    assert main(["verify-thm1", "--config", cfg, "--out", str(out), "--force"]) == 1
    assert "stable=NO" in capsys.readouterr().out
    rep = load_report(out / "verify-thm1.json")
    assert rep["stable"] is False
    assert rep["drift"] > 0.5
    assert rep["preflight"]["A1_u"]["stable"] is False
    # one parser serves the process, and no flag of a call leaks into the next:
    # without --force the preflight refuses the same run
    assert build_parser() is build_parser()
    assert main(["verify-thm1", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("refused: ")


def test_config_and_constraint_errors_exit_two(tmp_path, capsys):
    assert main(["verify-thm3", "--beta", "-0.5", "--out", str(tmp_path)]) == 2
    assert "beta must be < -1" in capsys.readouterr().err
    assert main(["verify-thm2", "--m", "4", "--grid-J", "7", "--out", str(tmp_path)]) == 2
    bad = write_cfg(tmp_path, "grid.J = 8\ngrid.J = 9\n", name="dup.cfg")
    assert main(["estimate", "--config", bad, "--out", str(tmp_path)]) == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_verify_thm3_runs(tmp_path):
    cfg = write_cfg(tmp_path, "grid.J = 8\nweight.u.family = chibump\n")
    out = tmp_path / "t3"
    assert main(["verify-thm3", "--config", cfg, "--out", str(out),
                 "--r", "1", "--delta", "1", "--beta", "-2"]) == 0
    rep = load_report(out / "verify-thm3.json")
    assert rep["theorem"] == "theorem3_r1_d1_b-2"
    assert "weak_orlicz_sup" in rep["extras"]


def test_verify_thm3_does_not_read_the_configured_v(tmp_path):
    # theorem 3 states its own v = |x|^beta, so an unusable weight.v spec
    # must neither fail the run nor change its report
    reports = []
    for v in ("const", "gaussian"):
        cfg = write_cfg(tmp_path, f"grid.J = 8\nweight.u.family = chibump\nweight.v.family = {v}\n",
                        name=f"{v}.cfg")
        out = tmp_path / v
        assert main(["verify-thm3", "--config", cfg, "--out", str(out),
                     "--r", "1", "--delta", "1", "--beta", "-2"]) == 0
        reports.append(load_report(out / "verify-thm3.json"))
    assert reports[0] == reports[1]
    # the two-weight runs do read it
    assert main(["verify-thm1", "--config", str(tmp_path / "gaussian.cfg"),
                 "--out", str(tmp_path / "thm1")]) == 2


def test_seed_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["verify-thm1", "--seed", "3"])
    assert err.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-base", "--m", "3"],
        ["verify-thm1", "--m", "3"],
        ["verify-thm2", "--beta", "-2"],
        ["verify-thm3", "--force"],
        ["estimate", "--margin", "0.3"],
        ["decompose", "--jmax", "3"],
        ["maximal", "--t-max", "5"],
        ["selftest", "--out", "reports"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_flag_the_subcommand_does_not_read_exits_two(tmp_path, capsys, argv):
    # each of these used to run and silently drop the flag; --m is not taken
    # as an abbreviation of --margin either
    if argv[0] != "selftest":
        argv = [*argv, "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def test_decompose_artifacts_match_direct_call(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "dec"
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
    rep = load_report(out / "decompose.json")
    grid = make_grid(8.0, 8)
    f = sample_f(grid, "indicator a=0 b=1")
    v = build_weight(grid, "const")
    result = cz_decompose(f, rep["t"], v)
    assert [(c["j"], c["k"]) for c in rep["cubes"]] == [(q.j, q.k) for q in result.cubes]
    assert rep["passed"] is True
    good = np.frombuffer((out / "decompose_good.f64").read_bytes(), dtype="<f8")
    assert np.array_equal(good, result.g.values)
    sidecar = (out / "decompose_arrays.txt").read_text()
    assert "dtype=float64" in sidecar and f"count={grid.N}" in sidecar


def test_decompose_below_root_average_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "x"),
                 "--t-min", "1e-6"]) == 2
    assert "root" in capsys.readouterr().err


def test_maximal_dump_matches_operator(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "max"
    assert main(["maximal", "--config", cfg, "--out", str(out),
                 "--r", "1", "--delta", "1"]) == 0
    grid = make_grid(8.0, 8)
    f = sample_f(grid, "indicator a=0 b=1")
    v = build_weight(grid, "const")
    want = orlicz_maximal(f * v, LLogL(1, 1))
    got = np.frombuffer((out / "maximal_mphi.f64").read_bytes(), dtype="<f8")
    assert np.array_equal(got, want.values)
    assert len((out / "maximal.csv").read_text().splitlines()) == grid.N + 1


def test_estimate_reports_scanned_constants(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "est"
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
    rep = load_report(out / "estimate.json")
    assert set(rep) == {"A1_u", "A1_v", "A2_v_wrt_u", "fundamental", "bmo_b"}
    grid = make_grid(8.0, 8)
    assert rep["A1_u"]["value"] == estimate_Ap(build_weight(grid, "const"), 1.0) == 1.0
    header = (out / "estimate.csv").read_text().splitlines()[0]
    assert header == "name,value,stable,coarse,fine"
    # every estimate, bmo_b included, pairs grid J with J - 2, even below make_grid's band
    assert main(["estimate", "--config", cfg, "--grid-J", "5", "--out", str(out)]) == 0
    assert main(["estimate", "--config", cfg, "--grid-J", "4", "--out", str(out)]) == 0
    assert load_report(out / "estimate.json")["A1_u"]["refinement_pair"] == [1.0, 1.0]


def test_out_that_is_a_file_exits_two_before_the_run(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("")

    def runner(cfg):
        raise AssertionError("the run started")

    descr, _, reads = cli._COMMANDS["estimate"]
    monkeypatch.setitem(cli._COMMANDS, "estimate", (descr, runner, reads))
    for out in (blocker, blocker / "reports"):
        assert main(["estimate", "--grid-J", "6", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert blocker.read_text() == ""


def test_unwritable_report_exits_two(tmp_path, capsys):
    # the report's own name is taken by a directory: the write fails after the run
    out = tmp_path / "out"
    (out / "estimate.json").mkdir(parents=True)
    assert main(["estimate", "--grid-J", "6", "--out", str(out), "--format", "json"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(out.glob(".*tmp*"))


@pytest.mark.parametrize(
    "subcommand,section",
    [("verify-thm1", "f"), ("estimate", "weight.v"), ("verify-thm1", "b")],
)
def test_unreadable_custom_family_exits_two(tmp_path, capsys, subcommand, section):
    malformed = tmp_path / "malformed.txt"
    malformed.write_text("1.0 2.0\nthree four\n")
    for path in (tmp_path / "absent.txt", malformed):
        # the comment marker drops the configured family after the custom one
        text = BASE_CFG.replace(f"{section}.family = ", f"{section}.family = custom path={path} #")
        cfg = write_cfg(tmp_path, text)
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read custom family") and str(path) in err


@pytest.mark.parametrize(
    "section,family,needle",
    [
        ("weight.v", "power bta=-0.25", "family 'power' has no parameter 'bta'"),
        ("f", "indicator a=0 a=1", "family 'indicator' repeats parameter 'a'"),
        ("b", "log beta=1", "family 'log' has no parameter 'beta'"),
    ],
)
def test_misspelled_or_repeated_family_parameter_exits_two(
    tmp_path, capsys, section, family, needle
):
    # each of these used to run on the family's defaults (v = 1 for the first)
    text = BASE_CFG.replace(f"{section}.family = ", f"{section}.family = {family} #")
    assert main(["verify-thm1", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path)]) == 2
    assert needle in capsys.readouterr().err
    with pytest.raises(ConfigurationError, match="no parameter 'bta'"):
        build_weight(make_grid(8.0, 6), "power bta=-0.5")


def test_custom_files_at_the_fine_resolution_serve_the_coarse_grid(tmp_path, capsys):
    # the J - 2 grid of every refinement pair block-averages the J-grid file,
    # so the fine rows are the formula run's; drift may differ
    grid = make_grid(8.0, 8)
    families = {
        "f": sample_f(grid, "indicator a=0 b=1").values,
        "b": sample_b(grid, "log").values,
        "weight.u": build_weight(grid, "power beta=-0.5").values,
        "weight.v": build_weight(grid, "power beta=-0.25").values,
    }
    formula = BASE_CFG.replace("u.family = const", "u.family = power beta=-0.5")
    formula = formula.replace("v.family = const", "v.family = power beta=-0.25")
    custom = formula
    for section, values in families.items():
        path = tmp_path / f"{section}.txt"
        np.savetxt(path, values)
        custom = custom.replace(f"{section}.family = ", f"{section}.family = custom path={path} #")
    for subcommand in ("verify-thm1", "verify-base", "verify-thm3", "estimate"):
        reports = []
        for name, text in (("formula", formula), ("custom", custom)):
            cfg = write_cfg(tmp_path, text, f"{name}.cfg")
            out = tmp_path / name
            reports.append((main([subcommand, "--config", cfg, "--out", str(out)]),
                            load_report(out / f"{subcommand}.json")))
        (code, rep), (custom_code, custom_rep) = reports
        assert custom_code == code
        if subcommand == "estimate":
            for key, est in rep.items():
                assert custom_rep[key]["refinement_pair"][1] == est["refinement_pair"][1]
        else:
            for column in ("t", "lhs", "rhs", "ratio", "alt"):
                assert custom_rep["rows"][column] == rep["rows"][column]
    # a length that is not N * 2**k still exits 2
    for count in (3 * grid.N, grid.N // 2):
        path = tmp_path / "odd.txt"
        np.savetxt(path, np.ones(count))
        cfg = write_cfg(tmp_path, BASE_CFG.replace("f.family = ", f"f.family = custom path={path} #"))
        assert main(["verify-thm1", "--config", cfg, "--out", str(tmp_path / "odd")]) == 2
        err = capsys.readouterr().err
        assert f"{count} samples do not refine the {grid.N} cells" in err and str(path) in err


def test_every_report_says_how_long_it_ran(tmp_path):
    cfg = write_cfg(tmp_path)
    for subcommand in ("verify-base", "verify-thm1", "verify-thm2", "verify-thm3",
                       "estimate", "decompose", "maximal"):
        out = tmp_path / subcommand
        assert main([subcommand, "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        meta = json.loads((out / f"{subcommand}.json").read_text())["meta"]
        assert meta["runtime_s"] > 0.0
        assert ("stage_s" in meta) == subcommand.startswith("verify-")


def test_invalid_shifts_exit_two_from_flag_and_config(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify-thm1", "--shifts", "2", "--out", str(tmp_path)])
    assert err.value.code == 2
    assert "shifts must be 1 or 3" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, BASE_CFG + "scan.shifts = 2\n")
    assert main(["verify-thm1", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "scan.shifts: cannot parse '2'" in capsys.readouterr().err


# --- strict JSON and the README's command tables ---------------------------

README = Path(__file__).resolve().parents[1] / "README.md"
IO_FLAGS = {"--config", "--out", "--format"}


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


def load_strict(path):
    return json.loads(Path(path).read_text(), parse_constant=_refuse_constant)["report"]


def assert_null_where_non_finite(got, want, where="report"):
    """``got`` (loaded JSON) holds ``want`` with every non-finite float as null."""
    if isinstance(want, float):
        assert got == (want if math.isfinite(want) else None), where
    elif is_dataclass(want):
        as_dict = {f.name: getattr(want, f.name) for f in fields(want)}
        assert_null_where_non_finite(got, as_dict, where)
    elif isinstance(want, dict):
        assert set(got) == set(want), where
        for key in want:
            assert_null_where_non_finite(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_null_where_non_finite(g, w, f"{where}[{i}]")
    else:
        assert got == want, where


def assert_verify_report_holds(out, name, rep):
    """The JSON and CSV reports of ``name`` in ``out`` against the runner's report."""
    body = load_strict(out / f"{name}.json")
    assert_null_where_non_finite(body.pop("rows"), dict(zip(ReportRow._fields, zip(*rep.rows))))
    assert_null_where_non_finite(body, {f.name: getattr(rep, f.name) for f in fields(rep)
                                        if f.name not in ("rows", "stage_s")})
    header, *lines = (out / f"{name}.csv").read_text().splitlines()
    assert header == ",".join(ReportRow._fields) and len(lines) == len(rep.rows)
    for line, row in zip(lines, rep.rows):
        for cell, value in zip(line.split(","), row):
            if value is None or not math.isfinite(value):
                assert cell == ""
            else:
                assert float(cell) == value


def _spy_on_runner(monkeypatch, name, reports):
    runner = cli._RUNNERS[name]

    def spy(cfg):
        reports.append(runner(cfg))
        return reports[-1]

    monkeypatch.setitem(cli._RUNNERS, name, spy)


@pytest.mark.parametrize("argv", [
    ["verify-base"], ["verify-thm1"], ["verify-thm2", "--m", "2"], ["verify-thm3"],
    # rhs overflows at the two lowest heights
    ["verify-thm3", "--delta", "0.5", "--t-min", "1e-320", "--t-max", "1e-300", "--t-steps", "3"],
], ids=" ".join)
def test_every_verify_report_is_strict_json(tmp_path, monkeypatch, argv):
    reports = []
    _spy_on_runner(monkeypatch, argv[0], reports)
    assert main([*argv, "--grid-J", "8", "--out", str(tmp_path)]) in (0, 1)
    assert_verify_report_holds(tmp_path, argv[0], reports[0])
    if "1e-320" in argv:
        assert reports[0].rows[0].rhs == math.inf


def test_a_crafted_report_writes_null_and_empty_cells(tmp_path, monkeypatch, capsys):
    inf, nan = math.inf, math.nan
    rep = InequalityReport(
        theorem="theorem1",
        rows=[ReportRow(inf, inf, nan, 0.0, None), ReportRow(2.0, 0.5, 0.25, 2.0, -inf)],
        sup_ratio=inf, argmax_t=nan,
        preflight={"A1_u": ConstantEstimate(inf, (nan, inf), False),
                   "A1_v": ConstantEstimate(1.5, (1.25, 1.5), True)},
        refinement_pair=(inf, 2.0), j_pair=(6, 8), margin=0.05,
        stage_s={"prepare": 0.0, "fine": 0.0, "coarse": 0.0},
        drift=nan, stable=False, extras={"bmo_norm": inf, "weak_orlicz_sup": 3.0},
    )
    monkeypatch.setitem(cli._RUNNERS, "verify-thm1", lambda cfg: rep)
    assert main(["verify-thm1", "--grid-J", "8", "--out", str(tmp_path)]) == 1
    assert "sup_ratio=inf stable=NO drift=nan" in capsys.readouterr().out
    assert_verify_report_holds(tmp_path, "verify-thm1", rep)
    body = load_strict(tmp_path / "verify-thm1.json")
    assert body["preflight"]["A1_u"] == {"value": None, "refinement_pair": [None, None],
                                         "stable": False}
    assert (tmp_path / "verify-thm1.csv").read_text().splitlines()[1:] == [",,,0,", "2,0.5,0.25,2,"]


@pytest.mark.parametrize("subcommand", ["estimate", "decompose", "maximal"])
def test_every_other_report_is_strict_json(tmp_path, subcommand):
    assert main([subcommand, "--grid-J", "8", "--out", str(tmp_path)]) == 0
    body = load_strict(tmp_path / f"{subcommand}.json")
    header, *lines = (tmp_path / f"{subcommand}.csv").read_text().splitlines()
    cells = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert lines
    for row in cells:
        for cell in row.values():
            try:
                assert math.isfinite(float(cell))
            except ValueError:  # not a number: a name, a verdict or an empty cell
                pass
    if subcommand == "estimate":
        # the two reports hold the same estimates, null and empty in the same places
        for row in cells:
            est = body[row["name"]]
            assert [est["value"], *est["refinement_pair"]] == [
                float(row[k]) if row[k] else None for k in ("value", "coarse", "fine")]


@pytest.mark.parametrize("argv", [
    ["verify-thm1", "--t-min", "5e-324", "--t-max", "1e-300", "--t-steps", "3"],
    ["verify-base", "--t-min", "5e-324", "--t-max", "1e-300", "--t-steps", "3"],
    ["verify-thm3", "--r", "2", "--delta", "1", "--t-min", "1e100", "--t-max", "1e200",
     "--t-steps", "3"],
    ["verify-thm3", "--r", "2", "--delta", "0", "--t-min", "1e100", "--t-max", "1e200",
     "--t-steps", "3"],
], ids=" ".join)
def test_heights_at_the_ends_of_the_float_range_neither_raise_nor_warn(tmp_path, monkeypatch, argv):
    # each of these raised from the sorted right-side kernel (exit 1 with a traceback);
    # theorem 3's left side is 0 at every height of its window, so it gets no verdict
    reports = []
    _spy_on_runner(monkeypatch, argv[0], reports)
    code = main([*argv, "--grid-J", "8", "--out", str(tmp_path)])
    assert code == (1 if argv[0] == "verify-thm3" else 0)
    assert_verify_report_holds(tmp_path, argv[0], reports[0])
    rhs = [row.rhs for row in reports[0].rows]
    # the right side falls with t: inf at the tiniest height, 0 at the hugest
    assert rhs == sorted(rhs, reverse=True)
    assert rhs[0] == math.inf or rhs[-1] == 0.0


def test_a_window_that_measures_nothing_gets_no_verdict(tmp_path, monkeypatch):
    # far above the quotient the left side is 0 at every height while the right side
    # is not: the run read sup_ratio=0 stable=yes drift=0 and exited 0
    reports = []
    _spy_on_runner(monkeypatch, "verify-thm1", reports)
    argv = ["verify-thm1", "--grid-J", "8", "--t-min", "1e6", "--t-max", "1e7", "--t-steps", "3"]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    rep = reports[0]
    assert [row.lhs for row in rep.rows] == [0.0] * 3 and all(row.rhs > 0.0 for row in rep.rows)
    assert (rep.sup_ratio, rep.drift, rep.stable) == (0.0, 0.0, False)
    assert_verify_report_holds(tmp_path, "verify-thm1", rep)


def _readme_table(header):
    """The body rows of the README table whose header line starts with ``header``,
    each a list of its cells."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            return rows
        rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
    return rows


def _ticked(cell):
    return re.findall(r"`([^`]*)`", cell)


def readme_flag_mismatches(parser):
    """Where the README's subcommand/flag table and ``parser`` disagree: each
    row names its subcommands and their flags in the parser's order."""
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    seen, wrong = [], []
    for names, flags in _readme_table("| subcommand |"):
        listed = [flag for tick in _ticked(flags) for flag in tick.split() if flag not in IO_FLAGS]
        for name in _ticked(names):
            seen.append(name)
            taken = [opt for action in subparsers.choices[name]._actions
                     for opt in action.option_strings if opt not in ("-h", "--help")]
            io = set() if flags.startswith("none") else IO_FLAGS
            own = [opt for opt in taken if opt not in IO_FLAGS]
            if own != listed or IO_FLAGS & set(taken) != io:
                wrong.append(name)
    if sorted(seen) != sorted(subparsers.choices):
        wrong.append("the table's subcommands")
    return wrong


def test_readme_flag_table_matches_the_parser():
    assert readme_flag_mismatches(build_parser()) == []


def test_readme_flag_table_check_sees_a_dropped_flag(monkeypatch):
    descr, run, reads = cli._COMMANDS["verify-thm2"]
    monkeypatch.setitem(cli._COMMANDS, "verify-thm2",
                        (descr, run, tuple(r for r in reads if r != "m")))
    assert readme_flag_mismatches(build_parser.__wrapped__()) == ["verify-thm2"]


def test_readme_config_keys_match_the_fields():
    assert set(cli._FIELDS) == {f.name for f in fields(ExperimentConfig)}
    keyed = {key: flag for key, flag, _ in cli._FIELDS.values() if key}
    rows = _readme_table("| config key |")
    listed = {_ticked(key)[0]: (_ticked(flag) or [None])[0] for key, flag, _ in rows if key}
    assert listed == keyed
    # every flag-only field's flag is listed too
    flag_only = {flag for key, flag, _ in cli._FIELDS.values() if not key}
    assert {tick for key, flag, _ in rows if not key for tick in _ticked(flag)} == flag_only
    sections = next(line for line in README.read_text().splitlines()
                    if line.startswith("Sections are"))
    assert set(_ticked(sections)) == {key.rsplit(".", 1)[0] for key in keyed}


def readme_family_mismatches(families):
    """The families of ``families`` that README's "Input families" leaves out or
    spells otherwise: each spec there names the family's parameters in the table's
    order with their defaults, and a parameter without a default reads ``FILE``."""
    section = README.read_text().split("## Input families", 1)[1]
    listed = {}
    for spec in map(str.split, _ticked(section)):
        if spec and spec[0] in families:
            listed.setdefault(spec[0], []).append([tuple(param.split("=", 1)) for param in spec[1:]])
    wrong = sorted(families.keys() - listed.keys())
    for name, specs in listed.items():
        want = [(key, "FILE" if default is None else default)
                for key, default in families[name].params.items()]
        wrong += [name] if any(spec != want for spec in specs) else []
    return wrong


def test_readme_lists_every_family_with_its_parameters():
    assert readme_family_mismatches(_FAMILIES) == []


def test_readme_family_check_sees_a_changed_default():
    cusp = _FAMILIES["cusp"]
    changed = {**_FAMILIES, "cusp": cusp._replace(params={**cusp.params, "gamma": "0.5"})}
    assert readme_family_mismatches(changed) == ["cusp"]

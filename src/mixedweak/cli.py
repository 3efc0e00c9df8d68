"""Command-line front end: config parsing, dispatch, deterministic reports.

The verification subcommands print a one-line summary and write the full
report as JSON and CSV.  Reports are byte-identical across reruns of the
same configuration; wall-clock metadata lives in a separate ``meta`` object
so determinism checks can ignore it.  Files are written to a temporary name
and renamed, so a crash never leaves a truncated report behind.

Exit codes: 0 when the run's acceptance predicate holds, 1 when the run
completed but the predicate failed (or the weight preflight refused), 2 for
configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from ._errors import ConfigurationError, MixedWeakError, PreflightError
from .czd import cz_decompose, validate_decomposition
from .grid import THIRD_SHIFTS, Grid, make_grid, sample
from .maximal import hl_maximal, orlicz_maximal
from .singular import hilbert
from .verify import (
    ExperimentConfig,
    InequalityReport,
    build_weight,
    modular_rhs,
    preflight_weights,
    run_base_sawyer,
    run_theorem1,
    run_theorem2,
    run_theorem3,
    sample_b,
    sample_f,
    theorem3_set_partition,
    weak_lhs,
)
from .weights import ConstantEstimate, Weight, _refined, bmo_norm, estimate_Ap, fundamental_ratio
from .young import Identity, LLogL

__all__ = ["main", "parse_config", "read_config"]

_SECTION_KEYS: dict[str, set[str]] = {
    "grid": {"L", "J"},
    "f": {"family"},
    "b": {"family"},
    "weight.u": {"family"},
    "weight.v": {"family"},
    "sweep": {"t_min", "t_max", "steps"},
    "scan": {"j_max", "shifts"},
}


# --- configuration ---------------------------------------------------------


def _parse_shifts(token: str, where: str) -> tuple[float, ...]:
    if token == "1":
        return (0.0,)
    if token == "3":
        return THIRD_SHIFTS
    raise ConfigurationError(f"{where}: shifts must be 1 or 3, got {token!r}")


def read_config(path: str | os.PathLike[str]) -> dict[tuple[str, str], str]:
    """Parse a "section.key = value" file into raw string entries."""
    entries: dict[tuple[str, str], str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise ConfigurationError(f"{where}: expected 'section.key = value', got {raw!r}")
        target, value = line.split("=", 1)
        target, value = target.strip(), value.strip()
        if "." not in target:
            raise ConfigurationError(f"{where}: key {target!r} has no section prefix")
        section, key = target.rsplit(".", 1)
        if section not in _SECTION_KEYS:
            raise ConfigurationError(f"{where}: unknown section {section!r}")
        if key not in _SECTION_KEYS[section]:
            raise ConfigurationError(f"{where}: unknown key {key!r} in section {section!r}")
        if (section, key) in entries:
            raise ConfigurationError(f"{where}: duplicate key {target}")
        if not value:
            raise ConfigurationError(f"{where}: empty value for {target}")
        entries[(section, key)] = value
    return entries


def _converted(entries: dict[tuple[str, str], str]) -> dict[str, object]:
    out: dict[str, object] = {}

    def number(section: str, key: str, kind, name: str) -> None:
        if (section, key) not in entries:
            return
        token = entries[(section, key)]
        try:
            out[name] = kind(token)
        except ValueError as exc:
            raise ConfigurationError(f"{section}.{key}: cannot parse {token!r}") from exc

    number("grid", "L", float, "L")
    number("grid", "J", int, "J")
    number("sweep", "t_min", float, "t_min")
    number("sweep", "t_max", float, "t_max")
    number("sweep", "steps", int, "steps")
    number("scan", "j_max", int, "j_max")
    for section, name in (("f", "f"), ("b", "b"), ("weight.u", "u"), ("weight.v", "v")):
        if (section, "family") in entries:
            out[name] = entries[(section, "family")]
    if ("scan", "shifts") in entries:
        out["shifts"] = _parse_shifts(entries[("scan", "shifts")], "scan.shifts")
    return out


def parse_config(path: str | None, args: argparse.Namespace) -> ExperimentConfig:
    """Merge config-file entries with flag overrides (flags win)."""
    kwargs = _converted(read_config(path)) if path else {}
    # each flag's dest is the ExperimentConfig field it sets
    for name in ("L", "J", "m", "r", "delta", "beta", "t_min", "t_max", "steps", "j_max", "margin"):
        value = getattr(args, name, None)
        if value is not None:
            kwargs[name] = value
    if getattr(args, "shifts", None) is not None:
        kwargs["shifts"] = _parse_shifts(args.shifts, "--shifts")
    if getattr(args, "force", False):
        kwargs["force"] = True
    return ExperimentConfig(**kwargs)


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH", help="section.key = value config file")
    shared.add_argument("--out", metavar="DIR", default="reports", help="report directory")
    shared.add_argument("--format", choices=("csv", "json", "both"), default="both")
    shared.add_argument("--grid-J", dest="J", type=int, metavar="INT")
    shared.add_argument("--grid-L", dest="L", type=float, metavar="REAL")
    shared.add_argument("--m", type=int, metavar="INT", help="commutator order")
    shared.add_argument("--r", type=float, metavar="REAL", help="Young power exponent")
    shared.add_argument("--delta", type=float, metavar="REAL", help="Young log exponent")
    shared.add_argument("--beta", type=float, metavar="REAL", help="power-weight exponent")
    shared.add_argument("--t-min", dest="t_min", type=float, metavar="REAL")
    shared.add_argument("--t-max", dest="t_max", type=float, metavar="REAL")
    shared.add_argument("--t-steps", dest="steps", type=int, metavar="INT")
    shared.add_argument("--jmax", dest="j_max", type=int, metavar="INT",
                        help="finest scan scale j (0 is the whole domain; default J)")
    shared.add_argument("--shifts", choices=("1", "3"), help="dyadic grids per scan")
    shared.add_argument("--margin", type=float, metavar="REAL")
    shared.add_argument("--force", action="store_true", help="run despite unstable weight constants")

    parser = argparse.ArgumentParser(
        prog="mixedweak",
        description="Numerical verification of mixed weak-type inequalities.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, descr in (
        ("verify-base", "weak (1,1)-type run for the plain transform"),
        ("verify-thm1", "first-order commutator run"),
        ("verify-thm2", "higher-order commutator run (--m 1|2|3)"),
        ("verify-thm3", "Orlicz maximal run against a singular power weight"),
        ("estimate", "weight and symbol constant estimates"),
        ("decompose", "weighted stopping-time decomposition with validation"),
        ("maximal", "dump Orlicz maximal function samples"),
        ("selftest", "run the built-in closed-form corpus"),
    ):
        sub.add_parser(name, parents=[shared], help=descr)
    return parser


# --- deterministic emission ------------------------------------------------


def _clean(value: float | None) -> float | None:
    return value if value is not None and math.isfinite(value) else None


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.17g}"


def _write_atomic(path: Path, data: str | bytes) -> None:
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    if isinstance(data, bytes):
        tmp.write_bytes(data)
    else:
        tmp.write_text(data)
    os.replace(tmp, path)


def _emit(out: Path, stem: str, fmt: str, body: dict, csv_text: str, timing: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if fmt in ("json", "both"):
        payload = {
            "meta": {"created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), **timing},
            "report": body,
        }
        _write_atomic(out / f"{stem}.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if fmt in ("csv", "both"):
        _write_atomic(out / f"{stem}.csv", csv_text)


def _estimate_json(est: ConstantEstimate) -> dict:
    coarse, fine = est.refinement_pair
    return {"value": _clean(est.value), "stable": est.stable,
            "refinement_pair": [_clean(coarse), _clean(fine)]}


def _write_arrays(out: Path, grid: Grid, stem: str, arrays: dict[str, np.ndarray]) -> None:
    """Raw little-endian float64 dumps plus a ``<stem>_arrays.txt`` sidecar naming them."""
    names = [f"{stem}_{name}.f64" for name in arrays]
    for name, values in zip(names, arrays.values()):
        _write_atomic(out / name, values.astype("<f8").tobytes())
    _write_atomic(
        out / f"{stem}_arrays.txt",
        "dtype=float64 byteorder=little\n"
        f"count={grid.N} L={grid.L!r} J={grid.J}\n"
        f"files={','.join(names)}\n",
    )


def _report_body(rep: InequalityReport) -> tuple[dict, str]:
    header = ("t", "lhs", "rhs", "ratio", "alt")
    cells = [(row.t, row.lhs, row.rhs, _clean(row.ratio), _clean(row.alt)) for row in rep.rows]
    body = {
        "theorem": rep.theorem,
        "sup_ratio": _clean(rep.sup_ratio),
        "argmax_t": _clean(rep.argmax_t),
        "refinement_pair": [_clean(rep.refinement_pair[0]), _clean(rep.refinement_pair[1])],
        "drift": _clean(rep.drift),
        "stable": rep.stable,
        "j_pair": list(rep.j_pair),
        "margin": rep.margin,
        "degenerate_symbol": rep.degenerate_symbol,
        "preflight": {name: _estimate_json(est) for name, est in rep.preflight.items()},
        "extras": {name: _clean(value) for name, value in rep.extras.items()},
        "rows": {name: [cell[i] for cell in cells] for i, name in enumerate(header)},
    }
    lines = [",".join(header)] + [",".join(_fmt(c) for c in cell) for cell in cells]
    return body, "\n".join(lines) + "\n"


# --- subcommands -----------------------------------------------------------

_RUNNERS = {
    "verify-base": run_base_sawyer,
    "verify-thm1": run_theorem1,
    "verify-thm2": run_theorem2,
    "verify-thm3": run_theorem3,
}


def _cmd_verify(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    rep = _RUNNERS[args.subcommand](cfg)
    body, csv_text = _report_body(rep)
    timing = {"runtime_s": rep.runtime_s, "stage_s": rep.stage_s}
    _emit(Path(args.out), args.subcommand, args.format, body, csv_text, timing)
    coarse, fine = rep.j_pair
    print(
        f"{rep.theorem}: sup_ratio={rep.sup_ratio:.6g} "
        f"stable={'yes' if rep.stable else 'NO'} drift={rep.drift:.3g} "
        f"J={coarse}->{fine}"
    )
    return 0 if rep.stable else 1


def _cmd_estimate(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    grid, scan = make_grid(cfg.L, cfg.J), cfg.scan()
    u, v = build_weight(grid, cfg.u), build_weight(grid, cfg.v)
    estimates = preflight_weights(u, v, scan)
    estimates["fundamental"] = fundamental_ratio(u, v, scan)
    estimates["bmo_b"] = _refined(grid, lambda g: bmo_norm(sample_b(g, cfg.b), scan))
    body = {name: _estimate_json(est) for name, est in estimates.items()}
    lines = ["name,value,stable,coarse,fine"]
    for name, est in estimates.items():
        c, f = est.refinement_pair
        lines.append(f"{name},{_fmt(_clean(est.value))},{est.stable},{_fmt(_clean(c))},{_fmt(_clean(f))}")
    _emit(Path(args.out), "estimate", args.format, body, "\n".join(lines) + "\n", {"runtime_s": 0.0})
    summary = " ".join(
        f"{name}={est.value:.4g}{'' if est.stable else '(unstable)'}"
        for name, est in estimates.items()
    )
    print(f"estimate: {summary}")
    return 0


def _cmd_decompose(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    grid = make_grid(cfg.L, cfg.J)
    f, v = sample_f(grid, cfg.f), build_weight(grid, cfg.v)
    vmass = float(np.sum(v.values))
    root_avg = float(np.sum(f.values * v.values)) / vmass
    t = cfg.t_min if cfg.t_min is not None else max(2.0 * root_avg, 1e-300)
    result = cz_decompose(f, t, v)
    report = validate_decomposition(result, f, v)
    body = {
        "t": t,
        "doubling_bound": result.doubling_bound,
        "n_cubes": len(result.cubes),
        "cubes": [
            {"j": q.j, "k": q.k, "a": q.a, "b": q.b, "avg": avg}
            for q, avg in zip(result.cubes, result.averages)
        ],
        "checks": [
            {"name": c.name, "passed": c.passed, "slack": _clean(c.slack)}
            for c in report.checks
        ],
        "floor_exceptions": report.floor_exceptions,
        "passed": report.passed,
    }
    lines = ["j,k,a,b,avg"]
    for q, avg in zip(result.cubes, result.averages):
        lines.append(f"{q.j},{q.k},{_fmt(q.a)},{_fmt(q.b)},{_fmt(avg)}")
    out = Path(args.out)
    _emit(out, "decompose", args.format, body, "\n".join(lines) + "\n", {"runtime_s": 0.0})
    _write_arrays(out, grid, "decompose", {"good": result.g.values, "bad": result.bad.values})
    print(
        f"decompose: {len(result.cubes)} cubes at t={t:.6g} "
        f"checks={'pass' if report.passed else 'FAIL'} floor_exceptions={report.floor_exceptions}"
    )
    return 0 if report.passed else 1


def _cmd_maximal(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    grid, scan = make_grid(cfg.L, cfg.J), cfg.scan()
    f, v, u = sample_f(grid, cfg.f), build_weight(grid, cfg.v), build_weight(grid, cfg.u)
    phi = Identity() if (cfg.r, cfg.delta) == (1.0, 0.0) else LLogL(cfg.r, cfg.delta)
    mphi = orlicz_maximal(f * v.fn, phi, scan)
    mu = hl_maximal(u.fn, scan)
    top, top_u = int(np.argmax(mphi.values)), int(np.argmax(mu.values))
    body = {
        "phi": {"r": cfg.r, "delta": cfg.delta},
        "max_mphi": mphi.values[top],
        "argmax_x": grid.centers[top],
        "max_mu": mu.values[top_u],
        "argmax_x_mu": grid.centers[top_u],
    }
    lines = ["x,mphi,mu"]
    for x, a, b in zip(grid.centers, mphi.values, mu.values):
        lines.append(f"{_fmt(x)},{_fmt(a)},{_fmt(b)}")
    out = Path(args.out)
    _emit(out, "maximal", args.format, body, "\n".join(lines) + "\n", {"runtime_s": 0.0})
    _write_arrays(out, grid, "maximal", {"mphi": mphi.values, "mu": mu.values})
    print(f"maximal: max M_phi={body['max_mphi']:.6g} at x={body['argmax_x']:.6g}")
    return 0


def _selftest_corpus() -> list[tuple[str, bool]]:
    grid = make_grid(4.0, 8)
    one = Weight(sample(lambda x: 1.0 + 0.0 * x, grid))
    chi = sample_f(grid, "indicator a=0 b=1")
    even = sample(lambda x: np.exp(-x * x), grid)
    hf = hilbert(even)
    decomposed = cz_decompose(chi + 0.5, 0.75, one)
    checks = [
        ("young identity value", Identity()(2.0) == 2.0),
        ("young llogl at one", float(LLogL(1, 1)(1.0)) == 1.0),
        ("modular closed form",
         abs(modular_rhs(chi, LLogL(1, 1), one, one, 0.5) - 2.0 * (1.0 + math.log(2.0))) < 1e-12),
        ("weak lhs below level", weak_lhs(chi, one, one, 2.0) == 0.0),
        ("constant weight is A1-sharp", estimate_Ap(one, 1.0).value == 1.0),
        ("maximal of constant", bool(np.all(hl_maximal(one.fn).values == 1.0))),
        ("transform of even is odd", bool(np.max(np.abs(hf.values + hf.values[::-1])) < 1e-12)),
        ("decomposition reconstructs",
         bool(np.max(np.abs(decomposed.g.values + decomposed.bad.values
                            - (chi.values + 0.5))) < 1e-12)),
        ("annuli partition", theorem3_set_partition(3.0, 1) == frozenset({"G", "I"})
         and theorem3_set_partition(1.0, 1) == frozenset({"C"})),
    ]
    return checks


def _cmd_selftest(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    del args, cfg
    results = _selftest_corpus()
    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    failed = sum(not ok for _, ok in results)
    print(f"selftest: {len(results) - failed}/{len(results)} passed")
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args)
        if args.subcommand in _RUNNERS:
            return _cmd_verify(args, cfg)
        if args.subcommand == "estimate":
            return _cmd_estimate(args, cfg)
        if args.subcommand == "decompose":
            return _cmd_decompose(args, cfg)
        if args.subcommand == "maximal":
            return _cmd_maximal(args, cfg)
        return _cmd_selftest(args, cfg)
    except PreflightError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except MixedWeakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

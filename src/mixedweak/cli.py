"""Command-line front end: config parsing, dispatch, deterministic reports.

Each config key and each flag sets one ``ExperimentConfig`` field.  Every
subcommand accepts every config key, since one file serves several, but only
the flags of the fields it reads.  Each subcommand returns an ``_Outcome``;
``main`` times it, prints its summary and writes its report as JSON and CSV.
Reports are byte-identical across reruns of the same configuration;
wall-clock metadata lives in a separate ``meta`` object so determinism checks
can ignore it.  Files are written to a temporary name and renamed, so a crash
never leaves a truncated report behind.

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
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from ._errors import ConfigurationError, MixedWeakError, PreflightError
from .czd import cz_decompose, validate_decomposition
from .grid import THIRD_SHIFTS, SampledFunction, make_grid, sample
from .maximal import hl_maximal, orlicz_maximal
from .singular import hilbert
from .verify import (
    ExperimentConfig,
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
from .weights import ConstantEstimate, Weight, bmo_norm, estimate_Ap, fundamental_ratio, refined
from .young import Identity, LLogL

__all__ = ["main", "parse_config", "read_config"]


# --- configuration ---------------------------------------------------------


def _shifts(token: str) -> tuple[float, ...]:
    """The dyadic grids of a scan: ``1`` is the plain grid, ``3`` adds the thirds."""
    if token == "1":
        return (0.0,)
    if token == "3":
        return THIRD_SHIFTS
    raise argparse.ArgumentTypeError(f"shifts must be 1 or 3, got {token!r}")


#: config key -> (the ExperimentConfig field it sets, the parser of its value)
_KEYS: dict[str, tuple[str, Callable[[str], object]]] = {
    "grid.L": ("L", float),
    "grid.J": ("J", int),
    "f.family": ("f", str),
    "b.family": ("b", str),
    "weight.u.family": ("u", str),
    "weight.v.family": ("v", str),
    "sweep.t_min": ("t_min", float),
    "sweep.t_max": ("t_max", float),
    "sweep.steps": ("steps", int),
    "scan.j_max": ("j_max", int),
    "scan.shifts": ("shifts", _shifts),
}
_SECTIONS = {target.rsplit(".", 1)[0] for target in _KEYS}


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
        if section not in _SECTIONS:
            raise ConfigurationError(f"{where}: unknown section {section!r}")
        if target not in _KEYS:
            raise ConfigurationError(f"{where}: unknown key {key!r} in section {section!r}")
        if (section, key) in entries:
            raise ConfigurationError(f"{where}: duplicate key {target}")
        if not value:
            raise ConfigurationError(f"{where}: empty value for {target}")
        entries[(section, key)] = value
    return entries


def parse_config(path: str | None, args: argparse.Namespace) -> ExperimentConfig:
    """Merge config-file entries with flag overrides (flags win)."""
    kwargs: dict[str, object] = {}
    for (section, key), token in (read_config(path) if path else {}).items():
        name, parse = _KEYS[f"{section}.{key}"]
        try:
            kwargs[name] = parse(token)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigurationError(f"{section}.{key}: cannot parse {token!r}") from exc
    # each flag's dest is the ExperimentConfig field it sets
    for fld in fields(ExperimentConfig):
        value = getattr(args, fld.name, None)
        if value is not None:
            kwargs[fld.name] = value
    return ExperimentConfig(**kwargs)


def build_parser() -> argparse.ArgumentParser:
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--config", metavar="PATH", help="section.key = value config file")
    io.add_argument("--out", metavar="DIR", default="reports", help="report directory")
    io.add_argument("--format", choices=("csv", "json", "both"), default="both")

    parser = argparse.ArgumentParser(
        prog="mixedweak",
        description="Numerical verification of mixed weak-type inequalities.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (descr, _, reads) in _COMMANDS.items():
        # no abbreviations: --m must not stand for --margin where --m is not taken
        cmd = sub.add_parser(name, parents=[io] if reads else [], help=descr, allow_abbrev=False)
        for dest, (flag, spec) in _FLAGS.items():
            if dest in reads:
                cmd.add_argument(flag, dest=dest, **spec)
    return parser


# --- deterministic emission ------------------------------------------------


@dataclass(frozen=True)
class _Outcome:
    """What a subcommand hands to ``main``: its summary and exit code, and the
    report that ``_emit`` writes (none when ``body`` is None)."""

    summary: str
    code: int
    body: dict | None = None
    header: tuple[str, ...] = ()
    rows: list[tuple] = field(default_factory=list)
    arrays: dict[str, SampledFunction] = field(default_factory=dict)
    timing: dict[str, object] = field(default_factory=dict)


def _clean(value: float | None) -> float | None:
    return value if value is not None and math.isfinite(value) else None


def _cell(value: object) -> str:
    """One CSV cell: empty for None, round-trip digits for a float, else ``str``."""
    if isinstance(value, float):
        return f"{value:.17g}"
    return "" if value is None else str(value)


def _write_atomic(path: Path, data: str | bytes) -> None:
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    if isinstance(data, bytes):
        tmp.write_bytes(data)
    else:
        tmp.write_text(data)
    os.replace(tmp, path)


def _emit(out: Path, stem: str, fmt: str, result: _Outcome, runtime_s: float) -> None:
    """Write ``<stem>.json`` and/or ``<stem>.csv``, and the raw little-endian
    float64 dumps with a ``<stem>_arrays.txt`` sidecar naming them."""
    out.mkdir(parents=True, exist_ok=True)
    if fmt in ("json", "both"):
        meta = {"created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "runtime_s": runtime_s, **result.timing}
        payload = {"meta": meta, "report": result.body}
        _write_atomic(out / f"{stem}.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if fmt in ("csv", "both"):
        lines = [",".join(result.header)] + [",".join(map(_cell, row)) for row in result.rows]
        _write_atomic(out / f"{stem}.csv", "\n".join(lines) + "\n")
    if result.arrays:
        names = [f"{stem}_{name}.f64" for name in result.arrays]
        for name, fn in zip(names, result.arrays.values()):
            _write_atomic(out / name, fn.values.astype("<f8").tobytes())
        grid = next(iter(result.arrays.values())).grid
        _write_atomic(
            out / f"{stem}_arrays.txt",
            "dtype=float64 byteorder=little\n"
            f"count={grid.N} L={grid.L!r} J={grid.J}\n"
            f"files={','.join(names)}\n",
        )


def _estimate_json(est: ConstantEstimate) -> dict:
    return {"value": _clean(est.value), "stable": est.stable,
            "refinement_pair": list(map(_clean, est.refinement_pair))}


# --- subcommands -----------------------------------------------------------

_RUNNERS = {
    "verify-base": run_base_sawyer,
    "verify-thm1": run_theorem1,
    "verify-thm2": run_theorem2,
    "verify-thm3": run_theorem3,
}


def _cmd_verify(name: str, cfg: ExperimentConfig) -> _Outcome:
    # looked up at call time: the benchmark's tracer replaces the table's entries
    rep = _RUNNERS[name](cfg)
    header = ("t", "lhs", "rhs", "ratio", "alt")
    rows = [(row.t, row.lhs, row.rhs, _clean(row.ratio), _clean(row.alt)) for row in rep.rows]
    body = {
        "theorem": rep.theorem,
        "sup_ratio": _clean(rep.sup_ratio),
        "argmax_t": _clean(rep.argmax_t),
        "refinement_pair": list(map(_clean, rep.refinement_pair)),
        "drift": _clean(rep.drift),
        "stable": rep.stable,
        "j_pair": list(rep.j_pair),
        "margin": rep.margin,
        "degenerate_symbol": rep.degenerate_symbol,
        "preflight": {key: _estimate_json(est) for key, est in rep.preflight.items()},
        "extras": {key: _clean(value) for key, value in rep.extras.items()},
        "rows": {col: [row[i] for row in rows] for i, col in enumerate(header)},
    }
    summary = (
        f"{rep.theorem}: sup_ratio={rep.sup_ratio:.6g} "
        f"stable={'yes' if rep.stable else 'NO'} drift={rep.drift:.3g} "
        f"J={rep.j_pair[0]}->{rep.j_pair[1]}"
    )
    return _Outcome(summary, 0 if rep.stable else 1, body, header, rows,
                    timing={"stage_s": rep.stage_s})


def _cmd_estimate(cfg: ExperimentConfig) -> _Outcome:
    grid, scan = make_grid(cfg.L, cfg.J), cfg.scan()
    fine, coarse = (
        SimpleNamespace(u=build_weight(g, cfg.u), v=build_weight(g, cfg.v), b=sample_b(g, cfg.b),
                        scan=scan)
        for g in (grid, grid.coarsened())
    )
    estimates = preflight_weights(fine, coarse)
    estimates["fundamental"] = refined(fundamental_ratio(coarse.u, coarse.v, scan),
                                       fundamental_ratio(fine.u, fine.v, scan))
    estimates["bmo_b"] = refined(bmo_norm(coarse.b, scan), bmo_norm(fine.b, scan))
    rows = [(name, _clean(est.value), est.stable, *map(_clean, est.refinement_pair))
            for name, est in estimates.items()]
    summary = " ".join(
        f"{name}={est.value:.4g}{'' if est.stable else '(unstable)'}"
        for name, est in estimates.items()
    )
    body = {name: _estimate_json(est) for name, est in estimates.items()}
    return _Outcome(f"estimate: {summary}", 0, body, ("name", "value", "stable", "coarse", "fine"),
                    rows)


def _cmd_decompose(cfg: ExperimentConfig) -> _Outcome:
    grid = make_grid(cfg.L, cfg.J)
    f, v = sample_f(grid, cfg.f), build_weight(grid, cfg.v)
    vmass = float(np.sum(v.values))
    root_avg = float(np.sum(f.values * v.values)) / vmass
    t = cfg.t_min if cfg.t_min is not None else max(2.0 * root_avg, 1e-300)
    result = cz_decompose(f, t, v)
    report = validate_decomposition(result, f, v)
    header = ("j", "k", "a", "b", "avg")
    rows = [(q.j, q.k, q.a, q.b, avg) for q, avg in zip(result.cubes, result.averages)]
    body = {
        "t": t,
        "doubling_bound": result.doubling_bound,
        "n_cubes": len(rows),
        "cubes": [dict(zip(header, row)) for row in rows],
        "checks": [
            {"name": c.name, "passed": c.passed, "slack": _clean(c.slack)}
            for c in report.checks
        ],
        "floor_exceptions": report.floor_exceptions,
        "passed": report.passed,
    }
    summary = (
        f"decompose: {len(rows)} cubes at t={t:.6g} "
        f"checks={'pass' if report.passed else 'FAIL'} floor_exceptions={report.floor_exceptions}"
    )
    return _Outcome(summary, 0 if report.passed else 1, body, header, rows,
                    {"good": result.g, "bad": result.bad})


def _cmd_maximal(cfg: ExperimentConfig) -> _Outcome:
    grid, scan = make_grid(cfg.L, cfg.J), cfg.scan()
    f, v, u = sample_f(grid, cfg.f), build_weight(grid, cfg.v), build_weight(grid, cfg.u)
    mphi = orlicz_maximal(f * v.fn, LLogL(cfg.r, cfg.delta), scan)
    mu = hl_maximal(u.fn, scan)
    top, top_u = int(np.argmax(mphi.values)), int(np.argmax(mu.values))
    body = {
        "phi": {"r": cfg.r, "delta": cfg.delta},
        "max_mphi": mphi.values[top],
        "argmax_x": grid.centers[top],
        "max_mu": mu.values[top_u],
        "argmax_x_mu": grid.centers[top_u],
    }
    rows = list(zip(grid.centers, mphi.values, mu.values))
    summary = f"maximal: max M_phi={body['max_mphi']:.6g} at x={body['argmax_x']:.6g}"
    return _Outcome(summary, 0, body, ("x", "mphi", "mu"), rows, {"mphi": mphi, "mu": mu})


def _cmd_selftest(cfg: ExperimentConfig) -> _Outcome:
    """The built-in closed-form corpus; it reads nothing from ``cfg``."""
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
        ("constant weight is A1-sharp", estimate_Ap(one, 1.0) == 1.0),
        ("maximal of constant", bool(np.all(hl_maximal(one.fn).values == 1.0))),
        ("transform of even is odd", bool(np.max(np.abs(hf.values + hf.values[::-1])) < 1e-12)),
        ("decomposition reconstructs",
         bool(np.max(np.abs(decomposed.g.values + decomposed.bad.values
                            - (chi.values + 0.5))) < 1e-12)),
        ("annuli partition", theorem3_set_partition(3.0, 1) == frozenset({"G", "I"})
         and theorem3_set_partition(1.0, 1) == frozenset({"C"})),
    ]
    failed = sum(not ok for _, ok in checks)
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in checks]
    lines.append(f"selftest: {len(checks) - failed}/{len(checks)} passed")
    return _Outcome("\n".join(lines), 0 if failed == 0 else 1)


#: ExperimentConfig field -> (the flag that sets it, its argparse keywords)
_FLAGS: dict[str, tuple[str, dict]] = {
    "J": ("--grid-J", dict(type=int, metavar="INT")),
    "L": ("--grid-L", dict(type=float, metavar="REAL")),
    "m": ("--m", dict(type=int, metavar="INT", help="commutator order")),
    "r": ("--r", dict(type=float, metavar="REAL", help="Young power exponent")),
    "delta": ("--delta", dict(type=float, metavar="REAL", help="Young log exponent")),
    "beta": ("--beta", dict(type=float, metavar="REAL", help="power-weight exponent")),
    "t_min": ("--t-min", dict(type=float, metavar="REAL",
                              help="lowest sweep height; for decompose, the stopping height "
                                   "(default twice the v-average of f over [-L, L])")),
    "t_max": ("--t-max", dict(type=float, metavar="REAL")),
    "steps": ("--t-steps", dict(type=int, metavar="INT")),
    "j_max": ("--jmax", dict(type=int, metavar="INT",
                             help="finest scan scale j (0 is the whole domain; default J)")),
    "shifts": ("--shifts", dict(type=_shifts, metavar="{1,3}", help="dyadic grids per scan")),
    "margin": ("--margin", dict(type=float, metavar="REAL")),
    "force": ("--force", dict(action="store_true", help="run despite unstable weight constants")),
}
_GRID, _SCAN = ("J", "L"), ("j_max", "shifts")
_SWEEP = (*_GRID, "t_min", "t_max", "steps", *_SCAN, "margin")

#: subcommand -> (help line, command, the fields its flags set); a subcommand
#: that reads any field also takes --config, --out and --format
_COMMANDS: dict[str, tuple[str, Callable[[ExperimentConfig], _Outcome], tuple[str, ...]]] = {
    "verify-base": ("weak (1,1)-type run for the plain transform",
                    partial(_cmd_verify, "verify-base"), (*_SWEEP, "force")),
    "verify-thm1": ("first-order commutator run", partial(_cmd_verify, "verify-thm1"),
                    (*_SWEEP, "force")),
    "verify-thm2": ("higher-order commutator run (--m 1|2|3)", partial(_cmd_verify, "verify-thm2"),
                    (*_SWEEP, "m", "force")),
    "verify-thm3": ("Orlicz maximal run against a singular power weight",
                    partial(_cmd_verify, "verify-thm3"), (*_SWEEP, "r", "delta", "beta")),
    "estimate": ("weight and symbol constant estimates", _cmd_estimate, (*_GRID, *_SCAN)),
    "decompose": ("weighted stopping-time decomposition with validation", _cmd_decompose,
                  (*_GRID, "t_min")),
    "maximal": ("dump Orlicz maximal function samples", _cmd_maximal,
                (*_GRID, "r", "delta", *_SCAN)),
    "selftest": ("run the built-in closed-form corpus", _cmd_selftest, ()),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(getattr(args, "config", None), args)
        started = time.perf_counter()
        result = _COMMANDS[args.subcommand][1](cfg)
        runtime_s = time.perf_counter() - started
    except PreflightError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except MixedWeakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result.body is not None:
        _emit(Path(args.out), args.subcommand, args.format, result, runtime_s)
    print(result.summary)
    return result.code


if __name__ == "__main__":
    sys.exit(main())

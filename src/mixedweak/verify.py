"""End-to-end harness: both sides of each weak-type inequality over t sweeps.

Every inequality has one shape: a weighted measure of a superlevel set,
``uv({|T(fv)/v| > t})`` (``uw({M_Phi(fv)/v > t})`` for the maximal theorem),
on the left, and a modular integral, ``int phi(|f|/t) density``, on the
right.  A run is two calls.  ``prepare`` samples everything but f on grid J
and on ``Grid.coarsened()``: the weights, the left side's density, the
normalized symbol of theorems 1-2, and the weight-hypothesis preflight, which
pairs each constant's estimates on the two grids.  ``evaluate`` samples f on
both grids and measures both sides on a log-spaced sweep of heights t through
the height kernels ``grid.superlevel_mass`` and ``grid.modular_mass``; one
prepared pair serves any number of f.  The report carries the sup of the
ratio and the same sup on the coarse grid.  The constants in the inequalities
are never hard-coded: refinement stability of the sup-ratio is the acceptance
signal, carried as the report's drift and verdict.  ``evaluate`` refuses a
pair whose estimated constants are unstable (the run would measure noise),
unless forced: forcing is exactly how the negative controls demonstrate that
the harness can tell a failed hypothesis from a satisfied one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from ._errors import (
    ConfigurationError,
    DomainError,
    GridMismatchError,
    HypothesisError,
    PreflightError,
)
from .grid import THIRD_SHIFTS, DyadicScan, Grid, SampledFunction, block_average, make_grid, sample
from .grid import modular_mass, superlevel_mass
from .maximal import hl_maximal, orlicz_maximal
from .singular import commutator, hilbert
from .weights import STABILITY_BAR, ConstantEstimate, Weight, bmo_norm, estimate_Ap
from .weights import estimate_Ap_u, power_weight, refined
from .young import Identity, LLogL, YoungFunction, _require_convex

__all__ = [
    "STABILITY_BAR",
    "ExperimentConfig",
    "InequalityReport",
    "ReportRow",
    "parse_family",
    "sample_f",
    "sample_b",
    "build_weight",
    "preflight_weights",
    "prepare",
    "evaluate",
    "run_base_sawyer",
    "run_theorem1",
    "run_theorem2",
    "run_theorem3",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a verification run needs, with desk-scale defaults."""

    L: float = 8.0
    J: int = 10
    f: str = "indicator a=0 b=1"
    b: str = "log"
    u: str = "power beta=-0.5"
    v: str = "power beta=-0.25"
    m: int = 1
    r: float = 1.0
    delta: float = 1.0
    beta: float = -2.0
    t_min: float | None = None
    t_max: float | None = None
    steps: int = 33
    j_max: int | None = None
    shifts: tuple[float, ...] = THIRD_SHIFTS
    margin: float = 0.05
    force: bool = False

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ConfigurationError(f"sweep needs at least one step, got {self.steps}")
        if not (0.0 <= self.margin < 0.5):
            raise ConfigurationError(f"margin must lie in [0, 0.5), got {self.margin}")
        for name in ("t_min", "t_max"):
            val = getattr(self, name)
            if val is not None and not (val > 0.0 and math.isfinite(val)):
                raise ConfigurationError(f"{name} must be positive and finite, got {val}")
        if self.t_min is not None and self.t_max is not None and self.t_min > self.t_max:
            raise ConfigurationError("t_min must not exceed t_max")

    def scan(self) -> DyadicScan:
        return DyadicScan(j_max=self.j_max, shifts=self.shifts)


class ReportRow(NamedTuple):
    t: float
    lhs: float
    rhs: float
    ratio: float
    alt: float | None


@dataclass(frozen=True)
class InequalityReport:
    theorem: str
    rows: list[ReportRow]
    sup_ratio: float
    argmax_t: float
    preflight: dict[str, ConstantEstimate]
    refinement_pair: tuple[float, float]
    j_pair: tuple[int, int]
    margin: float
    stage_s: dict[str, float]
    drift: float
    stable: bool
    extras: dict[str, float]


# --- family grammar -------------------------------------------------------


class _Family(NamedTuple):
    inputs: tuple[str, ...]  # the inputs that may name it: "f", "b", "weight"
    params: dict[str, str | None]  # each parameter's default (path has none), in reading order
    expr: Callable[[np.ndarray, dict], object] | None  # the samples at x, given the parameters


_FAMILIES: dict[str, _Family] = {
    "indicator": _Family(("f",), {"a": "0", "b": "1", "height": "1"},
                         lambda x, p: np.where(p["inside"], p["height"], 0.0)),
    "bumps": _Family(("f",), {"centers": "1.5,-2.0", "width": "8"},
                     lambda x, p: sum(np.exp(-p["width"] * (x - c) ** 2) for c in p["centers"])),
    "cusp": _Family(("f",), {"gamma": "0.25", "a": "0", "b": "1"},
                    lambda x, p: np.where(p["inside"], np.abs(x) ** -p["gamma"], 0.0)),
    "zero": _Family(("f",), {}, lambda x, p: 0.0),
    "log": _Family(("b",), {}, lambda x, p: np.log(np.abs(x))),
    # log of the distance to the nearest integer: BMO with a singularity
    # in every unit cell; never -inf because centers avoid the lattice
    "sawtoothlog": _Family(("b",), {}, lambda x, p: np.log(np.abs(x - np.round(x)))),
    "power": _Family(("weight",), {"beta": "0"}, None),  # built by power_weight
    "const": _Family(("b", "weight"), {"value": "1"}, lambda x, p: p["value"] + 0.0 * x),
    "chibump": _Family(("weight",), {"a": "-1", "b": "1", "floor": "1e-3"},
                       lambda x, p: p["floor"] + np.where(p["inside"], 1.0, 0.0)),
    "custom": _Family(("f", "b", "weight"), {"path": None}, None),  # read from the file
}


def parse_family(spec: str) -> tuple[str, dict[str, str]]:
    """Split "name key=value ..." into the name and its raw parameters.

    A key the named family does not take, or a key given twice, is refused;
    an unknown name is left to the caller, which knows the family's kind.
    """
    parts = spec.split()
    if not parts:
        raise ConfigurationError("empty family specification")
    name, family = parts[0], _FAMILIES.get(parts[0])
    params: dict[str, str] = {}
    for token in parts[1:]:
        if "=" not in token:
            raise ConfigurationError(f"family parameter {token!r} is not key=value")
        key, value = token.split("=", 1)
        if key in params:
            raise ConfigurationError(f"family {name!r} repeats parameter {key!r}")
        if family is not None and key not in family.params:
            takes = ", ".join(family.params) or "no parameters"
            raise ConfigurationError(f"family {name!r} has no parameter {key!r} (takes {takes})")
        params[key] = value
    return name, params


def _load_values(grid: Grid, path: str | None) -> np.ndarray:
    """The samples of a ``custom path=FILE`` family on ``grid``.

    A file of ``grid.N * 2**k`` samples is block-averaged onto the grid, so
    one file written at the fine resolution serves the coarse grid of the
    refinement comparison too.
    """
    if path is None:
        raise ConfigurationError("custom family needs path=FILE")
    try:
        vals = np.loadtxt(path, dtype=np.float64).reshape(-1)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read custom family {path}: {exc}") from exc
    try:
        return block_average(vals, grid)
    except GridMismatchError as exc:
        raise ConfigurationError(f"custom family {path}: {exc}") from exc


def _sample(grid: Grid, kind: str, spec: str, cls: type) -> SampledFunction:
    """The ``cls`` samples on ``grid`` of the family ``spec`` names for the input ``kind``;
    each parameter, given or default, is read in the table's order, and an
    interval family's [a, b] is checked as soon as b is read."""
    # the family's name and input first, so that a family the input does not
    # take is named as such rather than by a parameter it lacks
    parts = spec.split(maxsplit=1)
    family = _FAMILIES.get(parts[0]) if parts else None
    if parts and (family is None or kind not in family.inputs):
        takes = ", ".join(n for n, fam in _FAMILIES.items() if kind in fam.inputs)
        raise ConfigurationError(f"unknown {kind} family {parts[0]!r} (takes {takes})")
    name, given = parse_family(spec)
    if name == "custom":
        return cls(grid, _load_values(grid, given.get("path")))
    p: dict = {}
    for key, default in family.params.items():
        text = given.get(key, default)
        try:
            vals = [float(tok) for tok in text.split(",")]
        except ValueError as exc:
            raise ConfigurationError(f"cannot parse {key}={text!r}") from exc
        if key != "centers" and len(vals) != 1:
            raise ConfigurationError(f"{key} takes a single value, got {vals}")
        p[key] = vals if key == "centers" else vals[0]
        if key == "b":  # an interval family: the cells whose centers lie in [a, b]
            lo, hi = p["a"], p["b"]
            if not lo < hi:
                raise ConfigurationError(f"family {name!r} needs a < b, got a={lo!r} b={hi!r}")
            p["inside"] = (grid.centers >= lo) & (grid.centers <= hi)
            if not p["inside"].any():  # the family would read 0 (f) or its floor (u)
                raise ConfigurationError(f"family {name!r} has no cell center in "
                                         f"[{lo!r}, {hi!r}] at J={grid.J}")
    if name == "power":
        return power_weight(grid, p["beta"])
    if name == "cusp" and p["gamma"] >= 1.0:
        raise ConfigurationError(f"cusp exponent must be < 1 for integrability, got {p['gamma']}")
    if name == "chibump" and p["floor"] <= 0.0:
        raise ConfigurationError("chibump floor must be positive (weights are positive)")
    return sample(lambda x: family.expr(x, p), grid, cls)


def sample_f(grid: Grid, spec: str) -> SampledFunction:
    """The input function f of ``spec``, a family of ``_FAMILIES`` that f may name."""
    return _sample(grid, "f", spec, SampledFunction)


def sample_b(grid: Grid, spec: str) -> SampledFunction:
    """The BMO symbol b of ``spec``, a family of ``_FAMILIES`` that b may name."""
    return _sample(grid, "b", spec, SampledFunction)


def build_weight(grid: Grid, spec: str) -> Weight:
    """The weight (u or v) of ``spec``, a family of ``_FAMILIES`` that weights may name."""
    return _sample(grid, "weight", spec, Weight)


# --- inequality sides -----------------------------------------------------


def _ratio(lhs: float, rhs: float) -> float:
    if rhs > 0.0:
        return lhs / rhs
    return 0.0 if lhs == 0.0 else math.inf


def _sweep(cfg: ExperimentConfig, signal: np.ndarray, top: float | None = None) -> np.ndarray:
    """Heights t: the configured window, else two decades around the median of
    ``signal >= 0`` (the upper end is ``top`` instead when that lies above the
    lower end).  A missing end filled in past the given one is refused."""
    t_min, t_max = cfg.t_min, cfg.t_max
    if t_min is None or t_max is None:
        # the relative floor keeps subnormal far tails (smooth bumps never
        # hit exact zero) from dragging the sweep window off to nowhere
        sig = signal[signal > 1e-12 * float(np.max(signal, initial=0.0))]
        center = float(np.median(sig)) if sig.size else 1.0
        t_min = center * 1e-2 if t_min is None else t_min
        if t_max is None:
            t_max = top if top is not None and top > t_min else center * 1e2
        if t_min > t_max:
            raise ConfigurationError(f"t_min must not exceed t_max, got the window "
                                     f"[{t_min:.6g}, {t_max:.6g}]")
    return np.geomspace(t_min, t_max, cfg.steps)  # one step gives [t_min] exactly


@dataclass(frozen=True)
class Resolution:
    """One grid of a prepared pair: everything a run reads there but f."""

    grid: Grid
    scan: DyadicScan
    u: Weight
    v: Weight  # |x|^beta for theorem 3
    density: np.ndarray  # the left side's: u v, or u w for theorem 3
    interior: np.ndarray  # the cells inside the margin, where the left side is measured
    b: SampledFunction | None  # theorems 1-2: the symbol, over its BMO norm when that is > 0
    bmo_norm: float | None


@dataclass(frozen=True)
class PreparedPair:
    """A run's configuration on grid J (``fine``) and its coarsening J - 2
    (``coarse``), everything but f: ``prepare`` builds it, ``evaluate`` reads it."""

    kind: str
    theorem: str
    cfg: ExperimentConfig
    phi: YoungFunction
    fine: Resolution
    coarse: Resolution
    preflight: dict[str, ConstantEstimate]
    prepare_s: float


def _sides(
    res: Resolution, phi: YoungFunction, ts: np.ndarray, quotient: np.ndarray,
    signal: np.ndarray, rhs_density: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(lhs, rhs)``: both sides of one inequality on one grid at the heights ``ts``.

    The left side is the ``res.density`` measure of the interior part of
    ``{quotient > t}``, the right side ``int phi(signal / t) rhs_density``.
    """
    lhs = superlevel_mass(res.grid.h, quotient[res.interior], res.density[res.interior], ts)
    rhs = modular_mass(res.grid.h, signal, phi, rhs_density, ts)
    # a constant symbol (norm 0) scales the right side by ||b||^m = 0
    return lhs, 0.0 * rhs if res.bmo_norm == 0.0 else rhs


def preflight_weights(fine: Resolution, coarse: Resolution) -> dict[str, ConstantEstimate]:
    """The membership estimates the two-weight theorems hypothesize: u's A1
    constant, and v's A1 and A2(u) constants.

    ``fine`` and ``coarse`` carry ``u``, ``v`` and ``scan`` on a grid and on
    its ``coarsened()`` grid; each estimate pairs a constant's value on the two.
    """
    constants = {
        "A1_u": lambda i: estimate_Ap(i.u, 1.0, i.scan),
        "A1_v": lambda i: estimate_Ap(i.v, 1.0, i.scan),
        "A2_v_wrt_u": lambda i: estimate_Ap_u(i.v, i.u, 2.0, i.scan),
    }
    return {name: refined(at(coarse), at(fine)) for name, at in constants.items()}


def _require_hypotheses(estimates: dict[str, ConstantEstimate], force: bool) -> None:
    # a pair without estimates (theorem 3) hypothesizes nothing of its weights
    if force or not estimates or estimates["A1_u"].stable and (
        estimates["A1_v"].stable or estimates["A2_v_wrt_u"].stable
    ):
        return
    shown = ", ".join(
        f"{name}={est.value:.4g} ({'stable' if est.stable else 'unstable'})"
        for name, est in estimates.items()
    )
    raise PreflightError(
        f"weight hypotheses not met: {shown}; pass force to run a negative control",
        estimates=estimates,
    )


def _resolution(cfg: ExperimentConfig, kind: str, phi: YoungFunction, grid: Grid) -> Resolution:
    scan, u = cfg.scan(), build_weight(grid, cfg.u)
    if kind == "maximal":
        # theorem 3 is stated for (v, w) = (|x|^beta, 1/Phi(1/v)); for Phi = Identity
        # w shares v's samples exactly rather than round-tripping through 1/(1/v)
        v = power_weight(grid, cfg.beta)
        w = v if cfg.r == 1.0 and cfg.delta == 0.0 else Weight(grid, 1.0 / phi(1.0 / v.values))
    else:
        v = w = build_weight(grid, cfg.v)
    b = norm = None
    if kind == "commutator":
        b = sample_b(grid, cfg.b)
        norm = bmo_norm(b, scan)
        if norm > 0.0:
            # normalize the symbol per resolution so ||b||^m drops out as 1
            b = SampledFunction(grid, b.values / norm)
    return Resolution(grid, scan, u, v, u.values * w.values, grid.interior_mask(cfg.margin), b, norm)


def prepare(cfg: ExperimentConfig, kind: str) -> PreparedPair:
    """Build grid J and its coarsening J - 2 with everything of ``cfg`` but f.

    ``kind`` names the operator: "base" the plain transform, "commutator" the
    order-``cfg.m`` commutator against Phi_m, "maximal" (theorem 3) M_Phi with
    Phi = LLogL(r, delta) against v = |x|^beta.  The first two estimate the
    weight constants their theorems hypothesize on both grids; theorem 3
    takes any positive u (the maximal function of u on the right absorbs
    it), so its pair estimates nothing and never reads the configured v.
    """
    started = time.perf_counter()
    if kind == "maximal":
        if cfg.beta >= -1.0:
            raise HypothesisError(f"beta must be < -1 for the singular power weight, got {cfg.beta}")
        theorem, phi = f"theorem3_r{cfg.r:g}_d{cfg.delta:g}_b{cfg.beta:g}", LLogL(cfg.r, cfg.delta)
        _require_convex(phi)  # before any grid is built, as orlicz_maximal would refuse it
    elif kind == "commutator":
        if cfg.m not in (1, 2, 3):
            raise DomainError(f"commutator order must be 1, 2, or 3, got {cfg.m}")
        theorem, phi = "theorem1" if cfg.m == 1 else f"theorem2_m{cfg.m}", LLogL(1.0, float(cfg.m))
    elif kind == "base":
        theorem, phi = "base_sawyer", Identity()
    else:
        raise ConfigurationError(f"kind must be 'base', 'commutator' or 'maximal', got {kind!r}")
    if cfg.J - 2 < 4:
        raise ConfigurationError(
            f"refinement comparison needs J >= 6 so the coarse grid stays valid, got J={cfg.J}"
        )
    grid = make_grid(cfg.L, cfg.J)
    fine, coarse = (_resolution(cfg, kind, phi, g) for g in (grid, grid.coarsened()))
    estimates = {} if kind == "maximal" else preflight_weights(fine, coarse)
    return PreparedPair(kind, theorem, cfg, phi, fine, coarse, estimates,
                        time.perf_counter() - started)


def _operands(pair: PreparedPair, res: Resolution, f: SampledFunction):
    """``(quotient, signal, rhs_density)`` of f on one grid of the pair, as ``_sides`` reads them."""
    fv = f * res.v
    if pair.kind != "maximal":
        tout = hilbert(fv) if res.b is None else commutator(res.b, fv, pair.cfg.m)
        return np.abs(tout.values / res.v.values), np.abs(f.values), res.density
    quotient = orlicz_maximal(fv, pair.phi, res.scan).values / res.v.values
    # the right side reads Mu only where fv != 0
    nz = np.flatnonzero(fv.values)
    span = (int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 0)
    return quotient, np.abs(fv.values), hl_maximal(res.u, res.scan, cells=span).values


def evaluate(pair: PreparedPair, f: str) -> InequalityReport:
    """Measure the input family ``f`` on a prepared pair.

    f is sampled on both grids first, so a malformed f is named even where
    the pair's weight hypotheses fail; those are then refused unless the
    pair's configuration is forced.  The fine sweep picks the heights and
    the coarse sweep reuses them.  ``stage_s`` times the pair's preparation,
    f's samples with the fine sweep, and the coarse sweep.
    """
    started = time.perf_counter()
    cfg, phi, fine, coarse = pair.cfg, pair.phi, pair.fine, pair.coarse
    f_fine, f_coarse = sample_f(fine.grid, f), sample_f(coarse.grid, f)
    _require_hypotheses(pair.preflight, cfg.force)
    maximal = pair.kind == "maximal"
    quotient, signal, density = _operands(pair, fine, f_fine)
    # theorem 3 is normalized by f*v on both sides, and for the hypothesized
    # non-integrable v the interesting heights reach the resolution-limited
    # top of the quotient, so its default window is anchored at fv's median
    # and closed off at twice the interior top, where level sets empty out
    ts = _sweep(cfg, signal, 2.0 * float(np.max(quotient[fine.interior], initial=0.0))
                if maximal else None)
    lhs, rhs = _sides(fine, phi, ts, quotient, signal, density)
    alt, extras = [None] * ts.size, {} if fine.bmo_norm is None else {"bmo_norm": fine.bmo_norm}
    if maximal:
        # the height 1 gives the weak-Orlicz right side int phi(|fv|) Mu, the same
        # float it would be among the sweep's heights, as no height reads another
        rhs0 = float(modular_mass(fine.grid.h, signal, phi, density, 1.0))
        # 1 / t or phi(1 / t) past the float range: alt is 0 or inf, and 0 where lhs is 0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            alt = np.where(lhs > 0.0, 1.0 / phi(1.0 / ts) * lhs, 0.0).tolist()
        extras = {"weak_orlicz_rhs": rhs0, "weak_orlicz_sup": max(_ratio(a, rhs0) for a in alt)}
    rows = [ReportRow(t, a, b, _ratio(a, b), c)
            for t, a, b, c in zip(ts.tolist(), lhs.tolist(), rhs.tolist(), alt)]
    coarse_at = time.perf_counter()
    coarse_sides = _sides(coarse, phi, ts, *_operands(pair, coarse, f_coarse))
    done = time.perf_counter()
    best = max(rows, key=lambda row: row.ratio)
    sup_coarse = max(map(_ratio, *(side.tolist() for side in coarse_sides)))
    # relative to the coarse sup: nothing measured on either grid is drift 0
    drift = _ratio(abs(best.ratio - sup_coarse), sup_coarse)
    measured = bool(lhs.any() or not rhs.any())  # lhs 0 at every height, rhs not: no verdict
    return InequalityReport(
        theorem=pair.theorem,
        rows=rows,
        sup_ratio=best.ratio,
        argmax_t=best.t,
        preflight=pair.preflight,
        refinement_pair=(sup_coarse, best.ratio),
        j_pair=(coarse.grid.J, fine.grid.J),
        margin=cfg.margin,
        stage_s={"prepare": pair.prepare_s, "fine": coarse_at - started,
                 "coarse": done - coarse_at},
        drift=drift,
        stable=measured and math.isfinite(best.ratio) and drift <= STABILITY_BAR,
        extras=extras,
    )


# --- runners --------------------------------------------------------------


def run_base_sawyer(cfg: ExperimentConfig) -> InequalityReport:
    """Weak (1,1)-type inequality for the plain transform: the m = 0 baseline."""
    return evaluate(prepare(cfg, "base"), cfg.f)


def run_theorem2(cfg: ExperimentConfig) -> InequalityReport:
    """Mixed weak-type bound for the order-m commutator against Phi_m."""
    return evaluate(prepare(cfg, "commutator"), cfg.f)


def run_theorem1(cfg: ExperimentConfig) -> InequalityReport:
    """First-order commutator bound with Phi(t) = t(1 + log+ t)."""
    return run_theorem2(replace(cfg, m=1))


def run_theorem3(cfg: ExperimentConfig) -> InequalityReport:
    """Weak modular bound for M_Phi against the power weight |x|^beta."""
    return evaluate(prepare(cfg, "maximal"), cfg.f)

"""End-to-end harness: both sides of each weak-type inequality over t sweeps.

Every inequality has one shape: a weighted measure of a superlevel set,
``uv({|T(fv)/v| > t})``, on the left, and a modular integral,
``int phi(|f|/t) uv``, on the right.  A run samples the configured families
and evaluates both sides on a log-spaced sweep of heights t through the two
height kernels ``grid.superlevel_mass`` and ``grid.modular_mass``; it reports
the sup of the ratio and the same sup on the twice-coarsened grid.  The
constants in the inequalities are never hard-coded: refinement stability of
the sup-ratio is the acceptance signal, carried as the report's drift and
verdict.  All runners share one driver and differ only in their sides.

A run samples its configuration on the fine grid and on ``Grid.coarsened()``
and reads nothing else: the weight-hypothesis preflight pairs each constant's
estimates on the two, and the coarse sweep runs on the coarse instance.  The
preflight refuses runs whose estimated constants are unstable (the run would
measure noise), unless forced: forcing is exactly how the negative controls
demonstrate that the harness can tell a failed hypothesis from a satisfied one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
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
from .young import Identity, LLogL, YoungFunction

__all__ = [
    "STABILITY_BAR",
    "ExperimentConfig",
    "InequalityReport",
    "ReportRow",
    "parse_family",
    "sample_f",
    "sample_b",
    "build_weight",
    "build_theorem3_weight",
    "weak_lhs",
    "modular_rhs",
    "preflight_weights",
    "run_base_sawyer",
    "run_theorem1",
    "run_theorem2",
    "run_theorem3",
    "theorem3_set_partition",
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
            if val is not None and not val > 0.0:
                raise ConfigurationError(f"{name} must be positive, got {val}")
        if self.t_min is not None and self.t_max is not None and self.t_min > self.t_max:
            raise ConfigurationError("t_min must not exceed t_max")

    def scan(self) -> DyadicScan:
        return DyadicScan(j_max=self.j_max, shifts=self.shifts)


class ReportRow(NamedTuple):
    t: float
    lhs: float
    rhs: float
    ratio: float
    alt: float | None = None


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
    degenerate_symbol: bool = False
    extras: dict[str, float] = field(default_factory=dict)


# --- family grammar -------------------------------------------------------

#: the parameters each family takes; f, b and weight families share the names
_FAMILY_PARAMS: dict[str, tuple[str, ...]] = {
    "indicator": ("a", "b", "height"),
    "bumps": ("centers", "width"),
    "cusp": ("gamma", "a", "b"),
    "zero": (),
    "log": (),
    "sawtoothlog": (),
    "const": ("value",),
    "power": ("beta",),
    "chibump": ("a", "b", "floor"),
    "custom": ("path",),
}


def parse_family(spec: str) -> tuple[str, dict[str, str]]:
    """Split "name key=value ..." into the name and its raw parameters.

    A key the named family does not take, or a key given twice, is refused;
    an unknown name is left to the caller, which knows the family's kind.
    """
    parts = spec.split()
    if not parts:
        raise ConfigurationError("empty family specification")
    name, allowed = parts[0], _FAMILY_PARAMS.get(parts[0])
    params: dict[str, str] = {}
    for token in parts[1:]:
        if "=" not in token:
            raise ConfigurationError(f"family parameter {token!r} is not key=value")
        key, value = token.split("=", 1)
        if key in params:
            raise ConfigurationError(f"family {name!r} repeats parameter {key!r}")
        if allowed is not None and key not in allowed:
            takes = ", ".join(allowed) or "no parameters"
            raise ConfigurationError(f"family {name!r} has no parameter {key!r} (takes {takes})")
        params[key] = value
    return name, params


def _floats(params: dict[str, str], key: str, default: str) -> list[float]:
    try:
        return [float(tok) for tok in params.get(key, default).split(",")]
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse {key}={params[key]!r}") from exc


def _float(params: dict[str, str], key: str, default: str) -> float:
    vals = _floats(params, key, default)
    if len(vals) != 1:
        raise ConfigurationError(f"{key} takes a single value, got {vals}")
    return vals[0]


def _load_values(grid: Grid, params: dict[str, str]) -> np.ndarray:
    """The samples of a ``custom path=FILE`` family on ``grid``.

    A file of ``grid.N * 2**k`` samples is block-averaged onto the grid, so
    one file written at the fine resolution serves the coarse grid of the
    refinement comparison too.
    """
    if "path" not in params:
        raise ConfigurationError("custom family needs path=FILE")
    try:
        vals = np.loadtxt(params["path"], dtype=np.float64).reshape(-1)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read custom family {params['path']}: {exc}") from exc
    try:
        return block_average(vals, grid)
    except GridMismatchError as exc:
        raise ConfigurationError(f"custom family {params['path']}: {exc}") from exc


def _interval(name: str, params: dict[str, str], a: str, b: str) -> tuple[float, float]:
    lo, hi = _float(params, "a", a), _float(params, "b", b)
    if lo >= hi:
        # with a >= b no cell center lies inside the interval
        raise ConfigurationError(f"family {name!r} needs a < b, got a={lo!r} b={hi!r}")
    return lo, hi


def sample_f(grid: Grid, spec: str) -> SampledFunction:
    """Input-function families: indicator, bump sum, power cusp, custom file."""
    name, params = parse_family(spec)
    if name == "indicator":
        a, b = _interval(name, params, "0", "1")
        height = _float(params, "height", "1")
        return sample(lambda x: np.where((x >= a) & (x <= b), height, 0.0), grid)
    if name == "bumps":
        centers = _floats(params, "centers", "1.5,-2.0")
        width = _float(params, "width", "8")
        return sample(
            lambda x: sum(np.exp(-width * (x - c) ** 2) for c in centers), grid
        )
    if name == "cusp":
        gamma = _float(params, "gamma", "0.25")
        a, b = _interval(name, params, "0", "1")
        if gamma >= 1.0:
            raise ConfigurationError(f"cusp exponent must be < 1 for integrability, got {gamma}")
        return sample(
            lambda x: np.where((x >= a) & (x <= b), np.abs(x) ** -gamma, 0.0), grid
        )
    if name == "zero":
        return sample(lambda x: 0.0, grid)
    if name == "custom":
        return SampledFunction(grid, _load_values(grid, params))
    raise ConfigurationError(f"unknown f family {name!r}")


def sample_b(grid: Grid, spec: str) -> SampledFunction:
    """Symbol families: log|x|, sawtooth-log, constant, custom file."""
    name, params = parse_family(spec)
    if name == "log":
        return sample(lambda x: np.log(np.abs(x)), grid)
    if name == "sawtoothlog":
        # log of the distance to the nearest integer: BMO with a singularity
        # in every unit cell; never -inf because centers avoid the lattice
        return sample(lambda x: np.log(np.abs(x - np.round(x))), grid)
    if name == "const":
        value = _float(params, "value", "1")
        return sample(lambda x: value + 0.0 * x, grid)
    if name == "custom":
        return SampledFunction(grid, _load_values(grid, params))
    raise ConfigurationError(f"unknown b family {name!r}")


def build_weight(grid: Grid, spec: str) -> Weight:
    """Weight families: power, const, floored indicator bump, custom file."""
    name, params = parse_family(spec)
    if name == "power":
        return power_weight(grid, _float(params, "beta", "0"))
    if name == "const":
        value = _float(params, "value", "1")
        return Weight(sample(lambda x: value + 0.0 * x, grid))
    if name == "chibump":
        a, b = _interval(name, params, "-1", "1")
        floor = _float(params, "floor", "1e-3")
        if floor <= 0.0:
            raise ConfigurationError("chibump floor must be positive (weights are positive)")
        return Weight(sample(lambda x: floor + np.where((x >= a) & (x <= b), 1.0, 0.0), grid))
    if name == "custom":
        return Weight(SampledFunction(grid, _load_values(grid, params)))
    raise ConfigurationError(f"unknown weight family {name!r}")


# --- inequality sides -----------------------------------------------------


def weak_lhs(
    Tout: SampledFunction, u: Weight, v: Weight, t: float | np.ndarray, margin: float = 0.05
) -> float | np.ndarray:
    """uv-measure of the margin-interior part of {|Tout / v| > t}.

    ``t`` is one height (a float comes back) or an array of heights (one
    measure each).
    """
    if u.grid != Tout.grid or v.grid != Tout.grid:
        raise GridMismatchError("weak_lhs needs Tout, u, v on one grid")
    interior = Tout.grid.interior_mask(margin)
    quotient = np.abs(Tout.values / v.values)[interior]
    uv = (u.values * v.values)[interior]
    out = superlevel_mass(Tout.grid.h, quotient, uv, t)
    return out if out.ndim else float(out)


def modular_rhs(
    f: SampledFunction, phi: YoungFunction, u: Weight, v: Weight, t: float | np.ndarray
) -> float | np.ndarray:
    """int phi(|f| / t) u v dx by midpoint quadrature.

    ``t`` is one height (a float comes back) or an array of heights (one
    integral each).  Only the cells where f is nonzero are summed, since
    phi(0) = 0.
    """
    if u.grid != f.grid or v.grid != f.grid:
        raise GridMismatchError("modular_rhs needs f, u, v on one grid")
    out = modular_mass(f.grid.h, np.abs(f.values), phi, u.values * v.values, t)
    return out if out.ndim else float(out)


def _ratio(lhs: float, rhs: float) -> float:
    if rhs > 0.0:
        return lhs / rhs
    return 0.0 if lhs == 0.0 else math.inf


def _sweep(cfg: ExperimentConfig, signal: SampledFunction, top: float | None = None) -> np.ndarray:
    """Heights t: the configured window, else two decades around signal's median
    (the upper end is ``top`` instead when that lies above the lower end)."""
    t_min, t_max = cfg.t_min, cfg.t_max
    if t_min is None or t_max is None:
        absf = np.abs(signal.values)
        # the relative floor keeps subnormal far tails (smooth bumps never
        # hit exact zero) from dragging the sweep window off to nowhere
        sig = absf[absf > 1e-12 * float(np.max(absf, initial=0.0))]
        center = float(np.median(sig)) if sig.size else 1.0
        t_min = center * 1e-2 if t_min is None else t_min
        if t_max is None:
            t_max = top if top is not None and top > t_min else center * 1e2
    return np.geomspace(t_min, t_max, cfg.steps)  # one step gives [t_min] exactly


def preflight_weights(fine: SimpleNamespace, coarse: SimpleNamespace) -> dict[str, ConstantEstimate]:
    """The membership estimates the two-weight theorems hypothesize: u's A1
    constant, and v's A1 and A2(u) constants when the instances carry a v.

    ``fine`` and ``coarse`` carry ``u``, ``v`` and ``scan`` on a grid and on
    its ``coarsened()`` grid; each estimate pairs a constant's value on the two.
    """
    constants = {"A1_u": lambda i: estimate_Ap(i.u, 1.0, i.scan)}
    if fine.v is not None:
        constants["A1_v"] = lambda i: estimate_Ap(i.v, 1.0, i.scan)
        constants["A2_v_wrt_u"] = lambda i: estimate_Ap_u(i.v, i.u, 2.0, i.scan)
    return {name: refined(at(coarse), at(fine)) for name, at in constants.items()}


def _require_hypotheses(estimates: dict[str, ConstantEstimate], force: bool) -> None:
    ok = estimates["A1_u"].stable and (
        estimates["A1_v"].stable or estimates["A2_v_wrt_u"].stable
    )
    if ok or force:
        return
    shown = ", ".join(
        f"{name}={est.value:.4g} ({'stable' if est.stable else 'unstable'})"
        for name, est in estimates.items()
    )
    raise PreflightError(
        f"weight hypotheses not met: {shown}; pass force to run a negative control",
        estimates=estimates,
    )


# --- runners --------------------------------------------------------------


def _instantiate(cfg: ExperimentConfig, grid: Grid, with_v: bool) -> SimpleNamespace:
    f, u = sample_f(grid, cfg.f), build_weight(grid, cfg.u)
    v = build_weight(grid, cfg.v) if with_v else None
    return SimpleNamespace(grid=grid, f=f, u=u, v=v, scan=cfg.scan())


def _rows(ts: np.ndarray, lhs: np.ndarray, rhs: np.ndarray, alt: np.ndarray | None) -> list[ReportRow]:
    alts = [None] * len(ts) if alt is None else alt.tolist()
    return [
        ReportRow(t, a, b, _ratio(a, b), c)
        for t, a, b, c in zip(ts.tolist(), lhs.tolist(), rhs.tolist(), alts)
    ]


def _drive(
    theorem: str, cfg: ExperimentConfig, sides_at: Callable, preflight: bool = True
) -> InequalityReport:
    """Build grid J and its coarsened grid J - 2, then measure on both at the same heights.

    ``sides_at(inst, ts)`` returns ``(ts, lhs, rhs, alt, fields)``, one array
    per row column (``alt`` may be None); the fine call gets ``ts=None`` and
    picks the sweep, and its ``fields`` go on the report.  Without
    ``preflight`` (theorem 3: any positive u, its own v) the configured v is
    never built and only u's A1 estimate is recorded.  ``stage_s`` times the
    two instances with their estimates, the fine sweep and the coarse sweep.
    """
    started = time.perf_counter()
    if cfg.J - 2 < 4:
        raise ConfigurationError(
            f"refinement comparison needs J >= 6 so the coarse grid stays valid, got J={cfg.J}"
        )
    fine = _instantiate(cfg, make_grid(cfg.L, cfg.J), with_v=preflight)
    coarse = _instantiate(cfg, fine.grid.coarsened(), with_v=preflight)
    estimates = preflight_weights(fine, coarse)
    if preflight:
        _require_hypotheses(estimates, cfg.force)
    fine_at = time.perf_counter()
    ts, *sides, fields = sides_at(fine, None)
    rows = _rows(ts, *sides)
    coarse_at = time.perf_counter()
    _, *coarse_sides, _ = sides_at(coarse, ts)
    done = time.perf_counter()
    best = max(rows, key=lambda row: row.ratio)
    sup_coarse = max(row.ratio for row in _rows(ts, *coarse_sides))
    if sup_coarse > 0.0:
        drift = abs(best.ratio - sup_coarse) / sup_coarse
    else:
        drift = 0.0 if best.ratio == 0.0 else math.inf
    stable = math.isfinite(best.ratio) and drift <= STABILITY_BAR
    return InequalityReport(
        theorem=theorem,
        rows=rows,
        sup_ratio=best.ratio,
        argmax_t=best.t,
        preflight=estimates,
        refinement_pair=(sup_coarse, best.ratio),
        j_pair=(coarse.grid.J, fine.grid.J),
        margin=cfg.margin,
        stage_s={"preflight": fine_at - started, "fine": coarse_at - fine_at,
                 "coarse": done - coarse_at},
        drift=drift,
        stable=stable,
        **fields,
    )


def run_base_sawyer(cfg: ExperimentConfig) -> InequalityReport:
    """Weak (1,1)-type inequality for the plain transform: the m = 0 baseline."""

    def sides_at(inst, ts):
        ts = _sweep(cfg, inst.f) if ts is None else ts
        tout = hilbert(inst.f * inst.v.fn)
        lhs = weak_lhs(tout, inst.u, inst.v, ts, cfg.margin)
        rhs = modular_rhs(inst.f, Identity(), inst.u, inst.v, ts)
        return ts, lhs, rhs, None, {}

    return _drive("base_sawyer", cfg, sides_at)


def run_theorem2(cfg: ExperimentConfig) -> InequalityReport:
    """Mixed weak-type bound for the order-m commutator against Phi_m."""
    m = cfg.m
    if m not in (1, 2, 3):
        raise DomainError(f"commutator order must be 1, 2, or 3, got {m}")
    phi = LLogL(1.0, float(m))

    def sides_at(inst, ts):
        ts = _sweep(cfg, inst.f) if ts is None else ts
        b = sample_b(inst.grid, cfg.b)
        norm_b = bmo_norm(b, inst.scan)
        degenerate = norm_b == 0.0
        if degenerate:
            scale = 0.0
        else:
            # normalize the symbol per resolution so ||b||^m drops out as 1
            b = SampledFunction(inst.grid, b.values / norm_b)
            scale = 1.0
        tout = commutator(b, inst.f * inst.v.fn, m)
        # phi(scale) == scale for scale in {0, 1}: the direct form int phi(scale |f| / t)
        # and the split form phi(scale) int phi(|f| / t) are one number, one pass
        lhs = weak_lhs(tout, inst.u, inst.v, ts, cfg.margin)
        rhs = scale * modular_rhs(inst.f, phi, inst.u, inst.v, ts)
        return ts, lhs, rhs, rhs, {"degenerate_symbol": degenerate}

    return _drive("theorem1" if m == 1 else f"theorem2_m{m}", cfg, sides_at)


def run_theorem1(cfg: ExperimentConfig) -> InequalityReport:
    """First-order commutator bound with Phi(t) = t(1 + log+ t)."""
    return run_theorem2(replace(cfg, m=1))


def _check_theorem3(r: float, delta: float, beta: float) -> None:
    if beta >= -1.0:
        raise HypothesisError(f"beta must be < -1 for the singular power weight, got {beta}")
    if r < 1.0 or delta < 0.0:
        raise DomainError(f"Young exponents need r >= 1, delta >= 0, got r={r}, delta={delta}")


def build_theorem3_weight(grid: Grid, r: float, delta: float, beta: float) -> tuple[Weight, Weight]:
    """The pair (v, w) = (|x|^beta, 1/Phi(1/v)) the third theorem is stated for.

    For Phi = Identity (r = 1, delta = 0) the reciprocal pair collapses and w
    shares v's samples exactly rather than round-tripping through 1/(1/v).
    """
    _check_theorem3(r, delta, beta)
    v = power_weight(grid, beta)
    if r == 1.0 and delta == 0.0:
        return v, v
    phi = LLogL(r, delta)
    w = Weight(SampledFunction(grid, 1.0 / phi(1.0 / v.values)))
    return v, w


def run_theorem3(cfg: ExperimentConfig) -> InequalityReport:
    """Weak modular bound for M_Phi against the power weight |x|^beta.

    No weight preflight: the theorem takes arbitrary positive u (the maximal
    function of u on the right absorbs it); u's A1 estimate is still recorded
    for the report.  The configured v is not read: the theorem's v is |x|^beta.
    """
    r, delta, beta = cfg.r, cfg.delta, cfg.beta
    _check_theorem3(r, delta, beta)

    def sides_at(inst, ts):
        grid = inst.grid
        v, w = build_theorem3_weight(grid, r, delta, beta)
        phi = LLogL(r, delta)
        fv = inst.f * v.fn
        quotient = orlicz_maximal(fv, phi, inst.scan).values / v.values
        mu = hl_maximal(inst.u.fn, inst.scan).values
        interior = grid.interior_mask(cfg.margin)
        inner, uw = quotient[interior], (inst.u.values * w.values)[interior]
        if ts is None:
            # this inequality is normalized by f*v on both sides, and for the
            # hypothesized non-integrable v the interesting heights reach the
            # resolution-limited top of the quotient, so the default window is
            # anchored at fv's median and closed off where level sets empty out
            ts = _sweep(cfg, fv, 2.0 * float(np.max(inner, initial=0.0)))
        lhs = superlevel_mass(grid.h, inner, uw, ts)
        # the extra height 1 gives the weak-Orlicz right side int phi(|fv|) Mu
        rhs = modular_mass(grid.h, np.abs(fv.values), phi, mu, np.append(ts, 1.0))
        rhs, rhs0 = rhs[:-1], float(rhs[-1])
        alt = 1.0 / phi(1.0 / ts) * lhs
        weak_orlicz_sup = max(_ratio(a, rhs0) for a in alt.tolist())
        fields = {"extras": {"weak_orlicz_rhs": rhs0, "weak_orlicz_sup": weak_orlicz_sup}}
        return ts, lhs, rhs, alt, fields

    return _drive(f"theorem3_r{r:g}_d{delta:g}_b{beta:g}", cfg, sides_at, preflight=False)


# --- proof-set diagnostics ------------------------------------------------


def theorem3_set_partition(x: float, k: int) -> frozenset[str]:
    """Which of the proof's annular sets contain x at scale k.

    G_k = {2^k < |x| <= 2^(k+1)} sits inside the intermediate shell I_k;
    C_k (core) and L_k (far field) are the complements.  Exactly one of
    {C, I, L} holds, plus possibly G.
    """
    ax = abs(x)
    labels = set()
    if 2.0**k < ax <= 2.0 ** (k + 1):
        labels.add("G")
    if ax <= 2.0 ** (k - 1):
        labels.add("C")
    elif ax <= 2.0 ** (k + 2):
        labels.add("I")
    else:
        labels.add("L")
    return frozenset(labels)

"""Calderon-Zygmund decomposition at height t with respect to v dx.

The descent is the textbook stopping-time argument on the unshifted dyadic
tree, run one level at a time: the root's v-average must sit below t, and at
each scale j = 1..J a node is selected when its v-average exceeds t and no
coarser selected cube contains it.  Single cells are selectable but never
split, so every cell outside the selected set was itself examined; "f <= t
off Omega" therefore holds cell-exactly here, and the validator checks it
on every cell.

The node sums of level j are the row sums of ``fv.reshape(2**j, -1)`` (and
likewise for v).  Numpy reduces each contiguous row with the same pairwise
summation it uses for ``np.sum`` over that node's slice, so the two agree
bitwise, and the v = 1 case makes bit-identical selection decisions to a
plain unweighted reference using ``np.mean``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._errors import DomainError, GridMismatchError, HeightError
from .grid import DyadicInterval, SampledFunction
from .weights import Weight

__all__ = [
    "DecompositionResult",
    "CheckResult",
    "ValidationReport",
    "cz_decompose",
    "validate_decomposition",
]


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Stopping cubes, their heights, and the good/bad splitting of f.

    ``bad`` is f - g: zero off Omega, and on each cube Q it is the piece
    b_Q = (f - f_Q) on ``Q.cell_slice``, whose v-integral vanishes.
    """

    cubes: list[DyadicInterval]
    averages: list[float]
    g: SampledFunction
    bad: SampledFunction
    t: float
    doubling_bound: float


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    slack: float


@dataclass(frozen=True)
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _v_average(fv: np.ndarray, vv: np.ndarray, a: int, b: int) -> float:
    return float(np.sum(fv[a:b]) / np.sum(vv[a:b]))


def cz_decompose(f: SampledFunction, t: float, v: Weight) -> DecompositionResult:
    """Decompose f >= 0 at height t > 0 for the measure v dx.

    Raises :class:`HeightError` when the root average already exceeds t (the
    argument needs somewhere to start below the height).
    """
    if not t > 0.0:
        raise DomainError(f"decomposition height must be positive, got {t}")
    if np.any(f.values < 0.0):
        raise DomainError("decomposition needs f >= 0")
    if v.grid != f.grid:
        raise GridMismatchError("f and v must share a grid")
    grid = f.grid
    vv = v.values
    fv = f.values * vv
    root_avg = _v_average(fv, vv, 0, grid.N)
    if root_avg > t:
        raise HeightError(
            f"root v-average {root_avg:.6g} exceeds the height {t:.6g}; "
            "enlarge the domain or raise t",
            root_average=root_avg,
        )

    cubes: list[DyadicInterval] = []
    averages: list[float] = []
    gvals = f.values.copy()
    ratio = 1.0
    vmass = np.sum(vv, keepdims=True)
    member = np.zeros(1, dtype=bool)  # node lies inside a selected coarser cube
    for j in range(1, grid.J + 1):
        parent_vmass, vmass = vmass, vv.reshape(1 << j, -1).sum(axis=1)
        avg = fv.reshape(1 << j, -1).sum(axis=1) / vmass
        member = np.repeat(member, 2)
        hit = (avg > t) & ~member
        for k in np.flatnonzero(hit).tolist():
            q = DyadicInterval(grid, j, k)
            cubes.append(q)
            averages.append(float(avg[k]))
            gvals[q.cell_slice] = avg[k]
            ratio = max(ratio, float(parent_vmass[k // 2] / vmass[k]))
        member |= hit
    return DecompositionResult(
        cubes=cubes,
        averages=averages,
        g=SampledFunction(grid, gvals),
        bad=SampledFunction(grid, f.values - gvals),
        t=float(t),
        doubling_bound=ratio,
    )


def validate_decomposition(
    r: DecompositionResult, f: SampledFunction, v: Weight
) -> ValidationReport:
    """Recompute every structural invariant of a decomposition from scratch."""
    grid = f.grid
    vv = v.values
    fv = f.values * vv
    rel = 1e-12
    checks: list[CheckResult] = []

    member = np.zeros(grid.N, dtype=bool)
    overlap = 0
    for q in r.cubes:
        overlap += int(np.count_nonzero(member[q.cell_slice]))
        member[q.cell_slice] = True
    checks.append(CheckResult("disjoint", overlap == 0, float(overlap)))

    worst = 0.0
    ok = len(r.averages) == len(r.cubes)
    for q, avg in zip(r.cubes, r.averages):
        recomputed = _v_average(fv, vv, q.cell_start, q.cell_stop)
        worst = max(worst, abs(avg - recomputed) / max(abs(recomputed), 1e-300))
        if not (r.t < avg <= r.doubling_bound * r.t * (1.0 + rel)):
            ok = False
    checks.append(CheckResult("height_band", ok and worst <= rel, worst))

    recon = float(np.max(np.abs(r.g.values + r.bad.values - f.values)))
    recon /= max(1.0, float(np.max(np.abs(f.values))))
    checks.append(CheckResult("reconstruction", recon <= rel, recon))

    worst = 0.0
    for q in r.cubes:
        sl = q.cell_slice
        # yardstick is the cube's f-mass (>= t mu(Q) for selected cubes), not
        # the bad part's mass, which is pure rounding noise for single-cell cubes
        scale = float(np.sum(fv[sl]))
        worst = max(worst, abs(float(np.sum(r.bad.values[sl] * vv[sl]))) / max(scale, 1e-300))
    checks.append(CheckResult("cancellation", worst <= rel, worst))

    stray = int(np.count_nonzero(r.bad.values[~member]))
    checks.append(CheckResult("support", stray == 0, float(stray)))

    above = int(np.count_nonzero(~member & (f.values > r.t * (1.0 + rel))))
    checks.append(CheckResult("off_omega", above == 0, float(above)))

    # every strict ancestor of a cube, visited once per level: k >> (q.j - j)
    # is the level-j ancestor, and the row sums equal the slice sums bitwise
    ok = True
    worst = 0.0
    js = np.array([q.j for q in r.cubes], dtype=np.int64)
    ks = np.array([q.k for q in r.cubes], dtype=np.int64)
    for j in range(int(js.max(initial=0))):
        below = js > j
        anc = np.unique(ks[below] >> (js[below] - j))
        avg = fv.reshape(1 << j, -1).sum(axis=1)[anc] / vv.reshape(1 << j, -1).sum(axis=1)[anc]
        top = float(np.max(avg))
        worst = max(worst, top / r.t)
        ok = ok and not top > r.t * (1.0 + rel)
    checks.append(CheckResult("maximality", ok, worst))

    mu_omega = float(np.sum(vv[member])) * grid.h
    bound = float(np.sum(fv)) * grid.h / r.t
    checks.append(
        CheckResult("chebyshev", mu_omega <= bound * (1.0 + rel), mu_omega / max(bound, 1e-300))
    )

    on_omega = r.g.values[member]
    top = float(np.max(on_omega)) / (r.doubling_bound * r.t) if on_omega.size else 0.0
    checks.append(CheckResult("good_part_bound", top <= 1.0 + rel, top))

    return ValidationReport(checks=checks)

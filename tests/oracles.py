"""Test-only reference implementations and proof-lemma helpers.

Nothing in the package calls these.  The maximal oracles, the bisected
Luxemburg norms and the per-family weight estimators are slow on purpose:
each computes its operator the plain way, so a fast path can be checked
against it on small grids.  The other helpers are numerical forms of the
lemmas the paper's proofs lean on: Hoelder for Young pairs, triple
composition, reverse Hoelder and John-Nirenberg tails, p-th-power and
weighted oscillation norms, dilated averages, the iterated maximal function,
the theorem-3 scale root and annular sets, kernel smoothness, the dyadic
splitting tree (children, parent, containment), and the lookup of one named
check in a decomposition's validation report.  The unit tests and
acceptance criteria 2 and 9 measure them; no subcommand runs them.  They
reach the package only through its public operators and a few private
helpers, so they measure the code the subcommands run; the general
oscillation functional is the one exception, a scan of its own whose p = 1,
unweighted case the tests hold bitwise to ``bmo_norm``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from mixedweak._errors import (
    ConfigurationError,
    DomainError,
    GeometryError,
    GridMismatchError,
    RangeError,
)
from mixedweak.czd import CheckResult, ValidationReport
from mixedweak.grid import (
    DyadicInterval,
    DyadicScan,
    Grid,
    SampledFunction,
    _positive_heights,
    flatten_cell_ranges,
    modular_mass,
    scan_cell_ranges,
    superlevel_mass,
)
from mixedweak.maximal import hl_maximal, orlicz_maximal
from mixedweak.weights import Weight, _prefix
from mixedweak.young import (
    ExpL,
    LLogL,
    LuxemburgQuery,
    YoungFunction,
    _unit_argument,
    complementary,
    luxemburg_norm,
    segmented_luxemburg_norms,
)


def brute_force_maximal(f: SampledFunction, max_cells: int = 256) -> SampledFunction:
    """Exact uncentered maximal over all cell-aligned intervals, N <= 256.

    One pass per left endpoint: the averages over [i, j) for all j are a
    prefix-sum ratio, and the best interval containing cell k with left
    endpoint i is their suffix maximum.
    """
    n = f.grid.N
    if n > max_cells:
        raise RangeError(f"brute-force maximal refused: N={n} exceeds {max_cells} cells")
    absf = np.abs(f.values)
    prefix = np.concatenate(([0.0], np.cumsum(absf)))
    out = np.zeros(n, dtype=np.float64)
    for i in range(n):
        means = (prefix[i + 1 :] - prefix[i]) / np.arange(1, n - i + 1, dtype=np.float64)
        best = np.maximum.accumulate(means[::-1])[::-1]
        np.maximum(out[i:], best, out=out[i:])
    return SampledFunction(f.grid, out)


def per_family_orlicz_maximal(f, phi, scan=DyadicScan()):
    """Scanned Orlicz maximal values with every member of every family solved.

    Each scanned family tiles one block of cells, so its norms are scattered
    onto that block with one running maximum; no member is skipped.
    """
    absf = np.abs(f.values)
    out = absf / _unit_argument(phi)
    for starts, stops in scan_cell_ranges(f.grid, scan):
        norms = segmented_luxemburg_norms(phi, absf[starts[0] : stops[-1]], starts - starts[0])
        block = out[starts[0] : stops[-1]]
        np.maximum(block, np.repeat(norms, stops - starts), out=block)
    return out


# --- grid: midpoint quadrature --------------------------------------------


def integrate(
    f: SampledFunction,
    interval: DyadicInterval | None = None,
    weight: SampledFunction | None = None,
) -> float:
    """Midpoint-rule integral of ``f`` (times ``weight``) over an interval.

    With ``interval=None`` the integral runs over the whole domain.  Exact
    for functions that are constant on cells, which is the only sense in
    which data exists here.
    """
    sl = slice(None)
    if interval is not None:
        if interval.grid != f.grid:
            raise GridMismatchError("interval and integrand live on different grids")
        sl = interval.cell_slice
    vals = f.values[sl]
    if weight is not None:
        if weight.grid != f.grid:
            raise GridMismatchError("weight and integrand live on different grids")
        vals = vals * weight.values[sl]
    return float(f.grid.h * np.sum(vals))


# --- young: bisected norms, Hoelder, triple composition, envelopes, conjugates ---


def bisection_luxemburg_norms(phi, values, weights, starts, stops):
    """Luxemburg norms by per-range bisection to relative 1e-10, feasible end returned.

    Ranges may overlap or leave gaps; every range is solved on its own cells.
    A cell of weight 0 adds nothing to the modular, even where phi is +inf.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    absf = np.abs(np.asarray(values, dtype=np.float64))
    idx, seg = flatten_cell_ranges(starts, stops)
    fa = absf[idx]
    wa = np.ones_like(fa) if weights is None else np.asarray(weights, dtype=np.float64)[idx]
    nseg = starts.size
    wsum = np.bincount(seg, weights=wa, minlength=nseg)
    lam0 = np.bincount(seg, weights=fa * wa, minlength=nseg) / wsum
    live = lam0 > 0.0
    out = np.zeros(nseg, dtype=np.float64)
    if not live.any():
        return out
    live_of_seg = np.full(nseg, -1, dtype=np.int64)
    live_of_seg[live] = np.arange(int(live.sum()))
    keep = (live_of_seg[seg] >= 0) & (wa > 0.0)
    fa, wa, seg_l = fa[keep], wa[keep], live_of_seg[seg[keep]]
    nlive = int(live.sum())
    wsum_l = wsum[live]

    def modular(lam):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            vals = phi._eval_array(fa / lam[seg_l]) * wa
        return np.bincount(seg_l, weights=vals, minlength=nlive) / wsum_l

    hi = lam0[live].copy()
    for _ in range(700):
        bad = modular(hi) > 1.0
        if not bad.any():
            break
        hi[bad] *= 2.0
    lo = hi.copy()
    for _ in range(700):
        slack = modular(lo) < 1.0
        if not slack.any():
            break
        lo[slack] *= 0.5
    for _ in range(300):
        if np.all(hi - lo <= 1e-10 * hi):
            break
        mid = 0.5 * (lo + hi)
        feasible = modular(mid) <= 1.0
        hi = np.where(feasible, mid, hi)
        lo = np.where(feasible, lo, mid)
    out[live] = hi
    return out


def holder_pair(
    f: SampledFunction,
    g: SampledFunction,
    Q: DyadicInterval,
    phi: YoungFunction,
    w: SampledFunction | None = None,
) -> tuple[float, float]:
    """Both sides of the generalized Hoelder inequality on Q.

    Returns ``(avg_w |f g|, 2 ||f||_phi ||g||_conj)``.  The conjugate used on
    the right dominates the exact complementary function pointwise, so the
    inequality lhs <= rhs is a theorem, not a heuristic: it is the classical
    equivalent form ``ExpL(delta)`` for ``LLogL(1, delta)``, and the exact
    complementary function otherwise.  Weighted norms are bisected by
    :func:`bisection_luxemburg_norms`; unweighted ones are ``luxemburg_norm``'s.
    """
    lhs_f = abs(f * g)
    sl = Q.cell_slice
    wq = None if w is None else w.values[sl]
    wv = np.ones(Q.n_cells) if wq is None else wq
    lhs = float(np.sum(lhs_f.values[sl] * wv) / np.sum(wv))
    if isinstance(phi, LLogL) and phi.r == 1.0 and phi.delta > 0.0:
        bar = ExpL(phi.delta)
    else:
        bar = complementary(phi)

    def norm(h: SampledFunction, psi: YoungFunction) -> float:
        if w is None:
            return luxemburg_norm(LuxemburgQuery(h, Q, psi))
        return float(bisection_luxemburg_norms(psi, h.values[sl], wq, [0], [Q.n_cells])[0])

    return lhs, 2.0 * norm(f, phi) * norm(g, bar)


@dataclass(frozen=True)
class TripleCompositionResult:
    """Fitted constant for C(s t) <= K (A(s) + B(t)) over a log lattice."""

    constant: float
    skipped: int
    total: int
    warning: bool


def triple_composition_check(
    A: YoungFunction, B: YoungFunction, C: YoungFunction, samples: int = 60
) -> TripleCompositionResult:
    """Fit K = sup C(s t) / (A(s) + B(t)) over (s, t) in [1e-3, 1e3]^2.

    Overflowing lattice points are skipped and counted; more than 1% skips
    sets the warning flag.
    """
    if samples < 2:
        raise ConfigurationError(f"need at least 2 lattice samples per axis, got {samples}")
    s = np.logspace(-3.0, 3.0, samples)
    t = np.logspace(-3.0, 3.0, samples)
    ss, tt = np.meshgrid(s, t)
    with np.errstate(over="ignore", invalid="ignore"):
        num = C._eval_array(ss * tt)
        den = A._eval_array(ss) + B._eval_array(tt)
        ratio = num / den
    valid = np.isfinite(ratio) & (den > 0.0)
    skipped = int(ratio.size - valid.sum())
    warning = skipped > 0.01 * ratio.size
    constant = float(np.max(ratio[valid])) if valid.any() else math.inf
    return TripleCompositionResult(constant, skipped, int(ratio.size), warning)


def submultiplicativity_constant(
    phi: YoungFunction, t_min: float = 1e-3, t_max: float = 1e3, samples: int = 200
) -> float:
    """Fitted sup of phi(a b) / (phi(a) phi(b)) over a log lattice."""
    a = np.logspace(math.log10(t_min), math.log10(t_max), samples)
    aa, bb = np.meshgrid(a, a)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratio = phi._eval_array(aa * bb) / (phi._eval_array(aa) * phi._eval_array(bb))
    return float(np.max(ratio[np.isfinite(ratio)]))


def inverse_envelope_constant(
    r: float, delta: float, z_min: float = 1.0, z_max: float = 1e6, samples: int = 400
) -> float:
    """Fitted D for the inverse bound of phi(z) = z**r (1 + log+ z)**delta.

    Checks (1/D) g(z) <= phiInv(z) <= D g(z) for the candidate envelope
    g(z) = z**(1/r) (1 + log+ z)**(-delta/r) and returns the smallest D that
    works on the lattice.
    """
    phi = LLogL(r, delta)
    z = np.logspace(math.log10(z_min), math.log10(z_max), samples)
    inv = phi.inverse(z)
    logplus = np.where(z > 1.0, np.log(np.maximum(z, 1.0)), 0.0)
    g = z ** (1.0 / r) * (1.0 + logplus) ** (-delta / r)
    ratio = inv / g
    return float(max(np.max(ratio), np.max(1.0 / ratio)))


def conjugate_equivalence_constant(
    phi: LLogL, t_min: float = 2.0, t_max: float = 12.0, samples: int = 500
) -> float:
    """Fitted two-sided constant between the equivalent and exact conjugates.

    Measures sup max(equiv/exact, exact/equiv) over [t_min, t_max], where
    ``equiv = ExpL(delta)`` and ``exact`` is the Legendre conjugate.
    No constant exists down to t = 0 (the exact conjugate vanishes on [0, 1]),
    which is the reason the default window starts past the linear stretch.
    For delta = 1 the value is e^2 - e^(2 - t_max), just under e^2.
    """
    if not (isinstance(phi, LLogL) and phi.r == 1.0 and phi.delta > 0.0):
        raise DomainError("equivalence constant is defined for the LLogL(1, delta) family")
    equiv = ExpL(phi.delta)
    exact = complementary(phi)
    t = np.logspace(math.log10(t_min), math.log10(t_max), samples)
    e_vals = equiv.eval(t)
    x_vals = exact.eval(t)
    good = (x_vals > 0.0) & np.isfinite(e_vals)
    ratio = e_vals[good] / x_vals[good]
    return float(max(np.max(ratio), np.max(1.0 / ratio)))


# --- weights: the per-family gather path ----------------------------------


def custom_weight(grid: Grid, values: np.ndarray) -> Weight:
    return Weight(grid, values)


def _reduce_ranges(ufunc: np.ufunc, vals: np.ndarray, starts, stops) -> np.ndarray:
    """``ufunc`` over each range of a family that tiles ``[starts[0], stops[-1])``."""
    lo = starts[0]
    return ufunc.reduceat(vals[lo : stops[-1]], starts - lo)


def _scan_max(grid: Grid, scan: DyadicScan, functional) -> float:
    best = -math.inf
    for starts, stops in scan_cell_ranges(grid, scan):
        best = max(best, float(np.max(functional(starts, stops))))
    return best


def per_family_estimate_Ap_u(v: Weight, u: Weight, p: float, scan: DyadicScan = DyadicScan()) -> float:
    """A_p constant of v with respect to the measure u dx, one family at a time.

    Each family gathers its prefix sums through its ``(starts, stops)`` index
    arrays and takes its cell minima with ``np.minimum.reduceat``; the
    estimators in ``weights`` must equal it bit for bit.
    """
    if p < 1.0:
        raise DomainError(f"A_p(u) needs p >= 1, got {p}")
    if v.grid != u.grid:
        raise GridMismatchError("v and u must share a grid")
    vv, uu = v.values, u.values
    pu = _prefix(uu)
    pvu = _prefix(vv * uu)
    if p == 1.0:
        def functional(starts, stops):
            avg = (pvu[stops] - pvu[starts]) / (pu[stops] - pu[starts])
            return avg / _reduce_ranges(np.minimum, vv, starts, stops)

    else:
        pdu = _prefix(vv ** (-1.0 / (p - 1.0)) * uu)

        def functional(starts, stops):
            umass = pu[stops] - pu[starts]
            avg = (pvu[stops] - pvu[starts]) / umass
            dual = (pdu[stops] - pdu[starts]) / umass
            return avg * dual ** (p - 1.0)

    return _scan_max(v.grid, scan, functional)


def per_family_bmo_norm(b: SampledFunction, scan: DyadicScan = DyadicScan()) -> float:
    """Scanned BMO norm sup_Q avg_Q |b - b_Q|, each mean spread with ``np.repeat``."""
    bvals = b.values

    def functional(starts, stops):
        lo, hi = starts[0], stops[-1]
        off = starts - lo
        lens = stops - starts
        block = bvals[lo:hi]
        means = np.add.reduceat(block, off) / lens
        dev = np.abs(block - np.repeat(means, lens))
        return np.add.reduceat(dev, off) / lens

    return _scan_max(b.grid, scan, functional)


# --- weights: reverse Hoelder, products, weighted oscillation, tails, dilates ---


def product_weight(a: Weight, b: Weight) -> Weight:
    if a.grid != b.grid:
        raise GridMismatchError("weight product needs a common grid")
    return Weight(a.grid, a.values * b.values)


def estimate_RH(w: Weight, s: float, scan: DyadicScan = DyadicScan()) -> float:
    """Scanned reverse Hoelder constant: sup (avg_Q w**s)**(1/s) / avg_Q w."""
    if s <= 1.0:
        raise DomainError(f"reverse Hoelder needs s > 1, got {s}")
    vals = w.values
    pw = _prefix(vals)
    ps = _prefix(vals**s)

    def functional(starts, stops):
        lens = stops - starts
        return ((ps[stops] - ps[starts]) / lens) ** (1.0 / s) * lens / (pw[stops] - pw[starts])

    return _scan_max(w.grid, scan, functional)


def estimate_RH_inf(w: Weight, scan: DyadicScan = DyadicScan()) -> float:
    """RH_infinity proxy: sup over intervals of max_Q w / avg_Q w."""
    vals = w.values
    pw = _prefix(vals)

    def functional(starts, stops):
        lens = stops - starts
        maxs = _reduce_ranges(np.maximum, vals, starts, stops)
        maxs *= lens
        return maxs / (pw[stops] - pw[starts])

    return _scan_max(w.grid, scan, functional)


def oscillation_max(
    grid: Grid,
    bvals: np.ndarray,
    wvals: np.ndarray | None,
    scan: DyadicScan,
    p: float,
) -> float:
    """sup over scanned Q of (avg-with-w of |b - b_Q|**p)**(1/p), b_Q unweighted.

    The general oscillation functional; ``weights.bmo_norm`` is its p = 1,
    unweighted case, and ``bmo_w_norm`` its p = 1, weighted case.
    """

    def functional(starts, stops):
        lo, hi = starts[0], stops[-1]
        off = starts - lo
        lens = stops - starts
        block = bvals[lo:hi]
        means = np.add.reduceat(block, off) / lens
        dev = np.abs(block - np.repeat(means, lens))
        if p != 1.0:
            dev **= p
        if wvals is None:
            osc = np.add.reduceat(dev, off) / lens
        else:
            wblock = wvals[lo:hi]
            osc = np.add.reduceat(dev * wblock, off) / np.add.reduceat(wblock, off)
        if p != 1.0:
            osc **= 1.0 / p
        return osc

    return _scan_max(grid, scan, functional)


def bmo_w_norm(b: SampledFunction, w: Weight, scan: DyadicScan = DyadicScan()) -> float:
    """Weighted-oscillation norm sup_Q (1/w(Q)) int_Q |b - b_Q| w, b_Q unweighted."""
    if w.grid != b.grid:
        raise GridMismatchError("b and w must share a grid")
    return oscillation_max(b.grid, b.values, w.values, scan, 1.0)


def jn_tail(
    b: SampledFunction, Q: DyadicInterval, lambdas: Sequence[float]
) -> list[tuple[float, float]]:
    """Empirical oscillation tails |{x in Q : |b - b_Q| > lam}| / |Q| per lam."""
    if Q.grid != b.grid:
        raise GeometryError("interval and function live on different grids")
    if Q.is_empty:
        raise GeometryError("tail fractions need a nonempty interval")
    vals = b.values[Q.cell_slice]
    dev = np.abs(vals - float(np.mean(vals)))
    out = []
    for lam in lambdas:
        if lam < 0.0:
            raise DomainError(f"tail height must be nonnegative, got {lam}")
        out.append((float(lam), float(np.count_nonzero(dev > lam)) / dev.size))
    return out


def dilated_average_gap(b: SampledFunction, Q: DyadicInterval, k: int) -> float:
    """|b_Q - b_{2^k Q}| with the concentric dilate clipped to the domain.

    Dilate membership is by closed endpoints (the dilate endpoints can tie
    with cell centers, unlike the thirds-shifted lattice).  k = 0 is the
    interval itself, gap 0.
    """
    if Q.grid != b.grid:
        raise GeometryError("interval and function live on different grids")
    if Q.is_empty:
        raise GeometryError("cannot dilate an interval with no cells")
    if k < 0:
        raise DomainError(f"dilation exponent must be >= 0, got {k}")
    if k == 0:
        return 0.0
    grid = b.grid
    center = 0.5 * (Q.a + Q.b)
    half = 0.5 * (Q.b - Q.a) * float(2**k)
    lo = max(-grid.L, center - half)
    hi = min(grid.L, center + half)
    i0 = int(np.searchsorted(grid.centers, lo, side="left"))
    i1 = int(np.searchsorted(grid.centers, hi, side="right"))
    if i1 <= i0 or i0 > Q.cell_start or i1 < Q.cell_stop:
        raise GeometryError(f"degenerate dilate [{lo}, {hi}] for k={k}")
    mean_q = float(np.mean(b.values[Q.cell_slice]))
    mean_d = float(np.mean(b.values[i0:i1]))
    return abs(mean_q - mean_d)


def weighted_expL_vs_plain(
    b: SampledFunction, Q: DyadicInterval, w: Weight
) -> tuple[float, float]:
    """Both exponential-Orlicz norms of b - b_Q on Q: (w-weighted, plain).

    Both are bisected by :func:`bisection_luxemburg_norms`, so a unit weight
    gives the plain norm bit for bit.
    """
    if w.grid != b.grid:
        raise GridMismatchError("b and w must share a grid")
    if Q.grid != b.grid:
        raise GeometryError("interval and function live on different grids")
    sl = Q.cell_slice
    dev = b.values[sl] - float(np.mean(b.values[sl]))

    def norm(weights: np.ndarray | None) -> float:
        return float(bisection_luxemburg_norms(ExpL(1.0), dev, weights, [0], [Q.n_cells])[0])

    return norm(w.values[sl]), norm(None)


# --- maximal: iterated maximal function and the weak modular bound --------


def iterated_maximal(
    f: SampledFunction, m: int, scan: DyadicScan = DyadicScan()
) -> SampledFunction:
    """M^m f by literal composition, reusing the same scan every pass."""
    if m < 1:
        raise DomainError(f"iteration count must be >= 1, got {m}")
    out = f
    for _ in range(m):
        out = hl_maximal(out, scan)
    return out


def compare_llogl_iterated(
    f: SampledFunction, m: int, scan: DyadicScan = DyadicScan()
) -> tuple[float, float]:
    """Two-sided pointwise constants between M_{L(logL)^m} f and M^{m+1} f.

    Returns (min, max) of the ratio over the grid; cells where both sides
    vanish are skipped (only possible for f identically zero, which is
    rejected).
    """
    if m < 1:
        raise DomainError(f"comparison order must be >= 1, got {m}")
    if not np.any(f.values):
        raise DomainError("comparison needs f not identically zero")
    orlicz = orlicz_maximal(f, LLogL(1.0, float(m)), scan).values
    iterated = iterated_maximal(f, m + 1, scan).values
    keep = (orlicz != 0.0) | (iterated != 0.0)
    ratio = orlicz[keep] / iterated[keep]
    return float(np.min(ratio)), float(np.max(ratio))


def weak_modular_check(
    g: SampledFunction,
    phi: YoungFunction,
    u: Weight,
    t_values: Sequence[float],
    scan: DyadicScan = DyadicScan(),
) -> list[tuple[float, float, float]]:
    """Rows (t, u{M_phi g > t}, int phi(g/t) Mu dx) of the weak modular bound.

    The left side is the u-measure of the superlevel set of the Orlicz
    maximal function; the right side majorizes it up to a constant when u is
    arbitrary (its maximal function absorbs the roughness).
    """
    if np.any(g.values < 0.0):
        raise DomainError("weak modular check needs g >= 0")
    if u.grid != g.grid:
        raise GridMismatchError("u must live on the grid of g")
    ts = _positive_heights(t_values)
    mg = orlicz_maximal(g, phi, scan).values
    mu = hl_maximal(u, scan).values
    lhs = superlevel_mass(g.grid.h, mg, u.values, ts)
    rhs = modular_mass(g.grid.h, g.values, phi, mu, ts)
    return list(zip(ts.tolist(), lhs.tolist(), rhs.tolist()))


# --- singular: standard-kernel smoothness ---------------------------------


@dataclass(frozen=True)
class ConvolutionKernel:
    """K(x) = coef / x, odd, with size bound |K(x)| <= size_constant / |x|.

    ``smoothness`` is the fitted constant of the standard-kernel regularity
    inequality, attached after a ``kernel_smoothness_check`` run.
    """

    coef: float = 1.0 / math.pi
    smoothness: float | None = None

    @property
    def size_constant(self) -> float:
        return abs(self.coef)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return self.coef / np.asarray(x, dtype=np.float64)

    def with_smoothness(self, constant: float) -> "ConvolutionKernel":
        return dataclasses.replace(self, smoothness=constant)


HILBERT_KERNEL = ConvolutionKernel()


@dataclass(frozen=True)
class SmoothnessResult:
    constant: float
    skipped: int
    total: int


def random_admissible_triples(
    rng: np.random.Generator, count: int, span: float = 10.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triples (x, y, z) with |x - y| > 2|y - z|, spread over [-span, span]."""
    y = rng.uniform(-span, span, count)
    gap = rng.uniform(1e-3, span, count)
    x = y + np.where(rng.random(count) < 0.5, -gap, gap)
    z = y + rng.uniform(-0.5, 0.5, count) * gap * (1.0 - 1e-9)
    return x, y, z


def kernel_smoothness_check(
    kernel: ConvolutionKernel,
    sampler: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray, np.ndarray]]
    | None = None,
    count: int = 100_000,
    seed: int = 0,
) -> SmoothnessResult:
    """Fit the standard-kernel constant sup |K(x-y) - K(x-z)| |x-y|^2 / |y-z|.

    Triples violating the admissibility condition |x - y| > 2|y - z| (or
    hitting a kernel singularity) are skipped and counted, not scored.
    """
    rng = np.random.default_rng(seed)
    x, y, z = (sampler or random_admissible_triples)(rng, count)
    xy = np.abs(x - y)
    yz = np.abs(y - z)
    # admissibility forces x != y and x != z, so scores below stay finite;
    # y = z is admissible with kernel difference exactly zero
    admissible = xy > 2.0 * yz
    diff = np.abs(kernel(x[admissible] - y[admissible]) - kernel(x[admissible] - z[admissible]))
    with np.errstate(invalid="ignore", divide="ignore"):
        scores = np.where(yz[admissible] > 0.0, diff * xy[admissible] ** 2 / yz[admissible], 0.0)
    skipped = count - int(np.count_nonzero(admissible))
    constant = float(np.max(scores)) if scores.size else 0.0
    return SmoothnessResult(constant=constant, skipped=skipped, total=count)


# --- verify: the theorem-3 scale root -------------------------------------


def solve_scale_a(F: SampledFunction, gamma: float, lam: float) -> float:
    """Smallest a with a * int_{|y| <= a^gamma} F dy >= lam, to relative 1e-8.

    The discretized map is a nondecreasing step-and-ramp function of a, so
    bisection with the left-continuous convention (return the feasible end)
    finds the generalized root; quadrature jumps land on cell boundaries.
    """
    if gamma <= 0.0 or lam <= 0.0:
        raise DomainError(f"need gamma > 0 and lambda > 0, got gamma={gamma}, lambda={lam}")
    if np.any(F.values < 0.0):
        raise DomainError("scale solver needs F >= 0")
    if not np.any(F.values > 0.0):
        raise DomainError("scale solver needs F not identically zero")
    grid = F.grid
    absx = np.abs(grid.centers)
    order = np.argsort(absx)
    xs = absx[order]
    cmass = np.cumsum(F.values[order]) * grid.h

    def mass_within(s: float) -> float:
        idx = int(np.searchsorted(xs, s, side="right"))
        return float(cmass[idx - 1]) if idx else 0.0

    a_max = grid.L ** (1.0 / gamma)
    top = a_max * float(cmass[-1])
    if lam > top * (1.0 + 1e-12):
        raise RangeError(
            f"lambda={lam:.6g} unattainable: the truncated domain caps the map at {top:.6g}"
        )
    lo, hi = 0.0, a_max
    for _ in range(200):
        if hi - lo <= 1e-8 * hi:
            break
        mid = 0.5 * (lo + hi)
        if mid * mass_within(mid**gamma) >= lam:
            hi = mid
        else:
            lo = mid
    return hi


# --- validation reports ----------------------------------------------------


def check(report: ValidationReport, name: str) -> CheckResult:
    """The check called ``name`` in ``report``."""
    for c in report.checks:
        if c.name == name:
            return c
    raise KeyError(name)


# --- dyadic splitting tree and the theorem-3 proof sets ---------------------


def children(iv: DyadicInterval) -> tuple[DyadicInterval, DyadicInterval]:
    """The two dyadic halves of ``iv`` (unshifted families only)."""
    if iv.shift_thirds != 0:
        raise GeometryError("shifted intervals do not form a splitting tree")
    if iv.j >= iv.grid.J:
        raise GeometryError(f"cannot split below the cell scale j = J = {iv.grid.J}")
    return (
        DyadicInterval(iv.grid, iv.j + 1, 2 * iv.k),
        DyadicInterval(iv.grid, iv.j + 1, 2 * iv.k + 1),
    )


def parent(iv: DyadicInterval) -> DyadicInterval:
    """The dyadic interval one scale up that contains ``iv`` (unshifted families only)."""
    if iv.shift_thirds != 0:
        raise GeometryError("shifted intervals do not form a splitting tree")
    if iv.j == 0:
        raise GeometryError("the root interval has no parent")
    return DyadicInterval(iv.grid, iv.j - 1, iv.k // 2)


def contains(outer: DyadicInterval, inner: DyadicInterval) -> bool:
    """Cell-range containment (both intervals on the same grid)."""
    if inner.grid != outer.grid:
        raise GridMismatchError("containment requires a common grid")
    return outer.cell_start <= inner.cell_start and inner.cell_stop <= outer.cell_stop


def theorem3_set_partition(x: float, k: int) -> frozenset[str]:
    """Which of the theorem-3 proof's annular sets contain x at scale k.

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

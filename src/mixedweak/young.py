"""Young functions, complementary pairs, and weighted Luxemburg norms.

The Orlicz engine behind every estimate in the package.  A Young function
here is a frozen dataclass with a vectorized evaluator ``eval`` and a
right-continuous generalized inverse ``inverse(y) = sup{t : phi(t) <= y}``
(the two coincide for strictly increasing finite families, and the
generalized form is what makes step-type conjugates behave in the duality
identity ``t <= PhiInv(t) * BarPhiInv(t) <= 2t``).

Complementary functions come in three flavors: exact closed forms (powers,
the linear/step pair), the classical equivalent form ``exp(t^(1/alpha)) - 1``
for ``t (1 + log+ t)^alpha``, and a numeric Legendre transform on a dense
log-spaced slope lattice for everything else.  The numeric conjugate is a
max-affine function; its generalized inverse is the exact identity
``BarPhiInv(y) = inf_s (y + phi(s)) / s`` restricted to the lattice, found
by a searchsorted lookup of the affine piece active at height y (one lookup
per height, no heights-by-lattice temporary).  That keeps the duality
sandwich valid to a few parts in 1e4 while the optimizing slope stays inside
the lattice (heights up to about 1e6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from ._errors import ConfigurationError, DomainError, GeometryError, RangeError
from .grid import DyadicInterval, SampledFunction, flatten_cell_ranges

__all__ = [
    "YoungFunction",
    "Power",
    "LLogL",
    "ExpL",
    "ExpAlphaL",
    "Identity",
    "Step",
    "LegendreConjugate",
    "LuxemburgQuery",
    "DualityGap",
    "TripleCompositionResult",
    "complementary",
    "luxemburg_norm",
    "segmented_luxemburg_norms",
    "modular_inf",
    "holder_pair",
    "duality_gap",
    "triple_composition_check",
    "submultiplicativity_constant",
    "inverse_envelope_constant",
    "conjugate_equivalence_constant",
]


def _nonneg_array(t, what: str) -> np.ndarray:
    arr = np.asarray(t, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(np.isnan(arr)):
        raise DomainError(f"{what} must be nonnegative, got {arr[arr < 0] if arr.ndim else arr}")
    return arr


class YoungFunction:
    """Base class: shared eval/inverse plumbing for the concrete families."""

    #: Whether phi(ab) <= K phi(a) phi(b) holds for some finite K.
    submultiplicative: bool = False

    @property
    def convex(self) -> bool:
        return True

    def _eval_array(self, t: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def eval(self, t):
        """Evaluate phi at nonnegative t (scalar or array; may return +inf)."""
        arr = _nonneg_array(t, "argument of a Young function")
        with np.errstate(over="ignore", divide="ignore"):
            out = self._eval_array(arr)
        if np.isscalar(t) or arr.ndim == 0:
            return float(out)
        return out

    __call__ = eval

    def inverse(self, y):
        """Right-continuous generalized inverse sup{t : phi(t) <= y}."""
        arr = _nonneg_array(y, "height passed to inverse")
        if not np.all(np.isfinite(arr)):
            raise RangeError("inverse is only computed at finite heights")
        with np.errstate(over="ignore", divide="ignore"):
            out = self._inverse_array(arr)
        if np.isscalar(y) or arr.ndim == 0:
            return float(out)
        return out

    def _inverse_array(self, y: np.ndarray) -> np.ndarray:
        return self._inverse_bisect(y)

    def _inverse_bisect(self, y: np.ndarray) -> np.ndarray:
        """Monotone bisection with geometric bracket growth.

        Terminates with |phi(t) - y| <= 1e-10 max(1, y) for the continuous
        families this is used on (the bracket shrinks to relative 1e-15 in t,
        and the local log-slope of every family is far below the 1e5 that
        would be needed to defeat that).
        """
        shape = np.shape(y)
        y = np.atleast_1d(np.asarray(y, dtype=np.float64))
        hi = np.ones_like(y)
        for _ in range(1100):
            low = self._eval_array(hi) < y
            if not low.any():
                break
            hi[low] *= 2.0
        else:
            raise RangeError(f"height {np.max(y)} not attained by {self!r}")
        lo = np.zeros_like(y)
        for _ in range(200):
            if np.all(hi - lo <= 1e-15 * hi):
                break
            mid = 0.5 * (lo + hi)
            below = self._eval_array(mid) < y
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return np.where(y == 0.0, 0.0, hi).reshape(shape)


@dataclass(frozen=True)
class Power(YoungFunction):
    """phi(t) = coef * t**r with r >= 1."""

    r: float
    coef: float = 1.0
    submultiplicative = True

    def __post_init__(self) -> None:
        if not (self.r >= 1.0 and math.isfinite(self.r)):
            raise ConfigurationError(f"Power exponent must satisfy r >= 1, got {self.r}")
        if not (self.coef > 0.0 and math.isfinite(self.coef)):
            raise ConfigurationError(f"Power coefficient must be positive, got {self.coef}")

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        return self.coef * t**self.r

    def _inverse_array(self, y: np.ndarray) -> np.ndarray:
        return (y / self.coef) ** (1.0 / self.r)


@dataclass(frozen=True)
class LLogL(YoungFunction):
    """phi(t) = t**r * (1 + log+ t)**delta.

    ``r >= 1`` gives the convex Young functions of the main estimates
    (``r = 1, delta = m`` is the commutator family).  Exponents ``0 < r < 1``
    are accepted for the inverse-envelope diagnostics, where the proof
    machinery genuinely uses them; such functions are not convex and the
    ``convex`` flag says so.
    """

    r: float = 1.0
    delta: float = 1.0
    submultiplicative = True

    def __post_init__(self) -> None:
        if not (self.r > 0.0 and math.isfinite(self.r)):
            raise ConfigurationError(f"LLogL exponent must be positive, got {self.r}")
        if not (self.delta >= 0.0 and math.isfinite(self.delta)):
            raise ConfigurationError(f"LLogL log power must be >= 0, got {self.delta}")

    @property
    def convex(self) -> bool:
        return self.r >= 1.0

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        logplus = np.where(t > 1.0, np.log(np.maximum(t, 1.0)), 0.0)
        return t**self.r * (1.0 + logplus) ** self.delta


@dataclass(frozen=True)
class ExpL(YoungFunction):
    """phi(t) = exp(t**(1/alpha)) - 1 (equivalent conjugate of L log^alpha L)."""

    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ConfigurationError(f"ExpL exponent must be positive, got {self.alpha}")

    @property
    def convex(self) -> bool:
        # For alpha > 1 the function is concave near 0; it is only
        # *equivalent* to a Young function there.
        return self.alpha <= 1.0

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        return np.expm1(t ** (1.0 / self.alpha))

    def _inverse_array(self, y: np.ndarray) -> np.ndarray:
        return np.log1p(y) ** self.alpha


@dataclass(frozen=True)
class ExpAlphaL(YoungFunction):
    """phi(t) = exp(a * t**(1/alpha)) - 1, the scaled exponential family."""

    alpha: float = 1.0
    a: float = 1.0

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ConfigurationError(f"ExpAlphaL exponent must be positive, got {self.alpha}")
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ConfigurationError(f"ExpAlphaL scale must be positive, got {self.a}")

    @property
    def convex(self) -> bool:
        return self.alpha <= 1.0

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        return np.expm1(self.a * t ** (1.0 / self.alpha))

    def _inverse_array(self, y: np.ndarray) -> np.ndarray:
        return (np.log1p(y) / self.a) ** self.alpha


@dataclass(frozen=True)
class Identity(YoungFunction):
    """phi(t) = t."""

    submultiplicative = True

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(t, dtype=np.float64)

    def _inverse_array(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=np.float64)


@dataclass(frozen=True)
class Step(YoungFunction):
    """phi(t) = 0 for t <= threshold, +inf beyond: the conjugate of c*t.

    Its Luxemburg norm is the weighted essential sup scaled by the threshold,
    and its generalized inverse is identically the threshold, which is
    exactly what the duality identity for the linear family requires.
    """

    threshold: float = 1.0

    def __post_init__(self) -> None:
        if not (self.threshold > 0.0 and math.isfinite(self.threshold)):
            raise ConfigurationError(f"Step threshold must be positive, got {self.threshold}")

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(t, dtype=np.float64) <= self.threshold, 0.0, np.inf)

    def _inverse_array(self, y: np.ndarray) -> np.ndarray:
        return np.full(np.shape(y), self.threshold, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class LegendreConjugate(YoungFunction):
    """Numeric conjugate sup_s {t s - phi(s)} on a dense log slope lattice.

    The lattice has 1e4 points per decade over 12 decades (slopes 1e-6 to
    1e6).  Evaluation walks the upper envelope of the affine pieces, so a
    call costs one searchsorted.  The inverse is the closed identity
    ``inverse(y) = min_s (y + phi(s)) / s`` over the lattice, exact for the
    max-affine function itself; the minimizing piece is the one active at
    height y, so it is found by a searchsorted over the envelope's values at
    its breakpoints (``_kinks``) instead of a min over the lattice.  Both are
    accurate to a few parts in 1e4 as long as the optimizing slope lies
    inside the lattice; for the families used here that covers heights up
    to about 1e6.

    The base must be convex: then every lattice point is a piece of the
    envelope and the chord slopes between neighbours, which are the
    envelope's breakpoints, are nondecreasing.  The lattice is cut before the
    first chord slope that is not finite (the base overflows there), and a
    base whose kept chord slopes decrease is refused.
    """

    base: "YoungFamily"

    def __post_init__(self) -> None:
        if not self.base.convex:
            raise DomainError(f"refusing to conjugate the non-convex family {self.base!r}")
        slopes = np.logspace(-6.0, 6.0, 12 * 10**4 + 1)
        heights = self.base.eval(slopes)
        with np.errstate(over="ignore", invalid="ignore"):
            chords = np.diff(heights) / np.diff(slopes)
            cut = np.flatnonzero(~np.isfinite(chords))
            n = int(cut[0]) + 1 if cut.size else slopes.size
            slopes, heights, breaks = slopes[:n].copy(), heights[:n].copy(), chords[: n - 1].copy()
            kinks = slopes[:-1] * breaks - heights[:-1]  # envelope value at each break
        if n < 2:
            raise ConfigurationError(f"cannot conjugate {self.base!r}: no finite lattice values")
        if np.any(np.diff(breaks) < 0.0):
            raise DomainError(f"cannot conjugate {self.base!r}: its chord slopes decrease")
        for name, val in (("_slopes", slopes), ("_heights", heights), ("_breaks", breaks),
                          ("_kinks", kinks)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        slopes = self._slopes  # type: ignore[attr-defined]
        heights = self._heights  # type: ignore[attr-defined]
        idx = np.searchsorted(self._breaks, t, side="right")  # type: ignore[attr-defined]
        return np.maximum(slopes[idx] * t - heights[idx], 0.0)

    def _inverse_array(self, y: np.ndarray) -> np.ndarray:
        slopes = self._slopes  # type: ignore[attr-defined]
        heights = self._heights  # type: ignore[attr-defined]
        idx = np.searchsorted(self._kinks, y, side="left")  # type: ignore[attr-defined]
        return (y + heights[idx]) / slopes[idx]


YoungFamily = Union[Power, LLogL, ExpL, ExpAlphaL, Identity, Step, LegendreConjugate]


@lru_cache(maxsize=64)
def _cached_legendre(phi: YoungFamily) -> LegendreConjugate:
    return LegendreConjugate(phi)


def complementary(phi: YoungFunction, exact: bool = False) -> YoungFunction:
    """Complementary Young function of ``phi``.

    Closed forms where they exist: powers conjugate to powers with the
    matching coefficient, the linear/step pair conjugate to each other.  For
    ``LLogL(1, alpha)`` the default is the classical equivalent form
    ``ExpL(alpha)``; the equivalence holds up to constants only for large
    arguments (see :func:`conjugate_equivalence_constant`), so callers that
    need the duality identity pointwise pass ``exact=True`` to route through
    the numeric Legendre transform instead.  Everything else is numeric.
    """
    if isinstance(phi, Identity):
        return Step(1.0)
    if isinstance(phi, Step):
        return Power(1.0, phi.threshold)
    if isinstance(phi, Power):
        if phi.r == 1.0:
            return Step(phi.coef)
        rp = phi.r / (phi.r - 1.0)
        coef = (phi.r - 1.0) / phi.r * (phi.coef * phi.r) ** (-1.0 / (phi.r - 1.0))
        return Power(rp, coef)
    if isinstance(phi, LLogL) and phi.r == 1.0 and phi.delta == 0.0:
        return Step(1.0)
    if isinstance(phi, LLogL) and not exact and phi.r == 1.0 and phi.delta > 0.0:
        return ExpL(phi.delta)
    return _cached_legendre(phi)


@dataclass(frozen=True, eq=False)
class LuxemburgQuery:
    """One weighted Orlicz-norm evaluation: ``||f||_{phi, Q, w}``.

    ``w = None`` means Lebesgue measure on Q.
    """

    f: SampledFunction
    Q: DyadicInterval
    phi: YoungFunction
    w: SampledFunction | None = None

    def __post_init__(self) -> None:
        if self.Q.grid != self.f.grid:
            raise GeometryError("query interval lives on a different grid than f")
        if self.Q.is_empty:
            raise GeometryError(f"query interval j={self.Q.j}, k={self.Q.k} contains no cells")
        if self.w is not None:
            if self.w.grid != self.f.grid:
                raise GeometryError("weight lives on a different grid than f")
            wq = self.w.values[self.Q.cell_slice]
            if np.any(wq < 0.0) or float(np.sum(wq)) <= 0.0:
                raise DomainError("weight must be nonnegative with positive mass on Q")


def _linear_scale(phi: YoungFunction) -> float | None:
    """Slope c when phi(t) = c*t exactly, else None.

    The linear family short-circuits the bisection: the norm is c times the
    weighted average of |f|.  This is also what makes the Orlicz maximal
    function with the identity collapse bitwise onto the plain one.
    """
    if isinstance(phi, Identity):
        return 1.0
    if isinstance(phi, Power) and phi.r == 1.0:
        return phi.coef
    if isinstance(phi, LLogL) and phi.r == 1.0 and phi.delta == 0.0:
        return 1.0
    return None


def segmented_luxemburg_norms(
    phi: YoungFunction,
    values: np.ndarray,
    weights: np.ndarray | None,
    starts: np.ndarray,
    stops: np.ndarray,
) -> np.ndarray:
    """Luxemburg norms of |values| over many disjoint cell ranges at once.

    Returns one norm per (start, stop) range; the modular uses the weighted
    cell average, so the cell width cancels and never enters.  Bisection to
    relative 1e-10 with geometric bracket growth from the weighted mean; the
    feasible end of the bracket is returned, so the modular at the result is
    <= 1, and >= 1 - 1e-6 for finite-valued phi with f not a.e. zero.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    if np.any(stops <= starts):
        raise GeometryError("segmented norms need nonempty cell ranges")
    absf = np.abs(np.asarray(values, dtype=np.float64))
    idx, seg = flatten_cell_ranges(starts, stops)
    fa = absf[idx]
    wa = np.ones_like(fa) if weights is None else np.asarray(weights, dtype=np.float64)[idx]
    nseg = starts.size
    wsum = np.bincount(seg, weights=wa, minlength=nseg)
    if np.any(wsum <= 0.0):
        raise DomainError("weight must have positive mass on every queried range")
    lam0 = np.bincount(seg, weights=fa * wa, minlength=nseg) / wsum

    scale = _linear_scale(phi)
    if scale is not None:
        return scale * lam0

    live = lam0 > 0.0
    out = np.zeros(nseg, dtype=np.float64)
    if not live.any():
        return out
    live_of_seg = np.full(nseg, -1, dtype=np.int64)
    live_of_seg[live] = np.arange(int(live.sum()))
    keep = live_of_seg[seg] >= 0
    fa, wa, seg_l = fa[keep], wa[keep], live_of_seg[seg[keep]]
    nlive = int(live.sum())
    wsum_l = wsum[live]

    def modular(lam: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            vals = phi._eval_array(fa / lam[seg_l]) * wa
        return np.bincount(seg_l, weights=vals, minlength=nlive) / wsum_l

    hi = lam0[live].copy()
    for _ in range(700):
        bad = modular(hi) > 1.0
        if not bad.any():
            break
        hi[bad] *= 2.0
    else:
        raise RangeError("Luxemburg bracket failed to close from above")
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


def _query_arrays(q: LuxemburgQuery) -> tuple[np.ndarray, np.ndarray | None]:
    sl = q.Q.cell_slice
    w = None if q.w is None else q.w.values[sl]
    return q.f.values[sl], w


def luxemburg_norm(q: LuxemburgQuery) -> float:
    """Weighted Luxemburg norm inf{lam > 0 : avg_w phi(|f|/lam) <= 1} on Q."""
    fq, wq = _query_arrays(q)
    norms = segmented_luxemburg_norms(
        q.phi, fq, wq, np.array([0], dtype=np.int64), np.array([fq.size], dtype=np.int64)
    )
    return float(norms[0])


def modular_inf(q: LuxemburgQuery) -> float:
    """The equivalent quantity inf_tau {tau + tau * avg_w phi(|f|/tau)}.

    For convex phi the objective is convex in tau (tau plus the perspective
    of phi), so one golden-section search over the Luxemburg norm times
    [1e-3, 1e3], stopped at relative width 1e-6, finds its minimum, which
    lies between the norm and twice the norm.  Where phi overflows at small
    tau the objective is inf or nan; the comparison then fails and the
    search moves right, toward the minimum.  Non-convex phi is refused.
    """
    if not q.phi.convex:
        raise DomainError(f"modular infimum needs a convex Young function, got {q.phi!r}")
    norm = luxemburg_norm(q)
    if norm == 0.0:
        return 0.0
    fq, wq = _query_arrays(q)
    absf = np.abs(fq)
    w = np.ones_like(absf) if wq is None else wq
    wq_total = float(np.sum(w))

    def objective(tau: float) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            mod = float(np.sum(q.phi._eval_array(absf / tau) * w)) / wq_total
        return tau * (1.0 + mod)

    a, b = 1e-3 * norm, 1e3 * norm
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > 1e-6 * 0.5 * (a + b):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    return float(min(fc, fd))


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
    inequality lhs <= rhs is a theorem, not a heuristic.
    """
    lhs_f = abs(f * g)
    sl = Q.cell_slice
    wq = None if w is None else w.values[sl]
    wv = np.ones(Q.n_cells) if wq is None else wq
    lhs = float(np.sum(lhs_f.values[sl] * wv) / np.sum(wv))
    bar = complementary(phi)
    rhs = 2.0 * luxemburg_norm(LuxemburgQuery(f, Q, phi, w)) * luxemburg_norm(
        LuxemburgQuery(g, Q, bar, w)
    )
    return lhs, rhs


@dataclass(frozen=True)
class DualityGap:
    """Ratio PhiInv(t) * BarPhiInv(t) / t and its check against [0.95, 2.05]."""

    ratio: float
    passed: bool


def duality_gap(phi: YoungFunction, t: float) -> DualityGap:
    """Check the two-sided duality identity t <= PhiInv(t)*BarPhiInv(t) <= 2t.

    Always uses the exact conjugate (numeric Legendre where no closed form
    exists): the equivalent exponential form deliberately breaks the lower
    bound for small t, which is why it is never used here.  Tolerance 0.05 on
    each side absorbs the lattice error of the numeric transform.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"duality check needs finite t > 0, got {t}")
    bar = complementary(phi, exact=True)
    ratio = phi.inverse(t) * bar.inverse(t) / t
    return DualityGap(ratio=ratio, passed=bool(0.95 <= ratio <= 2.05))


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
    ``equiv = ExpL(delta)`` and ``exact`` is the numeric Legendre conjugate.
    No constant exists down to t = 0 (the exact conjugate vanishes on [0, 1]),
    which is the reason the default window starts past the linear stretch.
    For delta = 1 the value is e^2 - e^(2 - t_max), just under e^2.
    """
    if not (isinstance(phi, LLogL) and phi.r == 1.0 and phi.delta > 0.0):
        raise DomainError("equivalence constant is defined for the LLogL(1, delta) family")
    equiv = ExpL(phi.delta)
    exact = complementary(phi, exact=True)
    t = np.logspace(math.log10(t_min), math.log10(t_max), samples)
    e_vals = equiv.eval(t)
    x_vals = exact.eval(t)
    good = (x_vals > 0.0) & np.isfinite(e_vals)
    ratio = e_vals[good] / x_vals[good]
    return float(max(np.max(ratio), np.max(1.0 / ratio)))

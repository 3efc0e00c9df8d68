"""Young functions, complementary pairs, and Luxemburg norms.

The Orlicz engine behind every estimate in the package.  A Young function
here is a frozen dataclass with a vectorized evaluator ``eval``, its
derivative (``_slope_array``) and a right-continuous generalized inverse
``inverse(y) = sup{t : phi(t) <= y}`` (the two coincide for strictly
increasing finite families, and the generalized form is what makes
step-type conjugates behave in the duality identity ``t <= PhiInv(t) *
BarPhiInv(t) <= 2t``).  The Newton solvers and the conjugate's gap read the
value and the slope from one evaluation, ``_eval_and_slope``, bit for bit
the two separate ones; ``LLogL`` takes one log per cell for both.

Complementary functions are exact: closed forms for the powers and the
linear/step pair, and the Legendre transform for everything else,
``t (1 + log+ t)^alpha`` included (its classical equivalent form
``exp(t^(1/alpha)) - 1`` breaks the lower side of the duality identity at
small t).  The transform is evaluated through Young's equality
``BarPhi(phi'(s)) = s phi'(s) - phi(s)``: the value, the slope and the
inverse of a conjugate are each one bracketed root of a nondecreasing
function of s, found by the same bisection that inverts the families.

Luxemburg norms, over Lebesgue measure, are computed a whole scanned family
at a time: the family's ranges tile one block of cells, given by their start
offsets, so every per-range sum is one ``np.add.reduceat``, and the norm
itself is the root of the modular in 1/lam, found by a Newton iteration
inside a closed-form bracket (see :func:`segmented_luxemburg_norms`).  The
modular infimum, which lies between the norm and twice the norm, is one
golden-section search around it.

One range is solved by the same algorithm in float state:
:func:`luxemburg_norm` runs the segmented Newton on its one interval, with
the bracket and the iterate held in Python floats and every sum taken as the
array path takes it, so a query returns the array path's float, bit for
bit, without its per-call numpy overhead on an array of one range.  Roots
are bisected one height at a time (:func:`_least_root`), so a height's root
is the same float whatever array it comes in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from ._errors import ConfigurationError, DomainError, GeometryError, RangeError
from .grid import DyadicInterval, SampledFunction
from .grid import flatten_cell_ranges  # noqa: F401  (unused; perfbench/tracing.py hooks this binding)

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
    "complementary",
    "luxemburg_norm",
    "segmented_luxemburg_norms",
    "modular_inf",
    "duality_gap",
]


def _nonneg_array(t, what: str) -> np.ndarray:
    arr = np.asarray(t, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(np.isnan(arr)):
        raise DomainError(f"{what} must be nonnegative, got {arr[arr < 0] if arr.ndim else arr}")
    return arr


def _require_convex(phi: "YoungFunction") -> None:
    """Refuse a phi that is not convex: the one entry check of the Luxemburg
    solvers, the Orlicz maximal function and the Legendre conjugate."""
    if not phi.convex:
        raise DomainError(f"a Luxemburg norm or a conjugate needs a convex Young function, "
                          f"got the non-convex {phi!r}")


def _least_root(g, y) -> np.ndarray:
    """Least t >= 0 with g(t) >= y, elementwise, for a nondecreasing g.

    Each height is solved on its own by :func:`_least_root_one`, so a root's
    bits do not depend on the other heights of the array.
    """
    y = np.asarray(y, dtype=np.float64)
    roots = [_least_root_one(g, height) for height in y.ravel().tolist()]
    return np.array(roots).reshape(y.shape)


#: bisection steps of one root: from [0, 1], 1074 halvings reach the least
#: subnormal and 53 more resolve a binade; a subnormal root, whose bracket
#: cannot narrow to 1e-15 relative, stops at the cap
_MAX_HALVINGS = 1200


def _least_root_one(g, y: float) -> float:
    """Least t >= 0 with g(t) >= y, for a nondecreasing g read at one point.

    The root is 0 where g(0) >= y.  Elsewhere the bracket [0, hi] grows by
    doubling hi from 1 and is bisected to relative width 1e-15, and the upper
    end is returned.  A g that reads inf or nan counts as reaching y, so a
    root past the float range reads +inf.  For the continuous families,
    |phi(t) - y| <= 1e-10 max(1, y) at the returned t (the local log-slope of
    every family is far below the 1e5 that would be needed to defeat that).
    g reads one reused 1-element buffer, with the bracket held in floats.
    """
    buf = np.zeros(1)

    def below(t: float) -> bool:
        buf[0] = t
        return bool(g(buf)[0] < y)

    lo, hi = 0.0, (1.0 if below(0.0) else 0.0)
    for _ in range(1100):
        if not below(hi):
            break
        hi *= 2.0
    else:
        raise RangeError(f"height {y} not attained by {g.__self__!r}")
    for _ in range(_MAX_HALVINGS):
        if hi - lo <= 1e-15 * hi:
            break
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return hi


class YoungFunction:
    """Base class: shared eval/inverse plumbing for the concrete families."""

    @property
    def convex(self) -> bool:
        return True

    def _eval_array(self, t: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def _slope_array(self, t: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        """phi'(t) (the left derivative at a kink), for the Luxemburg Newton solver."""
        raise NotImplementedError

    def _eval_and_slope(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(_eval_array(t), _slope_array(t))`` on a 1-d array, bit for bit, from
        one call: the step of both Newton solvers.  A family overrides it to
        share work between the two."""
        return self._eval_array(t), self._slope_array(t)

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
        return _least_root(self._eval_array, y)

    def log_power(self) -> tuple[float, float, int] | None:
        """``(c, r, d)`` when phi(t) = c t**r (1 + log+ t)**d with a whole d >= 0,
        else None.  ``grid.modular_mass`` sums such a phi at every height from
        one sort of the signal."""
        return None


@dataclass(frozen=True)
class Power(YoungFunction):
    """phi(t) = coef * t**r with r >= 1."""

    r: float
    coef: float = 1.0

    def __post_init__(self) -> None:
        if not (self.r >= 1.0 and math.isfinite(self.r)):
            raise ConfigurationError(f"Power exponent must satisfy r >= 1, got {self.r}")
        if not (self.coef > 0.0 and math.isfinite(self.coef)):
            raise ConfigurationError(f"Power coefficient must be positive, got {self.coef}")

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        return self.coef * t**self.r

    def _slope_array(self, t: np.ndarray) -> np.ndarray:
        return self.coef * self.r * t ** (self.r - 1.0)

    def _inverse_array(self, y: np.ndarray) -> np.ndarray:
        return (y / self.coef) ** (1.0 / self.r)

    def log_power(self) -> tuple[float, float, int]:
        return float(self.coef), float(self.r), 0


def _one_plus_log(t: np.ndarray) -> np.ndarray:
    """1 + log+ t from one log per cell and no select: log(fmax(t, 1)) is
    where(t > 1, log(maximum(t, 1)), 0) bit for bit, nan included (fmax reads
    a nan as 1)."""
    onelog = np.fmax(t, 1.0, out=np.empty(np.shape(t)))
    np.log(onelog, out=onelog)
    onelog += 1.0
    return onelog


def _power_product(x: np.ndarray, a: float, y: np.ndarray, b: float):
    """``x**a * y**b``, bit for bit, without a power of 0 or 1: ``z**0`` is 1 and
    ``z**1`` is z for every float z.  It may return ``x`` or ``y`` itself, and
    None for the empty product 1."""
    if a == 0.0:
        return None if b == 0.0 else y if b == 1.0 else y**b
    xa = x if a == 1.0 else x**a
    if b == 0.0:
        return xa
    yb = y if b == 1.0 else y**b
    if xa is x and yb is y:
        return x * y
    return np.multiply(xa, yb, out=yb if xa is x else xa)


@dataclass(frozen=True)
class LLogL(YoungFunction):
    """phi(t) = t**r * (1 + log+ t)**delta.

    ``r >= 1`` gives the convex Young functions of the main estimates
    (``r = 1, delta = m`` is the commutator family).  Exponents ``0 < r < 1``
    are accepted for the inverse-envelope diagnostics, where the proof
    machinery genuinely uses them: such a member is not convex (the
    ``convex`` flag says so), and it can be evaluated and inverted but not
    solved for a norm or conjugated.
    """

    r: float = 1.0
    delta: float = 1.0

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
        return t**self.r * _one_plus_log(t) ** self.delta

    def _slope_array(self, t: np.ndarray) -> np.ndarray:
        onelog, big = _one_plus_log(t), t > 1.0
        return t ** (self.r - 1.0) * onelog ** (self.delta - 1.0) * (self.r * onelog + self.delta * big)

    def _eval_and_slope(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # one log per cell for both
        r, d = self.r, self.delta
        onelog = _one_plus_log(t)
        slope = r * onelog
        if d != 0.0:  # adding 0 keeps every bit, as slope >= r > 0
            slope += d * (t > 1.0)
        factor = _power_product(t, r - 1.0, onelog, d - 1.0)
        if factor is not None:
            slope *= factor
        return _power_product(t, r, onelog, d), slope

    def log_power(self) -> tuple[float, float, int] | None:
        return (1.0, float(self.r), int(self.delta)) if float(self.delta).is_integer() else None


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

    def _slope_array(self, t: np.ndarray) -> np.ndarray:
        return np.exp(t ** (1.0 / self.alpha)) * t ** (1.0 / self.alpha - 1.0) / self.alpha

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

    def _slope_array(self, t: np.ndarray) -> np.ndarray:
        return (np.exp(self.a * t ** (1.0 / self.alpha)) * t ** (1.0 / self.alpha - 1.0)
                * (self.a / self.alpha))

    def _inverse_array(self, y: np.ndarray) -> np.ndarray:
        return (np.log1p(y) / self.a) ** self.alpha


@dataclass(frozen=True)
class Identity(YoungFunction):
    """phi(t) = t."""

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(t, dtype=np.float64)

    def _inverse_array(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=np.float64)

    def log_power(self) -> tuple[float, float, int]:
        return 1.0, 1.0, 0


@dataclass(frozen=True)
class Step(YoungFunction):
    """phi(t) = 0 for t <= threshold, +inf beyond: the conjugate of c*t.

    Its Luxemburg norm is the essential sup of |f| over the threshold,
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


@dataclass(frozen=True)
class LegendreConjugate(YoungFunction):
    """Complementary function sup_s {t s - phi(s)} of a convex base, exactly.

    The sup is attained at the least s with phi'(s) >= t, which is also the
    conjugate's left derivative at t, and Young's equality gives the value
    t s - phi(s) there.  The inverse is inf_s (y + phi(s)) / s, attained at
    the least s with s phi'(s) - phi(s) >= y (the conjugate's value at
    phi'(s)); at y = 0 it is the limit phi'(0).  Each optimizing s is one
    :func:`_least_root`, so values and inverses are exact up to the root's
    relative width 1e-15 at every height.  Where the optimizing slope
    or t s overflows, the value is +inf.
    """

    base: "YoungFamily"

    def __post_init__(self) -> None:
        _require_convex(self.base)

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        return self._eval_and_slope(t)[0]

    def _eval_and_slope(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the optimizing s is the slope, so one root per height gives both
        s = self._slope_array(t)
        with np.errstate(over="ignore", invalid="ignore"):
            val = t * s - self.base._eval_array(s)
            return np.where(np.isnan(val), np.inf, np.maximum(val, 0.0)), s

    def _slope_array(self, t: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return _least_root(self.base._slope_array, t)

    def _gap_array(self, s: np.ndarray) -> np.ndarray:
        """s phi'(s) - phi(s), nondecreasing in s for a convex phi."""
        val, slope = self.base._eval_and_slope(s)
        return s * slope - val

    def _inverse_array(self, y: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            s = _least_root(self._gap_array, y)
            at_zero = self.base._slope_array(np.zeros_like(s))
            return np.where(s > 0.0, (y + self.base._eval_array(s)) / s, at_zero)


YoungFamily = Union[Power, LLogL, ExpL, ExpAlphaL, Identity, Step, LegendreConjugate]


def complementary(phi: YoungFunction) -> YoungFunction:
    """Exact complementary Young function of ``phi``.

    Closed forms where they exist: powers conjugate to powers with the
    matching coefficient, the linear/step pair conjugate to each other.
    Everything else, ``LLogL(1, alpha)`` included, is the
    :class:`LegendreConjugate` of ``phi``.  The classical equivalent form
    ``ExpL(alpha)`` of that family agrees with it only up to constants for
    large arguments (the test oracle ``conjugate_equivalence_constant``
    measures how far), so it is never returned here.
    """
    scale = _linear_scale(phi)
    if scale is not None:
        return Step(scale)
    if isinstance(phi, Step):
        return Power(1.0, phi.threshold)
    if isinstance(phi, Power):
        rp = phi.r / (phi.r - 1.0)
        coef = (phi.r - 1.0) / phi.r * (phi.coef * phi.r) ** (-1.0 / (phi.r - 1.0))
        return Power(rp, coef)
    return LegendreConjugate(phi)


@dataclass(frozen=True, eq=False)
class LuxemburgQuery:
    """One Orlicz-norm evaluation ``||f||_{phi, Q}``, over Lebesgue measure on Q."""

    f: SampledFunction
    Q: DyadicInterval
    phi: YoungFunction

    def __post_init__(self) -> None:
        if self.Q.grid != self.f.grid:
            raise GeometryError("query interval lives on a different grid than f")
        if self.Q.is_empty:
            raise GeometryError(f"query interval j={self.Q.j}, k={self.Q.k} contains no cells")


def _linear_scale(phi: YoungFunction) -> float | None:
    """Slope c when phi(t) = c*t exactly (the ``(c, 1, 0)`` case of
    :meth:`YoungFunction.log_power`), else None.

    The linear family short-circuits the Newton solver: the norm is c times the
    average of |f|.  This is also what makes the Orlicz maximal
    function with the identity collapse bitwise onto the plain one.
    """
    form = phi.log_power()
    return form[0] if form is not None and form[1:] == (1.0, 0) else None


@lru_cache(maxsize=64)
def _unit_argument(phi: YoungFunction) -> float:
    """c = phi^{-1}(1); for the bisecting families one inverse costs milliseconds."""
    return float(phi.inverse(1.0))


def segmented_luxemburg_norms(phi: YoungFunction, block: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Luxemburg norms of |block| over the ranges that start at ``off``.

    ``off`` rises strictly from 0, as ``np.add.reduceat`` reads it: range k
    is ``block[off[k]:off[k + 1]]`` and the last one runs to the end of the
    block.  Any other ``off`` is refused with :class:`GeometryError`.
    Per-range sums are ``np.add.reduceat`` over the block, with the cell
    average as the modular, so the cell width never enters.  Since
    phi(0) = 0 the modular runs only over the cells where f != 0, and a
    range without such cells has norm 0.  The linear family is its slope
    times the mean and ``Step`` the sup over its threshold, both in closed
    form.

    Every other phi is solved for s = 1/lam, on g(s) = avg phi(s|f|) - 1,
    by a safeguarded Newton iteration (in units of 1/max|f|, so that no
    amplitude overflows).  With c = phi^{-1}(1) the root lies in the closed
    bracket [c / max|f|, c / mean|f|]: at the left end phi(s|f|) <= 1 on
    every cell, and at the right end g >= 0 by Jensen's inequality, which is
    why a non-convex phi is refused.  Newton starts at the right end.  A step
    that is not finite, leaves the bracket (an exponential phi overflowing) or
    covers more than half the previous one is replaced by the geometric
    midpoint of the bracket.  Every step reads the value and the slope from
    one ``_eval_and_slope`` and updates the bracket and the iterate in
    place.  When only one range has a cell where f != 0,
    it is solved by the float iteration of :func:`luxemburg_norm`, the same
    float at a fraction of the numpy calls on arrays of one range.

    The feasible side is returned: lam is raised by 2e-13 relative, and by a
    doubling amount after that, until the modular avg phi(|f| / lam) is
    <= 1 - 1e-13, so a recomputation in another summation order still reads
    <= 1.  For finite-valued phi and f not a.e. zero it is >= 1 - 1e-6, and
    lam exceeds the exact norm by a few parts in 1e13.  So lam <= max|f| /
    phi^{-1}(1) * (1 + 1e-12) on every range, since the modular at max|f| /
    phi^{-1}(1) is at most phi(phi^{-1}(1)) = 1; the Orlicz maximal function
    skips the ranges whose bound cannot raise it.
    """
    _require_convex(phi)
    block = np.asarray(block, dtype=np.float64)
    off = np.asarray(off, dtype=np.int64)
    if off.size == 0 or off[0] != 0 or off[-1] >= block.size or np.any(off[1:] <= off[:-1]):
        raise GeometryError("segmented norms need range offsets rising from 0 inside the block")
    width = _run_lengths(off, block.size).astype(np.float64)

    scale = _linear_scale(phi)
    if scale is not None:
        return scale * (np.add.reduceat(np.abs(block), off) / width)

    nz = np.flatnonzero(block)
    first = np.searchsorted(nz, off)
    count = _run_lengths(first, nz.size)
    live = count > 0
    out = np.zeros(off.size, dtype=np.float64)
    if not live.any():
        return out
    # the live ranges own consecutive runs of the nonzero cells
    rep, at, wl = count[live], first[live], width[live]
    fa = np.abs(block[nz])
    del nz  # an index per cell: the solve below holds one grid array less
    top = np.maximum.reduceat(fa, at)
    if isinstance(phi, Step):
        out[live] = top / phi.threshold
        return out
    if at.size == 1:
        out[live] = _lone_range_norm(phi, fa, float(top[0]), float(wl[0]))
        return out

    def average(vals):
        total = np.add.reduceat(vals, at)
        total /= wl
        return total

    # every step below writes its arrays in place; ``cells`` is the one per-cell work array
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # per-range scale: the solver's unknown is u = max|f| / lam, so no amplitude
        # can overflow or underflow it, and the top cell of every range has fn = 1
        fn = fa / np.repeat(top, rep)
        cells = np.empty_like(fn)

        def newton_terms(u):
            val, slope = phi._eval_and_slope(np.multiply(fn, np.repeat(u, rep), out=cells))
            g = average(val)
            g -= 1.0
            return g, average(np.multiply(slope, fn, out=cells))

        c = _unit_argument(phi)
        u = c / average(fn)
        g, dg = newton_terms(u)
        left, right, last = np.full(u.size, c), u.copy(), u - c
        act = np.ones(u.size, dtype=bool)
        step = np.empty_like(u)
        for _ in range(100):
            up = g >= 0.0
            np.copyto(right, u, where=up)
            np.copyto(left, u, where=~up)
            nxt = np.subtract(u, np.divide(g, dg, out=g), out=g)
            # Newton unless phi overflows, the step leaves the bracket or it stalls (an
            # exponential far from its root steps by about 1/max|f|): then the midpoint
            wild = ~np.isfinite(nxt) | ~np.isfinite(dg) | (nxt < left) | (nxt > right)
            wild |= np.abs(np.subtract(nxt, u, out=step), out=step) > 0.5 * last
            np.copyto(nxt, np.sqrt(left) * np.sqrt(right), where=wild)
            np.copyto(last, np.abs(np.subtract(nxt, u, out=step), out=step), where=act)
            np.copyto(u, nxt, where=act)
            act &= last > 1e-13 * u
            if not act.any():
                break
            g, dg = newton_terms(u)
        else:
            raise RangeError("Luxemburg Newton iteration did not converge")

        lam = top / u
        lam *= 1.0 + 2e-13
        raise_by = 2e-13
        for _ in range(60):
            over = average(phi._eval_array(np.divide(fa, np.repeat(lam, rep), out=cells))) > 1.0 - 1e-13
            over &= lam > 0.0  # a norm below the least subnormal rounds to 0
            if not over.any():
                break
            raise_by *= 2.0
            np.multiply(lam, 1.0 + raise_by, out=lam, where=over)
        else:
            raise RangeError("Luxemburg norm did not reach the feasible side")
    out[live] = lam
    return out


def _run_lengths(starts: np.ndarray, end: int) -> np.ndarray:
    """Lengths of the runs that begin at the rising ``starts``, the last one up to ``end``."""
    lengths = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1] = end - starts[-1]
    return lengths


#: the one range start of a single-range sum, ``np.add.reduceat(x, _FIRST)[0]``
_FIRST = np.zeros(1, dtype=np.intp)


def _range_sum(x: np.ndarray) -> float:
    """The sum :func:`segmented_luxemburg_norms` takes over one range."""
    return float(np.add.reduceat(x, _FIRST)[0])


def luxemburg_norm(q: LuxemburgQuery) -> float:
    """Luxemburg norm inf{lam > 0 : avg phi(|f|/lam) <= 1} on Q.

    The array iteration of :func:`segmented_luxemburg_norms` on the one range
    Q, step for step, with the bracket, the Newton iterate and the
    feasibility raise held in floats instead of arrays: the same float, at a
    fraction of the numpy calls (the segmented solver takes it too, for a
    lone range).  A float divided by 0 raises where numpy returns inf or nan,
    so a zero slope counts as a wild step up front.  No convex family reaches
    that guard: the top cell has fn = 1 and u >= c = phi^{-1}(1), where the
    slope is >= 1/c.  A non-convex phi is refused, as by the segmented solver.
    """
    _require_convex(q.phi)
    phi, absf = q.phi, np.abs(q.f.values[q.Q.cell_slice])
    n = float(absf.size)

    scale = _linear_scale(phi)
    if scale is not None:
        return scale * (_range_sum(absf) / n)
    fa = absf[np.flatnonzero(absf)]
    if fa.size == 0:
        return 0.0
    top = float(fa.max())
    if isinstance(phi, Step):
        return top / phi.threshold
    return _lone_range_norm(phi, fa, top, n)


def _lone_range_norm(phi: YoungFunction, fa: np.ndarray, top: float, n: float) -> float:
    """The norm of one range of ``n`` cells from its nonzero |f| values ``fa``,
    the largest of which is ``top``: the float iteration of both solvers."""
    fn = fa / top

    def average(vals: np.ndarray) -> float:
        return _range_sum(vals) / n

    def newton_terms(u: float) -> tuple[float, float]:
        val, slope = phi._eval_and_slope(fn * u)
        return average(val) - 1.0, average(slope * fn)

    c = _unit_argument(phi)
    u = c / average(fn)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        g, dg = newton_terms(u)
        left, right, last = c, u, u - c
        for _ in range(100):
            if g >= 0.0:
                right = u
            else:
                left = u
            wild = dg == 0.0 or not math.isfinite(dg)
            if not wild:
                nxt = u - g / dg
                wild = (not math.isfinite(nxt) or nxt < left or nxt > right
                        or abs(nxt - u) > 0.5 * last)
            if wild:
                nxt = math.sqrt(left) * math.sqrt(right)
            last, u = abs(nxt - u), nxt
            if not last > 1e-13 * u:
                break
            g, dg = newton_terms(u)
        else:
            raise RangeError("Luxemburg Newton iteration did not converge")

        lam = top / u * (1.0 + 2e-13)
        raise_by = 2e-13
        for _ in range(60):
            # a norm below the least subnormal rounds to 0
            if not (average(phi._eval_array(fa / lam)) > 1.0 - 1e-13 and lam > 0.0):
                break
            raise_by *= 2.0
            lam *= 1.0 + raise_by
        else:
            raise RangeError("Luxemburg norm did not reach the feasible side")
    return lam


def _golden_section(objective, a: float, b: float) -> tuple[float, float, float]:
    """Golden-section search of [a, b] to relative width 1e-6: the final left end
    and the objective at the two final interior points."""
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
    return a, fc, fd


def modular_inf(q: LuxemburgQuery) -> float:
    """The equivalent quantity inf_tau {tau + tau * avg phi(|f|/tau)}.

    For convex phi the objective is convex in tau (tau plus the perspective
    of phi), and its minimizer lies below the modular infimum, which lies
    between the norm and twice the norm.  One golden-section search over
    the Luxemburg norm times [1e-3, 1e3], stopped at relative width 1e-6,
    finds it.  A search that never leaves the lower end (a Power(r) with r
    within about 1e-3 of 1, whose minimizer is (r - 1)^(1/r) times the norm)
    lowers that end by 1e3 and searches again, at most ten times.  A linear
    phi has its infimum, the norm, only in the limit tau -> 0, so it returns
    the norm.  Where phi overflows at small tau the objective is inf or nan;
    the comparison then fails and the search moves right, toward the
    minimum.  The objective at tau = norm is a candidate too: the modular
    there is <= 1, so the returned value is <= 2 * norm by construction,
    even where that bound is met with equality (Power(2)).  A non-convex phi
    is refused by :func:`luxemburg_norm`, the search's first step.
    """
    norm = luxemburg_norm(q)
    if norm == 0.0 or _linear_scale(q.phi) is not None:
        return norm
    absf, phi = np.abs(q.f.values[q.Q.cell_slice]), q.phi
    total = float(absf.size)

    def objective(tau: float) -> float:
        return tau * (1.0 + float(np.add.reduce(phi._eval_array(absf / tau))) / total)

    low = 1e-3 * norm
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(10):
            a, fc, fd = _golden_section(objective, low, 1e3 * norm)
            if a > low:
                break
            low *= 1e-3
        return float(min(fc, fd, objective(norm)))


@dataclass(frozen=True)
class DualityGap:
    """Ratio PhiInv(t) * BarPhiInv(t) / t and its check against [0.95, 2.05]."""

    ratio: float
    passed: bool


def duality_gap(phi: YoungFunction, t: float) -> DualityGap:
    """Check the two-sided duality identity t <= PhiInv(t)*BarPhiInv(t) <= 2t.

    The conjugate is :func:`complementary`'s exact one (the Legendre
    transform where no closed form exists): the equivalent exponential form
    of ``LLogL(1, alpha)`` breaks the lower bound for small t.  The band
    [0.95, 2.05] leaves 0.05 on each side of the identity.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"duality check needs finite t > 0, got {t}")
    bar = complementary(phi)
    ratio = phi.inverse(t) * bar.inverse(t) / t
    return DualityGap(ratio=ratio, passed=bool(0.95 <= ratio <= 2.05))

"""Discrete principal-value Hilbert transform and BMO-symbol commutators.

The transform is the midpoint quadrature of the convolution with 1/(pi x),
with the singular cell excluded: the symmetric epsilon = h/2 truncation is
what keeps the odd kernel's cancellation exact, so an even input produces an
odd output to machine precision.

On the uniform grid ``h K(x_i - x_j) = coef / (i - j)``, a Toeplitz matvec
(``c_0 = 0`` is the excluded cell), applied by FFT after embedding it in a
circulant of length 2N.  The commutator kernel (b(x) - b(y))^m K(x - y) is
not a convolution, but the binomial expansion of the symbol difference gives
T_b^m f = sum_k C(m, k) (-1)^k b^(m-k) T(b^k f): m + 1 transforms in one
batched FFT.  b is first shifted by its midrange (T_b^m ignores constants),
which keeps the cancellation small and sends a constant symbol to exactly 0.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._errors import DomainError, GridMismatchError
from .grid import SampledFunction

__all__ = [
    "ConvolutionKernel",
    "HILBERT_KERNEL",
    "SmoothnessResult",
    "hilbert",
    "commutator",
    "kernel_smoothness_check",
    "random_admissible_triples",
]


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


def _toeplitz_apply(rows: np.ndarray, coef: float) -> np.ndarray:
    """sum_{j != i} coef / (i - j) * rows[..., j] along the last axis, by FFT."""
    n = rows.shape[-1]
    k = np.arange(1, n, dtype=np.float64)
    column = np.concatenate(([0.0], coef / k, [0.0], -coef / k[::-1]))  # c_{-k} = -c_k
    return np.fft.irfft(np.fft.rfft(rows, 2 * n) * np.fft.rfft(column), 2 * n)[..., :n]


def hilbert(f: SampledFunction, kernel: ConvolutionKernel = HILBERT_KERNEL) -> SampledFunction:
    """Truncated principal-value transform h * sum_{j != i} K(x_i - x_j) f_j."""
    return SampledFunction(f.grid, _toeplitz_apply(f.values, kernel.coef))


def commutator(
    b: SampledFunction,
    f: SampledFunction,
    m: int,
    kernel: ConvolutionKernel = HILBERT_KERNEL,
) -> SampledFunction:
    """Order-m commutator T_b^m f with the symbol difference kernel.

    m = 0 is the plain transform; m = 1 agrees with b T(f) - T(b f) at the
    quadrature level because both routes exclude the same diagonal cell.
    """
    if m < 0:
        raise DomainError(f"commutator order must be >= 0, got {m}")
    if b.grid != f.grid:
        raise GridMismatchError("symbol and argument must share a grid")
    if m == 0:
        return hilbert(f, kernel)
    bv = b.values - 0.5 * (float(np.max(b.values)) + float(np.min(b.values)))
    powers = bv ** np.arange(m + 1)[:, None]  # row k is b^k
    binomial = np.array([math.comb(m, k) * (-1) ** k for k in range(m + 1)], dtype=np.float64)
    terms = binomial[:, None] * powers[::-1] * _toeplitz_apply(powers * f.values, kernel.coef)
    return SampledFunction(f.grid, terms.sum(axis=0))


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

"""Discrete principal-value Hilbert transform and BMO-symbol commutators.

The transform is the midpoint quadrature of the convolution with 1/(pi x),
with the singular cell excluded: the symmetric epsilon = h/2 truncation is
what keeps the odd kernel's cancellation exact, so an even input produces an
odd output to machine precision.

With ``K(x) = 1 / (pi x)`` the uniform grid gives
``h K(x_i - x_j) = 1 / (pi (i - j))``, a Toeplitz matvec (``c_0 = 0`` is the
excluded cell), applied by FFT after embedding it in a circulant of length
2N.  The kernel is fixed; its standard-kernel smoothness constant is
measured by a test oracle (``tests/oracles.py``).  The commutator kernel
(b(x) - b(y))^m K(x - y) is not a convolution, but the binomial expansion of
the symbol difference gives T_b^m f = sum_k C(m, k) (-1)^k b^(m-k) T(b^k f):
m + 1 transforms in one batched FFT.  b is first shifted by its midrange
(T_b^m ignores constants), which keeps the cancellation small and sends a
constant symbol to exactly 0.
"""

from __future__ import annotations

import math

import numpy as np

from ._errors import DomainError, GridMismatchError
from .grid import SampledFunction

__all__ = [
    "hilbert",
    "commutator",
]


def _toeplitz_apply(rows: np.ndarray) -> np.ndarray:
    """sum_{j != i} rows[..., j] / (pi (i - j)) along the last axis, by FFT."""
    n = rows.shape[-1]
    coef = 1.0 / math.pi
    k = np.arange(1, n, dtype=np.float64)
    column = np.concatenate(([0.0], coef / k, [0.0], -coef / k[::-1]))  # c_{-k} = -c_k
    return np.fft.irfft(np.fft.rfft(rows, 2 * n) * np.fft.rfft(column), 2 * n)[..., :n]


def hilbert(f: SampledFunction) -> SampledFunction:
    """Truncated principal-value transform h * sum_{j != i} f_j / (pi (x_i - x_j))."""
    return SampledFunction(f.grid, _toeplitz_apply(f.values))


def commutator(b: SampledFunction, f: SampledFunction, m: int) -> SampledFunction:
    """Order-m commutator T_b^m f with the symbol difference kernel.

    m = 0 is the plain transform (one batched transform of b^0 f = f); m = 1
    agrees with b T(f) - T(b f) at the quadrature level because both routes
    exclude the same diagonal cell.
    """
    if m < 0:
        raise DomainError(f"commutator order must be >= 0, got {m}")
    if b.grid != f.grid:
        raise GridMismatchError("symbol and argument must share a grid")
    bv = b.values - 0.5 * (float(np.max(b.values)) + float(np.min(b.values)))
    powers = bv ** np.arange(m + 1)[:, None]  # row k is b^k
    binomial = np.array([math.comb(m, k) * (-1) ** k for k in range(m + 1)], dtype=np.float64)
    terms = binomial[:, None] * powers[::-1] * _toeplitz_apply(powers * f.values)
    return SampledFunction(f.grid, terms.sum(axis=0))

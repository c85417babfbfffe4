"""Sobolev, C^r and Slobodeckij norms for periodic fields.

The H^s norm of a d-component field is computed from Fourier coefficients
with the weight (1 + |2 pi k|^2)^s,

    ||f||_s^2 = sum_k (1 + 4 pi^2 |k|^2)^s |fhat_k|^2,

summed over components.  For integer s the same norm can be assembled from
plain L2 norms of mixed partials; the two routes agree up to an explicit
multinomial constant, which norm_equivalence_constant returns.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .grid import (
    GridFunction,
    GridSpec,
    Spectrum,
    TWO_PI,
    differentiate_multi,
    forward_transform,
    inverse_transform,
)


def sobolev_weight(spec: GridSpec, s: float) -> np.ndarray:
    return (1.0 + TWO_PI**2 * spec.wavevector_sq()) ** s


def hs_norm(F: Spectrum, s: float) -> float:
    """Fourier-side H^s norm; s may be fractional or zero."""
    return float(hs_norm_rows(F, s, 1)[0])


def hs_norm_rows(F: Spectrum, s: float, rows: int) -> np.ndarray:
    """H^s norms of `rows` fields stacked in order on F's component axis."""
    w = sobolev_weight(F.spec, s)
    return np.sqrt(np.sum((w[None] * np.abs(F.coeffs) ** 2).reshape(rows, -1), axis=-1))


def multi_indices(dim: int, max_order: int) -> list[tuple[int, ...]]:
    """All multi-indices alpha with |alpha| <= max_order."""
    out = []
    for total in range(max_order + 1):
        for alpha in itertools.product(range(total + 1), repeat=dim):
            if sum(alpha) == total:
                out.append(alpha)
    return out


def hs_norm_derivative(f: GridFunction, s: int) -> float:
    """Integer-s H^s norm as sqrt(sum of ||d^alpha f||_0^2, |alpha| <= s).

    Each mixed partial enters once, unweighted.  Pointwise in frequency the
    weight is sum_{|alpha|<=s} xi^{2 alpha}, which brackets the Fourier
    weight (1+|xi|^2)^s between factors 1 and C_s^2 (multinomial maximum),
    so hs_norm / hs_norm_derivative always lies in [1, C_s] for fields
    without Nyquist content.  Derivatives are spectral.
    """
    return float(hs_norm_derivative_rows(f, s, 1)[0])


def hs_norm_derivative_rows(f: GridFunction, s: int, rows: int) -> np.ndarray:
    """hs_norm_derivative of `rows` fields stacked in order on f's component axis."""
    if s != int(s) or s < 0:
        raise ValueError(f"derivative-form norm needs integer s >= 0, got {s}")
    F = forward_transform(f)
    total = np.zeros(rows)
    for alpha in multi_indices(f.spec.dim, int(s)):
        dF = differentiate_multi(F, alpha)
        total += np.sum((np.abs(dF.coeffs) ** 2).reshape(rows, -1), axis=-1)
    return np.sqrt(total)


def _multinomial(s: int, alpha: tuple[int, ...]) -> float:
    """s! / (alpha! (s - |alpha|)!) as an exact float."""
    rest = s - sum(alpha)
    denom = math.prod(math.factorial(a) for a in alpha) * math.factorial(rest)
    return math.factorial(s) / denom


def norm_equivalence_constant(s: int, dim: int) -> float:
    """C_s with ||f||_s(Fourier) <= C_s * derivative-form sum of plain L2
    squares; equals sqrt(max multinomial coefficient of (1+|xi|^2)^s)."""
    best = max(_multinomial(int(s), alpha) for alpha in multi_indices(dim, int(s)))
    return float(np.sqrt(best))


def cr_norm(f: GridFunction, r: int) -> float:
    """C^r norm: max over |alpha| <= r of the grid sup of |d^alpha f|."""
    return float(cr_norm_rows(f, r, 1)[0])


def cr_norm_rows(f: GridFunction, r: int, rows: int) -> np.ndarray:
    """cr_norm of `rows` fields stacked in order on f's component axis."""
    if r < 0 or r != int(r):
        raise ValueError(f"r must be a nonnegative integer, got {r}")
    F = forward_transform(f)
    best = np.zeros(rows)
    for alpha in multi_indices(f.spec.dim, int(r)):
        vals = inverse_transform(differentiate_multi(F, alpha)).values
        best = np.maximum(best, np.max(np.abs(vals).reshape(rows, -1), axis=-1))
    return best


def embedding_constant(spec: GridSpec, s: float) -> float:
    """Discrete embedding constant: sup|f| <= K * ||f||_s for band-limited
    fields, K = sqrt(sum over the grid's modes of (1+|2 pi k|^2)^{-s})."""
    if s <= spec.dim / 2:
        raise ValueError(f"need s > dim/2 for the sup bound, got s={s}")
    return float(np.sqrt(np.sum(sobolev_weight(spec, -s))))


def slobodeckij_seminorm(f: GridFunction, lam: float) -> float:
    """Fractional seminorm on T^n via the double-integral quadrature

    [f]_lam^2 ~ h^2n * sum_{i != j} |f(x_i)-f(x_j)|^2 / d(x_i,x_j)^{n+2 lam}

    with d the periodic distance and h = 1/N; diagonal terms are excluded.
    By Parseval the double sum is one Fourier multiplier: with w = d(x, 0)^{-(n+2 lam)}
    on the grid (w(0) = 0) and K = 2 (sum w - Re fftn(w)), it equals
    sum_k K(k) |fhat_k|^2 / N^n (Di Nezza, Palatucci & Valdinoci 2012, Prop. 3.4).
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0,1), got {lam}")
    spec = f.spec
    d2 = spec.wavevector_sq() / spec.size**2
    w = np.power(d2, -(spec.dim + 2.0 * lam) / 2.0, out=np.zeros(spec.shape), where=d2 > 0)
    kernel = 2.0 * (np.sum(w) - np.fft.fftn(w).real)
    kernel.flat[0] = 0.0
    power = np.abs(forward_transform(f).coeffs) ** 2
    return float(np.sqrt(np.sum(kernel * power) / spec.num_points))

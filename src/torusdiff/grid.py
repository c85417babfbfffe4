"""Spectral grids on the unit torus.

Fields live on regular grids over [0,1)^n (n = 1 or 2) and are represented
either by their values at the grid points or by their Fourier coefficients.
All transforms use the convention

    fhat_k = N^{-n} * sum_j f(x_j) exp(-2*pi*i k.x_j),

so that fhat_0 is the mean value and Parseval reads
sum_k |fhat_k|^2 = mean_j |f(x_j)|^2.  Wavevectors are integers in standard
FFT ordering; the Nyquist slot k = -N/2 is treated as the real cosine mode
cos(pi*N*x) wherever point evaluation or grid refinement needs an
unambiguous trigonometric interpolant.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class GridSpec:
    """Regular periodic grid: `size` points per axis on [0,1)^dim."""

    dim: int
    size: int

    def __post_init__(self):
        for name, value in (("dim", self.dim), ("size", self.size)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.size < 8 or self.size % 2 != 0:
            raise ValueError(f"size must be even and >= 8, got {self.size}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.size,) * self.dim

    @property
    def num_points(self) -> int:
        return self.size**self.dim

    def axis_coordinates(self) -> np.ndarray:
        return np.arange(self.size) / self.size

    def points(self) -> np.ndarray:
        """All grid points, shape (num_points, dim), C order."""
        x = self.axis_coordinates()
        if self.dim == 1:
            return x[:, None]
        return np.stack(np.meshgrid(*[x] * self.dim, indexing="ij"), axis=-1).reshape(-1, self.dim)

    def wavenumbers(self) -> np.ndarray:
        """Integer wavenumbers along one axis in FFT order."""
        return np.fft.fftfreq(self.size, d=1.0 / self.size)

    def wavevector_sq(self) -> np.ndarray:
        """|k|^2 on the full spectral grid, shape == self.shape."""
        return reduce(np.add.outer, [self.wavenumbers() ** 2] * self.dim)

    def refined(self, factor: int) -> "GridSpec":
        return GridSpec(self.dim, self.size * factor)

    def spatial_axes(self) -> tuple[int, ...]:
        """Axes of a (components, *shape) array that carry space."""
        return tuple(range(1, self.dim + 1))


def _as_component_array(spec: GridSpec, values: np.ndarray, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    if arr.shape == spec.shape:
        arr = arr[None]
    if arr.ndim != spec.dim + 1 or arr.shape[1:] != spec.shape:
        raise ValueError(
            f"expected shape (d,) + {spec.shape} or {spec.shape}, got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite entries")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GridFunction:
    """Real d-component field sampled on a grid; values shape (d, *shape)."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _as_component_array(self.spec, self.values, np.float64)
        )

    @property
    def num_components(self) -> int:
        return self.values.shape[0]

    def flat_points_values(self) -> np.ndarray:
        """Values as (num_points, d), matching GridSpec.points() order."""
        return self.values.reshape(self.num_components, -1).T


@dataclass(frozen=True)
class Spectrum:
    """Fourier coefficients of a real field; coeffs shape (d, *shape).

    Construction enforces Hermitian symmetry fhat_{-k} = conj(fhat_k) up to
    a small relative tolerance, so a Spectrum always represents a real field;
    the package's producers, exactly Hermitian by construction, skip it (_trusted).
    """

    spec: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = _as_component_array(self.spec, self.coeffs, np.complex128)
        object.__setattr__(self, "coeffs", c)
        scale = np.max(np.abs(c)) if c.size else 0.0
        if scale > 0.0:
            err = np.max(np.abs(np.conj(_mirror_modes(self.spec, c)) - c))
            if err > 1e-12 * max(scale, 1.0):
                raise ValueError(
                    f"coefficients are not Hermitian-symmetric (defect {err:.3e})"
                )

    @property
    def num_components(self) -> int:
        return self.coeffs.shape[0]


def _trusted(cls, spec: GridSpec, arr: np.ndarray):
    """`cls(spec, arr)` (Spectrum or GridFunction) for an array an internal
    producer just computed in the exact (d, *shape) layout and dtype: made
    read-only in place, with no copy, finiteness scan or Hermitian re-check.
    Public construction (codecs, user code) keeps every check."""
    arr.flags.writeable = False
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, (spec, arr)):
        object.__setattr__(obj, name, value)
    return obj


def _mirror_modes(spec: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """coeffs re-indexed k -> -k along every spatial axis."""
    neg = -np.arange(spec.size) % spec.size  # FFT slot of -k for each slot k
    mirror = coeffs
    for ax in spec.spatial_axes():
        mirror = np.take(mirror, neg, axis=ax)
    return mirror


def forward_transform(f: GridFunction) -> Spectrum:
    """FFT normalized so fhat_k = mean(f * e^{-2 pi i k.x}).

    The raw FFT of real values is Hermitian only to roundoff; the result
    is symmetrized exactly so that later per-mode operations (which all
    preserve exact symmetry) can never drift out of the real class, even
    after high-order differentiation amplifies high modes.
    """
    axes = f.spec.spatial_axes()
    coeffs = np.fft.fftn(f.values, axes=axes) / f.spec.num_points
    coeffs = 0.5 * (coeffs + np.conj(_mirror_modes(f.spec, coeffs)))
    return _trusted(Spectrum, f.spec, coeffs)


def inverse_transform(F: Spectrum) -> GridFunction:
    """Grid values by irfftn of the k_last = 0..N/2 half: the real part of
    the complex inverse FFT to 1e-14 * sum_k |fhat_k| on exactly Hermitian
    spectra, plus at most sum_k |fhat_k - conj(fhat_{-k})| / 2 otherwise."""
    spec, half = F.spec, F.coeffs[..., : F.spec.size // 2 + 1]
    vals = np.fft.irfftn(half, s=spec.shape, axes=spec.spatial_axes())
    return _trusted(GridFunction, spec, np.multiply(vals, spec.num_points, out=vals))


def _extend_axis(coeffs: np.ndarray, axis: int, size: int) -> np.ndarray:
    """Reorder one FFT axis to -M/2..M/2 (M = size <= the axis length N),
    halving both ends: the Nyquist slot when M = N, zero slots when M < N."""
    half = size // 2
    ext = np.take(coeffs, np.arange(-half, half + 1) % coeffs.shape[axis], axis=axis)
    ext[(slice(None),) * axis + ([0, -1],)] *= 0.5
    return ext


# Points per block in `evaluate`: bounds the phase tables to O(_BLOCK_POINTS
# * M) complex entries (M = the band, _band_size) whatever the point count.
_BLOCK_POINTS = 512


def _band_size(coeffs: np.ndarray, size: int) -> int:
    """Smallest even M = 2 max|k| + 2 whose band |k| < M/2 holds every nonzero
    coefficient, or N: the outermost shell is tested first, so full-band
    spectra cost no scan."""
    shell = slice(size // 2 - 1, size // 2 + 2)
    if coeffs[:, shell].any() or coeffs[..., shell].any():
        return size
    kabs = np.minimum(np.arange(size), size - np.arange(size))  # |k| per slot
    used = np.nonzero(np.any(coeffs, axis=0))
    return 2 * max(int(kabs[i].max(initial=0)) for i in used) + 2


def _factor_sizes(size: int) -> tuple[int, int]:
    """(A, b) with b = isqrt(N/2) + 1 and A*b >= N/2+1, so k = a*b + c."""
    b = math.isqrt(size // 2) + 1
    return -(-(size // 2 + 1) // b), b


def _powers(w: np.ndarray, n: int) -> np.ndarray:
    """w**j for j = 0..n-1 as running products, shape (len(w), n): power j
    is power j-1 times w, one in-place multiply per power."""
    table = np.empty((n, len(w)), dtype=np.complex128)
    table[0] = 1.0
    for j in range(1, n):
        np.multiply(table[j - 1], w, out=table[j])
    return table.T


def _phases(x: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Factor tables of exp(2 pi i x k) for k = a*b + c (see _factor_sizes).

    Returns coarse (P, A) holding exp(2 pi i x a b) and fine (P, b) holding
    exp(2 pi i x c).  Each is the running product (_powers) of one
    exponential of x reduced mod 1 to [-1/2, 1/2]: two exponentials per
    point, then one complex multiply per table entry.  The factors have
    unit modulus, so the j-th power carries j roundings of ~1e-16 each.
    """
    A, b = _factor_sizes(size)
    x = x - np.round(x)
    coarse = _powers(np.exp(TWO_PI * 1j * b * x), A)
    return coarse, _powers(np.exp(TWO_PI * 1j * x), b)


def _phase_table(x: np.ndarray, size: int) -> np.ndarray:
    """exp(2 pi i x k) for k = 0..N/2, shape (P, N/2+1), from its factors;
    rows are contiguous, so its float64 view interleaves (cos, sin)."""
    coarse, fine = _phases(x, size)
    table = np.multiply(coarse[:, :, None], fine[:, None, :], order="C")
    return table.reshape(len(x), -1)[:, : size // 2 + 1]


def evaluate(F: Spectrum, points: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant at arbitrary points.

    points: (P, dim) or (P,) when dim == 1.  Returns (d, P) real values.
    At grid points this reproduces the inverse transform exactly (up to
    rounding) for every real field, including ones with Nyquist content.

    Precision contract: the result differs from the dense sum
    Re sum_k fhat_k exp(2 pi i k.x) over k in [-N/2, N/2]^dim (Nyquist
    slots split evenly between k = -N/2 and k = N/2) by at most
    1e-13 * sum_k |fhat_k| per component, for points anywhere in
    [-1, 2]^dim.  Points are processed in blocks of at most 512, so the
    per-block temporaries stay O(512 * M * d) whatever P is.

    Cost model: the sum runs over the spectrum's band M (_band_size), so
    the cost scales with M, not N.  Two complex exponentials per point and
    axis (_phases).  1D builds no (P, M/2+1) phase table: the folded
    coefficients, laid out by k = a*b + c, meet the fine factor in one
    GEMM, then the coarse factor.  2D pairs k_2 with -k_2 into real cos and
    sin rows for one real GEMM with the (P, M+2) axis-1 table (half the flops
    of a complex one over k_2 = -M/2..M/2), then contracts k_1 point by point.
    """
    spec = F.spec
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != spec.dim:
        raise ValueError(f"points must have {spec.dim} columns, got {pts.shape}")
    size = _band_size(F.coeffs, spec.size)
    half = size // 2
    d = F.num_components
    ext = F.coeffs
    for ax in spec.spatial_axes():
        ext = _extend_axis(ext, ax, size)  # (d, M+1[, M+1]), k = -M/2..M/2
    # Re(c_k e_k) = Re(conj(c_k) e_{-k}): folding each term with k_1 < 0 onto
    # -k leaves the real part unchanged and halves the sum to k_1 = 0..M/2;
    # the k_1 = 0 terms fold onto each other, hence that row is halved.
    flip = (slice(None),) + (slice(None, None, -1),) * spec.dim
    fold = (ext + np.conj(ext[flip]))[:, half:]
    fold[:, 0] /= 2.0
    if spec.dim == 1:
        # zero-pad k_1 to A*b slots and lay them out as (c, (d, a))
        A, b = _factor_sizes(size)
        pad = np.zeros((d, A * b), dtype=np.complex128)
        pad[:, : half + 1] = fold
        fold = pad.reshape(d, A, b).transpose(2, 0, 1).reshape(b, d * A)
    else:
        # sum_k2 c e(k_2 y) = sum_{k_2 >= 0} (c_+ + c_-) cos + i (c_+ - c_-) sin,
        # k_2 = 0 once: complex rows (k_2, cos | sin), as reals (M+2, 2 d (M/2+1))
        pos, neg = fold[..., half:], fold[..., half::-1]
        fold = np.stack([pos + neg, 1j * (pos - neg)]).transpose(3, 0, 1, 2)
        fold[0, 0] = pos[..., 0]
        fold = fold.reshape(size + 2, -1).view(np.float64)
        gemm = np.empty((min(_BLOCK_POINTS, len(pts)), fold.shape[1]))  # one for every block
    out = np.empty((d, pts.shape[0]))
    for start in range(0, pts.shape[0], _BLOCK_POINTS):
        block = pts[start : start + _BLOCK_POINTS]
        if spec.dim == 1:
            coarse, fine = _phases(block[:, 0], size)
            inner = (fine @ fold).reshape(len(block), d, -1)  # (P, d, a)
            vals = inner @ coarse[:, :, None]
        else:
            ph1 = _phase_table(block[:, 1], size).view(np.float64)  # (P, M+2)
            inner = np.matmul(ph1, fold, out=gemm[: len(block)])
            inner = inner.view(np.complex128).reshape(len(block), d, half + 1)
            vals = inner @ _phase_table(block[:, 0], size)[:, :, None]
        out[:, start : start + _BLOCK_POINTS] = vals[:, :, 0].real.T
    return out


@lru_cache(maxsize=32)
def _symbol(spec: GridSpec, axis: int) -> np.ndarray:
    """Derivative symbol 2*pi*i*k along `axis`, Nyquist zeroed: one read-only
    array per (spec, axis), built on first use."""
    k = spec.wavenumbers()  # a fresh array
    k[spec.size // 2] = 0.0
    sym = (TWO_PI * 1j * k).reshape((1,) * axis + (-1,) + (1,) * (spec.dim - 1 - axis))
    sym.flags.writeable = False
    return sym


def differentiate(F: Spectrum, axis: int = 0) -> Spectrum:
    """Spectral partial derivative along a space axis (0-based)."""
    if not 0 <= axis < F.spec.dim:
        raise ValueError(f"axis {axis} out of range for dim {F.spec.dim}")
    return _trusted(Spectrum, F.spec, F.coeffs * _symbol(F.spec, axis))


def differentiate_multi(F: Spectrum, alpha: tuple[int, ...]) -> Spectrum:
    """Mixed partial d^alpha applied in spectral space."""
    if len(alpha) != F.spec.dim or any(a < 0 for a in alpha):
        raise ValueError(f"bad multi-index {alpha} for dim {F.spec.dim}")
    out = F.coeffs
    for axis, order in enumerate(alpha):
        if order:
            out = out * _symbol(F.spec, axis) ** order
    return _trusted(Spectrum, F.spec, out)


def fourier_truncate(F: Spectrum, cutoff: float) -> Spectrum:
    """Keep the modes with |k| <= cutoff and zero the rest."""
    if not 0 < cutoff <= F.spec.size // 2:
        raise ValueError(f"cutoff must lie in (0, N/2], got {cutoff}")
    mask = (np.sqrt(F.spec.wavevector_sq()) <= cutoff).astype(np.float64)
    return _trusted(Spectrum, F.spec, F.coeffs * mask[None])


def _half_modes(dim: int, size: int) -> np.ndarray:
    """One representative per conjugate mode pair, Nyquist excluded.

    A read-only (M, dim) integer array ordered by the l-infinity ring, then
    lexicographically, so that the list for a coarse grid is a prefix of
    the list for any finer grid: random fields drawn mode by mode then share
    their low modes across resolutions.
    """
    k = np.arange(1 - size // 2, size // 2)
    grid = np.stack(np.meshgrid(*[k] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    grid = grid[(grid[:, 0] > 0) | ((grid[:, 0] == 0) & (grid[:, -1] > 0))]
    modes = grid[np.argsort(np.max(np.abs(grid), axis=1), kind="stable")]
    modes.flags.writeable = False
    return modes


@lru_cache(maxsize=32)
def _mode_slots(dim: int, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|k|^2 and the flat slots of k and of -k on the (size,)*dim grid, for each
    mode k of _half_modes(dim, size): three read-only arrays."""
    pos = _half_modes(dim, size)
    ksq = np.sum(pos * pos, axis=1, dtype=np.float64)
    slots = [np.ravel_multi_index(tuple(sign * pos.T), (size,) * dim, mode="wrap")
             for sign in (1, -1)]
    for arr in (ksq, *slots):
        arr.flags.writeable = False
    return ksq, *slots


def _is_seed(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0


def _seed_list(seed) -> list:
    """`seed` (an integer, or a non-empty sequence of them), each >= 0, as a list."""
    try:
        seeds = [seed] if isinstance(seed, numbers.Integral) else list(seed)
    except TypeError:
        seeds = []
    if not seeds or not all(map(_is_seed, seeds)):
        raise ValueError(
            f"seed must be an integer >= 0 or a non-empty sequence of them, got {seed!r}")
    return seeds


def random_field(spec: GridSpec, s: float, seed, components: int = 1) -> Spectrum:
    """Seeded random field with coefficient decay (1+|k|^2)^{-(s+decay)/2},
    decay = dim/2 + 0.1 (0.6 on T^1, 1.1 on T^2), so the field lies in H^s.

    Each conjugate mode pair carries an independent standard complex
    Gaussian, so E|fhat_k|^2 = (1+|k|^2)^{-(s+decay)}.  Modes are drawn in a
    resolution-stable order (see _half_modes), the Nyquist slots stay zero,
    and the same seed always reproduces the same field bit for bit.

    `seed` is an integer >= 0 or a non-empty sequence of them.  A sequence
    gives one block of `components` rows per seed, in (seed, component)
    order, and block b equals random_field(spec, s, seed[b], components) bit
    for bit: each seed keeps its own generator.
    """
    seeds = _seed_list(seed)
    decay = spec.dim / 2 + 0.1
    ksq, pos, neg = _mode_slots(spec.dim, spec.size)
    sigma = (1.0 + ksq) ** (-(s + decay) / 2.0)
    # per row, the mean's draw and then the real and imaginary parts of the modes
    draws = np.empty((len(seeds), components, 1 + 2 * len(ksq)))
    for block, one in zip(draws, seeds):
        np.random.default_rng(one).standard_normal(out=block)
    draws = draws.reshape(-1, draws.shape[-1])
    coeffs = np.zeros((len(draws),) + spec.shape, dtype=np.complex128)
    flat = coeffs.reshape(len(draws), -1)  # a view: k = 0 is slot 0
    flat[:, 0] = draws[:, 0]
    vals = sigma * (draws[:, 1:].view(np.complex128) / np.sqrt(2.0))
    flat[:, pos] = vals
    flat[:, neg] = np.conj(vals)
    return _trusted(Spectrum, spec, coeffs)


def trig_polynomial(spec: GridSpec, sines=None, cosines=None) -> Spectrum:
    """Exact 1D spectrum of sum_k a_k sin(2 pi k x) + b_k cos(2 pi k x) for
    sines = {k: a_k}, cosines = {k: b_k}, integers |k| < N/2.  Only slots +-k
    are nonzero, so `evaluate` runs at band 2 max|k| + 2; the forward transform
    of samples carries FFT roundoff in every slot and evaluates at band N."""
    if spec.dim != 1:
        raise ValueError(f"trig_polynomial builds dim 1 spectra, got dim {spec.dim}")
    coeffs, half = np.zeros((1, spec.size), dtype=np.complex128), spec.size // 2
    for name, terms, unit in (("sines", sines, 2.0 * 1j), ("cosines", cosines, 2.0)):
        for k, a in (terms or {}).items():
            if isinstance(k, bool) or not isinstance(k, numbers.Integral) or abs(k) >= half:
                raise ValueError(f"{name} key {k!r} must be an integer with |k| < N/2 = {half}")
            c = a / unit  # a / (2i) keeps the real part +0.0
            coeffs[0, k] += c
            coeffs[0, -k] += np.conj(c)
    return Spectrum(spec, coeffs)


def refine(F: Spectrum, factor: int) -> GridFunction:
    """Trigonometric interpolation onto a grid refined by `factor`: bit for bit irfftn
    of the k_last >= 0 half zero-padded to the fine grid, with the 2D axis-0 inverse
    FFT run over the N/2+1 columns that hold it and irfft padding the rest (precision
    contract as in inverse_transform)."""
    if factor < 1 or not isinstance(factor, (int, np.integer)):
        raise ValueError(f"factor must be a positive integer, got {factor}")
    if factor == 1:
        return inverse_transform(F)
    spec = F.spec
    fine = spec.refined(factor)
    half = spec.size // 2
    # The k_last = 0..N/2 half of the -N/2..N/2 block, Nyquist split evenly.
    ext = F.coeffs[..., : half + 1].copy()
    ext[..., half] *= 0.5
    if spec.dim == 2:  # axis-0 inverse FFT over the k_2 = 0..N/2 columns alone
        cols = np.zeros((len(ext), fine.size, half + 1), complex)
        cols[:, np.arange(-half, half + 1) % fine.size] = _extend_axis(ext, 1, spec.size)
        ext = np.fft.ifft(cols, axis=1)
    vals = np.fft.irfft(ext, n=fine.size, axis=-1)  # zero-pads k_last up to 2N
    return _trusted(GridFunction, fine, np.multiply(vals, fine.num_points, out=vals))


def _restrict_axis(coeffs: np.ndarray, axis: int, coarse: int) -> np.ndarray:
    """Fold one fine FFT axis onto a coarse band, recombining +-N/2."""
    half = coarse // 2
    k = np.fft.fftfreq(coarse, d=1.0 / coarse).astype(int)  # -N/2 at slot N/2
    out = np.take(coeffs, k % coeffs.shape[axis], axis=axis)
    if coeffs.shape[axis] > coarse:  # +N/2 has a fine slot of its own
        out[(slice(None),) * axis + (half,)] += np.take(coeffs, half, axis=axis)
    return out


def band_project(f: GridFunction, coarse: GridSpec) -> Spectrum:
    """L2 projection of a finer-grid field onto the coarse spectral band."""
    if f.spec.dim != coarse.dim or f.spec.size % coarse.size:
        raise ValueError("coarse grid must divide the fine grid")
    c = forward_transform(f).coeffs
    for ax in coarse.spatial_axes():
        c = _restrict_axis(c, ax, coarse.size)
    return _trusted(Spectrum, coarse, c)

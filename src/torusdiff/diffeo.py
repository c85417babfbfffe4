"""Certified diffeomorphisms of the torus close to the identity.

A map phi = id + u (u periodic, same dimension as the grid) is accepted as
a diffeomorphism when two conditions hold everywhere on the torus:

  * orientation: det(d phi) stays above a configurable positive floor;
  * injectivity: sup over points of the operator norm of du is < 1, which
    makes x + u(x) a contraction argument away from collisions.

Both are checked on proven bounds, not on a grid sample: each map's
gradient splits at its own band into a trigonometric polynomial, bounded
from samples by the Ehlich-Zeller inequality (_sampled_bounds), and a tail
bounded by its l1 norm (certify_stack).

The second condition is sufficient but not necessary; it is the price of a
certificate that needs no global search.  Composition re-certifies its
output in full.  Newton inversion re-checks orientation and conditioning
but not the contraction bound: the computed map is the two-sided inverse
of a certified bijection (verified through its residual), so injectivity
holds by construction even when sup|d(phi^{-1} - id)| reaches 1.  Such
inverses carry `contraction_certified = False` in their certificate.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import (
    GridFunction,
    GridSpec,
    Spectrum,
    _symbol,
    _trusted,
    differentiate,
    evaluate,
    forward_transform,
    inverse_transform,
    refine,
)

CERT_REFINE = 4
DEFAULT_MIN_DET = 0.05
TAIL_SHARE = 1e-3  # gradient l1 tail past a map's certified band, per unit of margin
NEWTON_HALVINGS = 5  # step halvings per Newton sweep while a residual grows
# sample points per map in one block of a 2D sample grid: bounds its temporaries
_SAMPLE_BLOCK = 1 << 16


# the identity matrix per dimension, shaped to add to (n, n, *shape) Jacobian values
_IDENTITY = {n: np.eye(n).reshape((n, n) + (1,) * n) for n in (1, 2)}


class DiffeoError(ValueError):
    """Certificate failure; `reason` is 'orientation', 'injectivity' or
    'conditioning'.  When det d phi is at or below the floor at a point of
    phi's own grid, `witness` is that point and `value` that det; otherwise
    `value` is the failing bound and `witness` the point of the map's sample
    grid where the sampled det is least ('injectivity': |du|_op greatest)."""

    def __init__(self, reason: str, witness, value: float):
        self.reason = reason
        self.witness = witness
        self.value = value
        super().__init__(f"{reason} failure: value {value:.6g} at x = {witness}")


class InversionError(RuntimeError):
    """Newton inversion failed to meet its residual target."""

    def __init__(self, worst_residual: float, tol: float):
        self.worst_residual = worst_residual
        self.tol = tol
        super().__init__(
            f"inverse residual {worst_residual:.3e} exceeds {10 * tol:.3e}"
        )


@dataclass(frozen=True)
class Diffeo:
    """phi = id + u with a positive-Jacobian certificate attached."""

    displacement: Spectrum
    disp_values: np.ndarray  # (n, *shape)
    jacobian: np.ndarray  # d phi = I + du at grid points, (n, n, *shape)
    min_det: float  # a proven lower bound on inf det d phi over the torus
    max_grad: float  # a proven upper bound on sup |du|_op over the torus
    min_det_floor: float
    contraction_certified: bool = True  # False only for by-construction inverses

    @property
    def spec(self) -> GridSpec:
        return self.displacement.spec

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def mean_displacement(self) -> np.ndarray:
        """Mean of u along each axis (the k=0 Fourier coefficient)."""
        zero = (slice(None),) + (0,) * self.dim
        return self.displacement.coeffs[zero].real.copy()


def _displacement_gradient(u: Spectrum) -> Spectrum:
    """Gradient of a d-component field stacked as d*n components, row-major (c, j)."""
    n = u.spec.dim
    grads = np.empty((u.num_components, n) + u.spec.shape, complex)
    for j in range(n):  # differentiate(u, j), written in place
        np.multiply(u.coeffs, _symbol(u.spec, j), out=grads[:, j])
    return _trusted(Spectrum, u.spec, grads.reshape((-1,) + u.spec.shape))


def _det_and_opnorm(grad_vals: np.ndarray, dim: int):
    """det(I + du) and a key that _opnorm maps monotonically to |du|_op, from
    stacked gradient values (n*n, ...): |du| in 1D, 2 |du|_op^2 = frob2 + gap
    in 2D (in-place ops on five buffers), so sup |du|_op is at its argmax."""
    if dim == 1:
        du = grad_vals[0]
        return 1.0 + du, np.abs(du)
    a, b, c, d = grad_vals  # du rows: (d1u1, d2u1, d1u2, d2u2)
    det, tmp, bc = np.add(a, 1.0), np.add(d, 1.0), np.multiply(b, c)
    det *= tmp
    det -= bc  # (1 + a)(1 + d) - bc
    key = np.multiply(a, a)
    for e in (b, c, d):  # frob2 = ((a^2 + b^2) + c^2) + d^2
        key += np.multiply(e, e, out=tmp)
    np.subtract(np.multiply(a, d, out=tmp), bc, out=tmp)  # det du
    tmp *= tmp
    gap = np.multiply(key, key)
    gap -= np.multiply(tmp, 4.0, out=tmp)  # 4 det_du^2: the factor is exact
    key += np.sqrt(np.maximum(gap, 0.0, out=gap), out=gap)
    return det, key


def _opnorm(key, dim: int):
    """|du|_op from _det_and_opnorm keys (a scalar or an array of them)."""
    return key if dim == 1 else np.sqrt(np.maximum(key / 2.0, 0.0))


def gradient_sup(u: Spectrum) -> float:
    """sup over the CERT_REFINE-refined grid of the operator norm of du."""
    fine = refine(_displacement_gradient(u), CERT_REFINE)
    _, key = _det_and_opnorm(fine.values, u.spec.dim)
    return float(_opnorm(np.max(key), u.spec.dim))


def solve_jacobian(jac: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve J s = r pointwise by Cramer's rule.

    `jac` holds the entries of J row-major, shape (n*n, P); `r` is (n, P),
    or (n,) for one right-hand side shared by every point.  Returns (n, P).
    """
    if len(r) == 1:
        return np.stack([r[0] / jac[0]])
    a, b, c, d = jac
    det = a * d - b * c
    return np.stack([(d * r[0] - b * r[1]) / det, (a * r[1] - c * r[0]) / det])


def _check_options(min_det_floor, refine_factor):
    """The certificate options, checked before any work: a finite real floor > 0
    and an integer refine factor >= 1, neither of them a bool."""
    real = isinstance(min_det_floor, float) or (  # the float test first: it is the fast one
        isinstance(min_det_floor, numbers.Real) and not isinstance(min_det_floor, bool))
    if not (real and 0.0 < min_det_floor <= sys.float_info.max):  # NaN fails the comparison
        raise ValueError(f"min_det_floor must be a finite real number > 0, got {min_det_floor!r}")
    integer = type(refine_factor) is int or (
        isinstance(refine_factor, numbers.Integral) and not isinstance(refine_factor, bool))
    if not (integer and refine_factor >= 1):
        raise ValueError(f"refine_factor must be an integer >= 1, got {refine_factor!r}")


@lru_cache(maxsize=8)
def _shell_order(dim: int, size: int) -> tuple:
    """The k_last = 0..N/2 half of the (size,)*dim grid, which the transforms
    read: its flat slots in the full grid ordered by |k|_inf from N/2 down to
    0, their weights in that order (2 where k_last = 1..N/2-1 stands for the
    conjugate pair, else 1), and for K = 0..N/2-1 the position in that order
    of the last slot with |k|_inf > K.  Read-only arrays, or slices in 1D."""
    half = size // 2
    if dim == 1:  # the order is k = N/2 down to 0: slices, so no gather
        weight = np.where(np.arange(half, -1, -1) % half > 0, 2.0, 1.0)
        weight.flags.writeable = False
        return slice(half, None, -1), weight, slice(half - 1, None, -1)
    kabs = np.minimum(np.arange(size), size - np.arange(size))
    shell = np.maximum.outer(kabs, np.arange(half + 1)).ravel()
    slots = (np.arange(size)[:, None] * size + np.arange(half + 1)).ravel()
    weight = np.where(np.arange(half + 1) % half > 0, 2.0, 1.0)
    weight = np.broadcast_to(weight, (size, half + 1)).ravel()
    order = np.argsort(-shell, kind="stable")
    last = np.searchsorted(-shell[order], -np.arange(half)) - 1
    tables = slots[order], weight[order], last
    for arr in tables:
        arr.flags.writeable = False
    return tables


def _shell_tails(coeffs: np.ndarray, spec: GridSpec):
    """For (rows, P) coefficients on spec's grid: each row's l1 norm sum_k |c_k|
    and its l1 tails past band K, sum_{|k|_inf > K} |c_k| for K = 0..N/2-1
    (as (rows, N/2)), summed over the half that the transforms read."""
    slots, weight, last = _shell_order(spec.dim, spec.size)
    sums = np.cumsum(np.abs(coeffs[:, slots]) * weight, axis=1)
    return sums[:, -1], sums[:, last]


def _band_samples(grad: np.ndarray, band: int, points: int):
    """Values of the |k|_inf <= band part of maps' gradient spectra grad
    (B, n*n, *shape) on the grid of `points` > 2 band per axis, from an
    inverse FFT of the band zero-padded to `points`: (B, n*n, P_b) blocks of
    whole grid rows in C order, a list of one in 1D and an iterator of blocks
    of at most _SAMPLE_BLOCK points per map in 2D.  In 2D, at band N/2 the
    Nyquist slots are split evenly between k = -N/2 and N/2, as in
    grid.refine, so the samples are those of the whole interpolant (in 1D the
    derivative has no Nyquist slot, so the band stays below N/2)."""
    if grad.ndim == 3:
        return [np.fft.irfft(grad[..., : band + 1], n=points, norm="forward")]
    size = grad.shape[2]  # the k_1 axis: the k_2 axis may be cut to the band
    k = np.arange(-band, band + 1)
    block = grad[:, :, k % size, : band + 1]  # a copy
    if 2 * band == size:
        block[:, :, [0, -1]] *= 0.5
        block[..., -1] *= 0.5
    pad = np.zeros(grad.shape[:2] + (points, band + 1), complex)
    pad[:, :, k % points] = block
    cols = np.fft.ifft(pad, axis=2, norm="forward")  # x_1 rows of k_2 columns
    rows = max(1, _SAMPLE_BLOCK // points)
    # k_2 is zero-padded to points/2
    return (np.fft.irfft(cols[:, :, start : start + rows], n=points, norm="forward")
            .reshape(grad.shape[:2] + (-1,)) for start in range(0, points, rows))


def _sampled_bounds(blocks, sec: float, dim: int) -> list:
    """Per map of the gradient samples of band-limited du on L points per
    axis, given as _band_samples blocks, with sec = sec(D pi / L)^n for their
    degree D: the least sampled det(I + du), the greatest sampled |du|_op, a
    lower bound on det(I + du) and an upper bound on |du|_op over the torus.

    A real trigonometric polynomial p of degree D per axis, sampled at L > 2D
    points per axis, satisfies sup |p - c| <= sec(D pi / L)^n max_j |p(x_j) - c|
    for every constant c (Ehlich & Zeller, Math. Z. 86, 1964).  det(I + du) and
    |du e|^2, for every unit vector e, have degree D = n K for du of band K.
    With c the centre and h the half-width of the det samples' range,
    det >= c - sec h.  In 1D u' = det - 1, so |u'| <= |c - 1| + sec h.  In 2D
    every |du e|^2 has its samples in [0, top^2], top the greatest sampled
    |du|_op, so |du|_op^2 <= (1 + sec^2) top^2 / 2.
    """
    if dim == 1:  # from the range [a, b] of u'
        [vals] = blocks
        lo = np.minimum.reduce(vals[:, 0], 1).tolist()
        hi = np.maximum.reduce(vals[:, 0], 1).tolist()
        return [(1.0 + a, max(-a, b), 1.0 + (a + b) / 2.0 - sec * (b - a) / 2.0,
                 abs(a + b) / 2.0 + sec * (b - a) / 2.0) for a, b in zip(lo, hi)]
    lows, highs, keys = [], [], []
    for vals in blocks:
        det, key = _det_and_opnorm(vals.swapaxes(0, 1), dim)
        lows.append(det.min(1))
        highs.append(det.max(1))
        keys.append(key.max(1))
    top, factor = _opnorm(np.max(keys, 0), dim).tolist(), math.sqrt((1.0 + sec) / 2.0)
    return [(a, t, (a + b) / 2.0 - sec * (b - a) / 2.0, factor * t)
            for a, b, t in zip(np.min(lows, 0).tolist(), np.max(highs, 0).tolist(), top)]


def _witness(grad: np.ndarray, band: int, points: int, greatest_opnorm: bool) -> np.ndarray:
    """The point of one map's sample grid (grad (1, n*n, *shape)) where its
    sampled det(I + du) is least, or its |du|_op greatest."""
    dim, best, at, offset = grad.ndim - 2, -np.inf, 0, 0
    for vals in _band_samples(grad, band, points):
        det, key = _det_and_opnorm(vals[0], dim)
        score = key if greatest_opnorm else -det
        idx = int(np.argmax(score))
        if score[idx] > best:  # the first such point, as one argmax over the grid
            best, at = score[idx], offset + idx
        offset += len(score)
    return np.array(np.unravel_index(at, (points,) * dim)) / points


def _certified_bounds(grad: np.ndarray, margin: np.ndarray, spec: GridSpec,
                      min_det_floor: float, refine_factor: int, check_contraction: bool):
    """(min_det, max_grad) bounds for maps whose gradient spectra are grad
    (B, n*n, *shape) and whose grid det exceeds the floor by `margin`, in map
    order, or the first failing map's DiffeoError.

    Each map is certified at its own band K: the smallest whose gradient l1
    tail past K, summed over the entries, is at most TAIL_SHARE * margin, or
    N/2, which holds every coefficient.  Its band part is sampled on
    L = refine_factor * (D + 1) points per axis (at least 2D + 2, rounded up
    to even; D = n K) and bounded by _sampled_bounds;
    then the tails t_e of the entries widen the bounds, |du|_op by
    (sum_e t_e^2)^(1/2) and det by t in 1D, by sum_e t_e s_e' in 2D, where s_e'
    is the l1 norm of the cofactor entry of I + du.  A map whose bounds fail a
    check that its samples pass is resampled once at 4L.  Maps that share
    (K, L) share one batched FFT.
    """
    count, n, half = len(grad), spec.dim, spec.size // 2
    norms, tails = _shell_tails(grad.reshape(count * n * n, spec.num_points), spec)
    tails = tails.reshape(count, n * n, half)
    total = tails[:, 0] if n == 1 else tails.sum(1)
    bands = (total > TAIL_SHARE * margin[:, None]).sum(1)  # 0..N/2
    tail = tails[np.arange(count), :, np.minimum(bands, half - 1)]  # (B, n*n)
    if n == 1:
        det_tail = op_tail = tail[:, 0].tolist()
    else:
        tail[bands == half] = 0.0  # band N/2 keeps every coefficient
        cofactor = norms.reshape(count, n * n)[:, ::-1] + np.eye(n).ravel()
        det_tail = np.sum(tail * cofactor, axis=1).tolist()
        op_tail = np.sqrt(np.sum(tail * tail, axis=1)).tolist()
    found = [None] * count  # per map: its two bounds, band and points per axis
    bands = bands.tolist()
    order = sorted(range(count), key=bands.__getitem__)  # maps of one band lie together
    low_part = grad[..., : max(bands, default=0) + 1]  # all that _band_samples reads
    ordered = low_part if order == list(range(count)) else low_part[order]
    start = 0
    for band, rows in itertools.groupby(order, key=bands.__getitem__):
        rows = list(rows)
        maps, start = ordered[start : start + len(rows)], start + len(rows)
        base = max(refine_factor, 2) * (n * band + 1)  # L > 2D for refine_factor 1 too
        base += base % 2
        for points in (base, 4 * base):
            sec = math.cos(n * band * math.pi / points) ** -n
            vals = _band_samples(maps, band, points)
            again = []
            for b, (lo, top, low, high) in zip(rows, _sampled_bounds(vals, sec, n)):
                low, high = low - det_tail[b], high + op_tail[b]
                found[b] = low, high, band, points
                sampled = lo >= min_det_floor and not (check_contraction and top >= 1.0)
                if sampled and (low < min_det_floor or check_contraction and high >= 1.0):
                    again.append(b)
            if not again:
                break
            rows, maps = again, grad[again]
    certs = []
    for b, (low, high, band, points) in enumerate(found):
        reason = ("orientation" if low <= 0.0 else
                  "injectivity" if check_contraction and high >= 1.0 else
                  "conditioning" if low < min_det_floor else None)
        if reason:
            injective = reason == "injectivity"
            raise DiffeoError(reason, _witness(grad[b : b + 1], band, points, injective),
                              high if injective else low)
        certs.append((low, high))
    return certs


def certify_stack(displacement: Spectrum, min_det_floor: float = DEFAULT_MIN_DET,
                  refine_factor: int = CERT_REFINE, check_contraction: bool = True) -> list[Diffeo]:
    """Certify B maps id + u_b given as one (B*n)-component displacement and
    build their Diffeos in order, or raise the first failing map's DiffeoError.

    Each map's det d phi on its own grid comes first: a value at or below the
    floor fails the map there ('orientation' at or below 0, else
    'conditioning').  A map that passes gets proven bounds, min_det <= inf det
    d phi and max_grad >= sup |du|_op, from samples at its own band size
    (_certified_bounds), and fails when min_det <= 0 ('orientation'),
    max_grad >= 1 ('injectivity') or min_det < the floor ('conditioning').
    Transforms run once for the whole stack; each map's bounds depend on that
    map alone.

    `check_contraction=False` (for invert, whose output is injective by
    construction) records max_grad >= 1 and flags the certificate instead.
    """
    _check_options(min_det_floor, refine_factor)
    spec, n = displacement.spec, displacement.spec.dim
    stack = (displacement.num_components // n, n)
    grad = _displacement_gradient(displacement)
    both = np.concatenate([displacement.coeffs, grad.coeffs])  # [u; du]: one transform
    vals = inverse_transform(_trusted(Spectrum, spec, both)).values
    jac = vals[stack[0] * n :].reshape(stack + (n,) + spec.shape)
    jac = jac + _IDENTITY[n]
    flat = jac.reshape(stack[0], n * n, -1)
    det = flat[:, 0] if n == 1 else flat[:, 0] * flat[:, 3] - flat[:, 1] * flat[:, 2]
    margin = np.minimum.reduce(det, 1) - min_det_floor
    stop = next((b for b, m in enumerate(margin.tolist()) if m <= 0.0), stack[0])
    grad_maps = grad.coeffs.reshape((stack[0], n * n) + spec.shape)[:stop]
    certs = _certified_bounds(grad_maps, margin[:stop], spec, min_det_floor, refine_factor,
                              check_contraction)
    if stop < stack[0]:  # the first map whose grid det is at or below the floor
        idx = int(np.argmin(det[stop]))
        value = float(det[stop, idx])
        raise DiffeoError("orientation" if value <= 0.0 else "conditioning",
                          spec.points()[idx], value)
    coeffs = displacement.coeffs.reshape(stack + spec.shape)
    disp = vals[: stack[0] * n].reshape(stack + spec.shape)
    return [
        Diffeo(_trusted(Spectrum, spec, c), disp_b, jac_b, min_det, max_grad, min_det_floor,
               contraction_certified=max_grad < 1.0)
        for c, disp_b, jac_b, (min_det, max_grad) in zip(coeffs, disp, jac, certs)
    ]


def make_diffeo(displacement: Spectrum, min_det_floor: float = DEFAULT_MIN_DET,
                refine_factor: int = CERT_REFINE, check_contraction: bool = True) -> Diffeo:
    """Certify id + u (the one-map case of certify_stack) or raise DiffeoError."""
    spec, count = displacement.spec, displacement.num_components
    if count != spec.dim:
        raise ValueError(f"displacement needs {spec.dim} components, got {count}")
    [phi] = certify_stack(displacement, min_det_floor, refine_factor, check_contraction)
    return phi


def compose_stack(f: Spectrum, maps) -> np.ndarray:
    """Pullbacks f o phi for every phi in `maps` (one grid), sampled on that
    grid from one evaluation at all the maps' point images, map by map:
    shape (len(maps), components, *shape)."""
    spec = maps[0].spec
    if f.spec.dim != spec.dim:
        raise ValueError("dimension mismatch between field and diffeomorphism")
    pts = spec.points()
    images = np.concatenate([pts + m.disp_values.reshape(spec.dim, -1).T for m in maps])
    vals = evaluate(f, images).reshape((f.num_components, len(maps)) + spec.shape)
    return np.moveaxis(vals, 1, 0)


def compose_function(f: Spectrum, phi: Diffeo) -> GridFunction:
    """Pullback f o phi sampled on phi's grid (exact trigonometric f): the
    one-map case of compose_stack."""
    return GridFunction(phi.spec, compose_stack(f, [phi])[0])


def compose_diffeo(outer: Diffeo, inner: Diffeo) -> Diffeo:
    """outer o inner, re-certified.  Displacements add as
    w = u_outer o (id + u_inner) + u_inner."""
    if outer.spec != inner.spec:
        raise ValueError("diffeomorphisms live on different grids")
    pulled = compose_function(outer.displacement, inner)
    w = pulled.values + inner.disp_values
    return make_diffeo(forward_transform(GridFunction(outer.spec, w)),
                       min_det_floor=min(outer.min_det_floor, inner.min_det_floor))


def invert(phi: Diffeo, tol: float = 1e-12, max_iter: int = 50) -> Diffeo:
    """Pointwise Newton inversion of phi on its grid, re-certified.

    Solves phi(x) = y for every grid point y with x0 = y, halving a point's
    step (up to NEWTON_HALVINGS times per sweep) while its residual would grow.
    The first sweep reads u(y) and d phi(y) from phi's stored grid values.
    Every trial point then costs one evaluate of the stacked spectrum
    [u; du], at the points whose last step was >= tol only: its first n rows
    give the residual, the others d phi there for the next sweep's solve.
    The final map id + v interpolates x - y and satisfies
    max |phi(phi^{-1}(y)) - y| < 10*tol, or InversionError is raised.
    Re-certification checks orientation and conditioning only; the result
    is injective by construction, so a contraction bound >= 1 is recorded
    rather than rejected (contraction_certified turns False).
    """
    spec = phi.spec
    n = spec.dim
    y = spec.points().T  # (n, P)
    u = phi.displacement
    grad = _displacement_gradient(u).coeffs
    stacked = _trusted(Spectrum, spec, np.concatenate([u.coeffs, grad]))  # [u; du]

    x = y.copy()
    r = phi.disp_values.reshape(n, -1).copy()
    rnorm = np.linalg.norm(r, axis=0)
    jac = phi.jacobian.reshape(n * n, -1).copy()
    active = np.arange(y.shape[1])  # points whose last step was >= tol
    for _ in range(max_iter):
        # a set that holds every point indexes as a slice, with no gather
        act = slice(None) if len(active) == y.shape[1] else active
        step = solve_jacobian(jac[:, act], r[:, act])
        start, limit = x[:, act].copy(), np.maximum(rnorm[act], 10.0 * tol)
        todo = np.arange(len(active))  # steps whose residual may still grow
        for halving in range(NEWTON_HALVINGS + 1):
            each, at = (slice(None), act) if len(todo) == len(active) else (todo, active[todo])
            if halving:
                step[:, each] /= 2.0
            x[:, at] = start[:, each] - step[:, each]
            vals = evaluate(stacked, x[:, at].T)
            vals[n :: n + 1] += 1.0  # d phi = I + du
            r[:, at] = x[:, at] + vals[:n] - y[:, at]
            jac[:, at] = vals[n:]
            rnorm[at] = np.linalg.norm(r[:, at], axis=0)
            todo = todo[rnorm[at] > limit[each]]
            if not len(todo):
                break
        active = active[np.linalg.norm(step, axis=0) >= tol]
        if not len(active):
            break
    worst = float(np.max(rnorm))
    if worst >= 10.0 * tol:
        raise InversionError(worst, tol)
    v = (x - y).reshape((n,) + spec.shape)
    return make_diffeo(forward_transform(GridFunction(spec, v)),
                       min_det_floor=phi.min_det_floor, check_contraction=False)


def chain_rule_residual(f: Spectrum, phi: Diffeo) -> float:
    """Max grid defect of d(f o phi) = (df o phi) . d phi.

    The left side differentiates the sampled composite spectrally; the
    right side pairs exact derivative evaluations with the stored Jacobian
    pointwise, so the defect measures pure aliasing.  f and df meet phi in
    one compose_stack of the stacked spectrum [f; df].
    """
    d = f.num_components
    stacked = np.concatenate([f.coeffs, _displacement_gradient(f).coeffs])  # rows c, then (c, j)
    pulled = compose_stack(_trusted(Spectrum, f.spec, stacked), [phi])[0]
    comp = forward_transform(GridFunction(phi.spec, pulled[:d]))
    df_at_phi = pulled[d:].reshape((d, phi.dim) + phi.spec.shape)
    worst = 0.0
    for axis in range(phi.dim):
        lhs = inverse_transform(differentiate(comp, axis)).values
        rhs = np.einsum("cj...,j...->c...", df_at_phi, phi.jacobian[:, axis])
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def inverse_derivative_residual(phi: Diffeo, psi: Diffeo) -> float:
    """Max grid defect of d(phi^{-1} - id) = ((d phi)^{-1} - I) o phi^{-1},
    with psi = invert(phi): the left side differentiates psi's displacement
    spectrally, the right side inverts d phi = I + du at psi's point images,
    from one compose_stack of du (at u's band)."""
    n = phi.dim
    lhs = inverse_transform(_displacement_gradient(psi.displacement)).values
    jac = compose_stack(_displacement_gradient(phi.displacement), [psi])[0].reshape(n * n, -1)
    jac[:: n + 1] += 1.0  # d phi o psi
    eye = np.eye(n)
    # column j of (d phi)^{-1} solves d phi s = e_j
    jac_inv = np.stack([solve_jacobian(jac, e) for e in eye], axis=1)
    rhs = (jac_inv - eye[:, :, None]).reshape(lhs.shape)
    return float(np.max(np.abs(lhs - rhs)))

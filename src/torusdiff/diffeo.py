"""Certified diffeomorphisms of the torus close to the identity.

A map phi = id + u (u periodic, same dimension as the grid) is accepted as
a diffeomorphism when two conditions hold on a 4x refined grid:

  * orientation: det(d phi) stays above a configurable positive floor;
  * injectivity: sup over points of the operator norm of du is < 1, which
    makes x + u(x) a contraction argument away from collisions.

The second condition is sufficient but not necessary; it is the price of a
certificate that needs no global search.  Composition re-certifies its
output in full.  Newton inversion re-checks orientation and conditioning
but not the contraction bound: the computed map is the two-sided inverse
of a certified bijection (verified through its residual), so injectivity
holds by construction even when sup|d(phi^{-1} - id)| reaches 1.  Such
inverses carry `contraction_certified = False` in their certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    GridFunction,
    GridSpec,
    Spectrum,
    _trusted,
    differentiate,
    evaluate,
    forward_transform,
    inverse_transform,
    refine,
)

CERT_REFINE = 4
DEFAULT_MIN_DET = 0.05
NEWTON_HALVINGS = 5  # step halvings per Newton sweep while a residual grows


class DiffeoError(ValueError):
    """Certificate failure; `reason` is 'orientation', 'injectivity' or
    'conditioning', and `witness` locates an offending refined grid point."""

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
    min_det: float  # over the refined certificate grid
    max_grad: float  # sup of |du|_op over the refined grid
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
    grads = np.stack([differentiate(u, j).coeffs for j in range(n)], axis=1)
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


def _opnorm(key: float, dim: int) -> float:
    """|du|_op from one _det_and_opnorm key."""
    return float(key) if dim == 1 else math.sqrt(max(key / 2.0, 0.0))


def gradient_sup(u: Spectrum) -> float:
    """sup over the CERT_REFINE-refined grid of the operator norm of du."""
    fine = refine(_displacement_gradient(u), CERT_REFINE)
    _, key = _det_and_opnorm(fine.values, u.spec.dim)
    return _opnorm(np.max(key), u.spec.dim)


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


def certify_stack(displacement: Spectrum, min_det_floor: float = DEFAULT_MIN_DET,
                  refine_factor: int = CERT_REFINE, check_contraction: bool = True) -> list[Diffeo]:
    """Certify B maps id + u_b given as one (B*n)-component displacement and
    build their Diffeos in order, or raise the first failing map's DiffeoError.
    Transforms run once for the whole stack, the checks map by map: min_det
    and max_grad come from one argmin of det and one argmax of the
    _det_and_opnorm key per map, the square root only at that point.

    `check_contraction=False` (for invert, whose output is injective by
    construction) records sup|du|_op >= 1 and flags the certificate instead.
    """
    spec, n = displacement.spec, displacement.spec.dim
    if min_det_floor <= 0:
        raise ValueError("min_det_floor must be positive")
    grad = _displacement_gradient(displacement)
    fine = refine(grad, refine_factor)
    stack = (displacement.num_components // n, n)
    det, key = _det_and_opnorm(fine.values.reshape(stack[0], n * n, -1).swapaxes(0, 1), n)
    certs = []  # (min_det, max_grad) per map; rows of det and key are maps
    for idx, gidx, det_b, key_b in zip(np.argmin(det, 1), np.argmax(key, 1), det, key):
        min_det, max_grad = float(det_b[idx]), _opnorm(key_b[gidx], n)
        if min_det <= 0.0:
            raise DiffeoError("orientation", fine.spec.points()[idx], min_det)
        if check_contraction and max_grad >= 1.0:
            raise DiffeoError("injectivity", fine.spec.points()[gidx], max_grad)
        if min_det < min_det_floor:
            raise DiffeoError("conditioning", fine.spec.points()[idx], min_det)
        certs.append((min_det, max_grad))
    coeffs = displacement.coeffs.reshape(stack + spec.shape)
    disp = inverse_transform(displacement).values.reshape(stack + spec.shape)
    jac = inverse_transform(grad).values.reshape(stack + (n,) + spec.shape)
    jac = jac + np.eye(n).reshape((n, n) + (1,) * n)
    return [
        Diffeo(_trusted(Spectrum, spec, c), vals, jac_b, min_det, max_grad, min_det_floor,
               contraction_certified=max_grad < 1.0)
        for c, vals, jac_b, (min_det, max_grad) in zip(coeffs, disp, jac, certs)
    ]


def make_diffeo(displacement: Spectrum, min_det_floor: float = DEFAULT_MIN_DET,
                refine_factor: int = CERT_REFINE, check_contraction: bool = True) -> Diffeo:
    """Certify id + u (the one-map case of certify_stack) or raise DiffeoError."""
    spec, count = displacement.spec, displacement.num_components
    if count != spec.dim:
        raise ValueError(f"displacement needs {spec.dim} components, got {count}")
    [phi] = certify_stack(displacement, min_det_floor, refine_factor, check_contraction)
    return phi


def identity_diffeo(spec: GridSpec) -> Diffeo:
    zero = Spectrum(spec, np.zeros((spec.dim,) + spec.shape, dtype=np.complex128))
    return make_diffeo(zero)


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
    with psi = invert(phi)."""
    n = phi.dim
    spec = phi.spec
    lhs = inverse_transform(_displacement_gradient(psi.displacement)).values
    jac = phi.jacobian.reshape(n * n, -1)
    eye = np.eye(n)
    # column j of (d phi)^{-1} solves d phi s = e_j
    jac_inv = np.stack([solve_jacobian(jac, e) for e in eye], axis=1)
    b_entries = jac_inv - eye[:, :, None]
    b_spec = forward_transform(
        GridFunction(spec, b_entries.reshape((n * n,) + spec.shape))
    )
    rhs = compose_stack(b_spec, [psi])[0]
    return float(np.max(np.abs(lhs - rhs)))

"""Calculus of the composition map (u, phi) -> u o phi.

The composition map is differentiable as a map of Sobolev fields only
after giving up derivatives of u; this module makes that quantitative.
It provides the multilinear coefficients eta_k of the Taylor expansion

    (u + du) o (phi + dphi) = sum_{k<=r} eta_k / k!  +  R1 + R2,

the two integral remainders (Gauss-Legendre in the path parameter, with
every intermediate map phi + t*dphi certified), the differential of the
inversion map, and probes that measure remainder decay orders, Lipschitz
constants of right translation, and the one-derivative loss of left
translation.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .algebra import multiply
from .diffeo import Diffeo, certify_stack, compose_function, invert, solve_jacobian
from .grid import (
    GridFunction,
    Spectrum,
    _trusted,
    differentiate_multi,
    evaluate,
    forward_transform,
    inverse_transform,
    random_field,
)
from .norms import hs_norm, hs_norm_rows, multi_indices

GL_NODES = 16


@lru_cache(maxsize=None)
def _gauss_legendre_01(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [0, 1], built on first use
    (leggauss and its numpy.polynomial import cost ~2 MiB of resident memory)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    ts, ws = (x + 1.0) / 2.0, w / 2.0
    ts.flags.writeable = ws.flags.writeable = False
    return ts, ws


def _exact_indices(dim: int, order: int) -> list[tuple[int, ...]]:
    return [alpha for alpha in multi_indices(dim, order) if sum(alpha) == order]


def _monomial(dphi: GridFunction, alpha: tuple[int, ...]) -> GridFunction:
    """dphi^alpha = prod_i dphi_i^{alpha_i} with dealiased products."""
    spec = dphi.spec
    out = GridFunction(spec, np.ones((1,) + spec.shape))
    for i, power in enumerate(alpha):
        comp = GridFunction(spec, dphi.values[i : i + 1])
        for _ in range(power):
            out = multiply(out, comp)
    return out


def path_diffeo(phi: Diffeo, dphi: GridFunction, ts) -> list[Diffeo]:
    """Certified diffeomorphisms id + (u_phi + t * dphi) for each t in `ts`
    and, for a dphi of B*n components, each of its B directions: the list of
    maps (t-major) from one certify_stack call."""
    spec, n = phi.spec, phi.dim
    steps = np.reshape(ts, (-1, 1, 1) + (1,) * n) * dphi.values.reshape((-1, n) + spec.shape)
    vals = (phi.disp_values + steps).reshape((-1,) + spec.shape)  # rows (t, direction, axis)
    return certify_stack(forward_transform(GridFunction(spec, vals)), phi.min_det_floor)


def eta_k(
    u: Spectrum,
    phi: Diffeo,
    du: Spectrum,
    dphi: GridFunction,
    k: int,
) -> GridFunction:
    """k-th Taylor coefficient of the composition map at (u, phi).

    eta_k = sum_{|a|=k} (k!/a!) (d^a u o phi) dphi^a
          + sum_{|a|=k-1} (k!/a!) (d^a du o phi) dphi^a.

    Returns the k-th derivative as a field; divide by k! for the Taylor term.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    spec = phi.spec
    n = spec.dim
    acc = np.zeros((u.num_components,) + spec.shape)

    def accumulate(F: Spectrum, order: int):
        for alpha in _exact_indices(n, order):
            coeff = math.factorial(k) / math.prod(math.factorial(a) for a in alpha)
            comp = compose_function(differentiate_multi(F, alpha), phi)
            if order == 0:
                acc[...] += coeff * comp.values
            else:
                acc[...] += coeff * multiply(comp, _monomial(dphi, alpha)).values

    accumulate(u, k)
    accumulate(du, k - 1)
    return GridFunction(spec, acc)


def taylor_remainder(
    u: Spectrum, phi: Diffeo, du: Spectrum, dphi: GridFunction, r: int, path: list | None = None
) -> GridFunction:
    """Both integral remainders R1 + R2 of the order-r expansion:

    R1 = sum_{|a|=r} (r/a!) int_0^1 (1-t)^{r-1}
         [(d^a u)(phi + t dphi) - (d^a u)(phi)] dphi^a dt,
    R2 = sum_{|a|=r} (r/a!) int_0^1 (1-t)^{r-1}
         (d^a du)(phi + t dphi) dphi^a dt.

    The Gauss-Legendre path maps (`path`, else certified here in one call)
    and d^a u, d^a du for every |a| = r, stacked as one spectrum, meet in
    one evaluation at all nodes' point images; each multi-index's weighted
    node sum meets dphi^a in one dealiased product (the product is linear,
    so only the order of summation changes).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    spec = phi.spec
    ts, ws = _gauss_legendre_01(GL_NODES)
    path = path_diffeo(phi, dphi, ts) if path is None else path
    alphas = _exact_indices(spec.dim, r)
    factors = np.array([r / math.prod(math.factorial(a) for a in al) for al in alphas])
    factors = factors.reshape((-1,) + (1,) * (1 + spec.dim))  # over (component, *shape)
    both = _trusted(Spectrum, spec, np.concatenate([u.coeffs, du.coeffs]))
    stack = _trusted(  # rows (a, field, component)
        Spectrum, spec, np.concatenate([differentiate_multi(both, al).coeffs for al in alphas])
    )
    rows = (len(alphas), 2, u.num_components) + spec.shape
    base = compose_function(stack, phi).values.reshape(rows)[:, 0]
    at_nodes = evaluate(stack, np.concatenate([m.point_images() for m in path]))
    at_nodes = np.moveaxis(at_nodes.reshape(rows[:3] + (-1,) + spec.shape), 3, 0)  # node first
    node_sum = np.zeros_like(base)
    for t, w, vals in zip(ts, ws, at_nodes):
        bracket = (vals[:, 0] - base) + vals[:, 1]
        node_sum += factors * w * (1.0 - t) ** (r - 1) * bracket
    acc = np.zeros_like(base[0])
    for alpha, term in zip(alphas, node_sum):
        acc += multiply(GridFunction(spec, term), _monomial(dphi, alpha)).values
    return GridFunction(spec, acc)


def remainder_r1(u: Spectrum, phi: Diffeo, dphi: GridFunction, r: int) -> GridFunction:
    """R1 alone: `taylor_remainder` with a zero field increment."""
    return taylor_remainder(u, phi, Spectrum(u.spec, np.zeros_like(u.coeffs)), dphi, r)


def remainder_r2(du: Spectrum, phi: Diffeo, dphi: GridFunction, r: int) -> GridFunction:
    """R2 alone: `taylor_remainder` with a zero base field."""
    return taylor_remainder(Spectrum(du.spec, np.zeros_like(du.coeffs)), phi, du, dphi, r)


def taylor_defect(
    u: Spectrum, phi: Diffeo, du: Spectrum, dphi: GridFunction, orders
) -> list[float]:
    """Max grid defect of the order-r expansion with both remainders, for
    each r in `orders`; the path maps and each eta_k are built once."""
    spec = phi.spec
    *path, perturbed = path_diffeo(phi, dphi, [*_gauss_legendre_01(GL_NODES)[0], 1.0])
    total = Spectrum(spec, u.coeffs + du.coeffs)
    lhs = compose_function(total, perturbed).values
    base = compose_function(u, phi).values  # k = 0 term
    terms = [eta_k(u, phi, du, dphi, k).values / math.factorial(k)
             for k in range(1, max(orders) + 1)]
    defects = []
    for r in orders:
        rhs = base.copy()
        for term in terms[:r]:
            rhs += term
        rhs += taylor_remainder(u, phi, du, dphi, r, path).values
        defects.append(float(np.max(np.abs(lhs - rhs))))
    return defects


DEFAULT_SCALES = tuple(2.0**-m for m in range(1, 9))


def remainder_order_probe(
    u: Spectrum,
    phi: Diffeo,
    dphi_dir: GridFunction,
    orders: list[tuple[int, Spectrum]],
    s: float = 2.0,
    scales: tuple[float, ...] = DEFAULT_SCALES,
) -> list[dict]:
    """Fit the decay order of ||R1 + R2||_s along a geometric scale ladder
    for each (r, du_dir) in `orders`, on one certified path per scale.

    For directions scaled by eps the combined remainder should vanish like
    eps^{r+1}; the probe reports the fitted log-log slope.  Identically
    zero directions yield a degenerate (vacuously passing) probe.  Returns
    a record per order: order, scales, norms, slope, monotone, degenerate.
    """
    norms = [[] for _ in orders]
    for eps in scales:
        dphi = GridFunction(phi.spec, eps * dphi_dir.values)
        path = path_diffeo(phi, dphi, _gauss_legendre_01(GL_NODES)[0])
        for (r, du_dir), out in zip(orders, norms):
            rem = taylor_remainder(u, phi, Spectrum(phi.spec, eps * du_dir.coeffs), dphi, r, path)
            out.append(hs_norm(forward_transform(rem), s))
    records = []
    for (r, _), norm in zip(orders, norms):
        degenerate = max(norm) < 1e-14
        slope = None if degenerate else float(np.polyfit(np.log(scales), np.log(norm), 1)[0])
        monotone = degenerate or all(a > b for a, b in zip(norm, norm[1:]))
        records.append({"order": r, "scales": list(scales), "norms": norm, "slope": slope,
                        "monotone": monotone, "degenerate": degenerate})
    return records


def inv_differential(phi: Diffeo, dphi: GridFunction, psi: Diffeo | None = None) -> GridFunction:
    """Derivative of the inversion map phi -> phi^{-1} applied to dphi:

        d inv(phi) dphi = -[(d phi)^{-1} dphi] o phi^{-1}.
    """
    if psi is None:
        psi = invert(phi)
    n = phi.dim
    spec = phi.spec
    jac = phi.jacobian.reshape(n * n, -1)
    solved = solve_jacobian(jac, dphi.values.reshape(n, -1))
    b_spec = forward_transform(GridFunction(spec, solved.reshape((n,) + spec.shape)))
    pulled = evaluate(b_spec, psi.point_images())
    return GridFunction(spec, -pulled.reshape((n,) + spec.shape))


def inv_differential_fd_error(
    phi: Diffeo, dphi: GridFunction, eps: float, psi: Diffeo | None = None
) -> float:
    """Sup distance between d inv(phi) dphi and a centred difference of the
    inversion map with step eps; decays like eps^2 for smooth data."""
    formula = inv_differential(phi, dphi, psi=psi)
    plus, minus = (invert(m) for m in path_diffeo(phi, dphi, (eps, -eps)))
    fd = (plus.disp_values - minus.disp_values) / (2.0 * eps)
    return float(np.max(np.abs(formula.values - fd)))


def right_translation_quotients(
    f: Spectrum,
    phi0: Diffeo,
    radii,
    trials: int,
    seed: int,
    s: float,
) -> list[list[float]]:
    """Lipschitz quotients ||f o phi - f o phi0||_s / (||f||_{s+1} ||phi - phi0||_s)
    over random certified phi on the H^s sphere of each radius in `radii`:
    one list per radius, the same `trials` random directions for every radius."""
    spec, c, maps = phi0.spec, f.num_components, len(radii) * trials
    base = compose_function(f, phi0)
    fnorm = hs_norm(f, s + 1.0)
    ws = [random_field(spec, s, seed + 1000 * i, components=spec.dim) for i in range(trials)]
    norms = [hs_norm(w, s) for w in ws]
    steps = np.concatenate([(radius / n) * w.coeffs for radius in radii for w, n in zip(ws, norms)])
    step = inverse_transform(_trusted(Spectrum, spec, steps))
    pulled = evaluate(f, np.concatenate([m.point_images() for m in path_diffeo(phi0, step, [1.0])]))
    diffs = pulled.reshape((c, maps) + spec.shape) - base.values[:, None]
    stacked = diffs.swapaxes(0, 1).reshape((-1,) + spec.shape)  # rows (radius, trial, c)
    quots = hs_norm_rows(forward_transform(_trusted(GridFunction, spec, stacked)), s, maps)
    return [[float(q / (fnorm * radius)) for q in row]
            for radius, row in zip(radii, quots.reshape(len(radii), trials))]


EPS_LADDER = (1e-2, 5e-3, 2.5e-3)


def loss_of_derivative_probe(
    phi: Diffeo,
    dphi_dir: GridFunction,
    s: float,
    octaves: int = 5,
) -> dict:
    """Left-translation roughness against mode frequency.

    For unit-H^s single-mode fields psi_j at frequency 2^j the quotient

        L_j = sup_eps ||psi_j o phi_eps - psi_j o phi||_s / ||phi_eps - phi||_s

    grows like 2^j (one full derivative is lost), while the right-translation
    quotient ||psi_j o phi||_s / ||psi_j||_s stays bounded.  The sup runs
    over eps in EPS_LADDER.  Returns the per-octave quotients and their
    consecutive growth factors.
    """
    spec = phi.spec
    if spec.dim != 1:
        raise ValueError("the octave probe is built on dim == 1 grids")
    dir_norm = hs_norm(forward_transform(dphi_dir), s)
    left, right = [], []
    path_pts = np.concatenate([m.point_images() for m in path_diffeo(phi, dphi_dir, EPS_LADDER)])
    eps_scale = np.array(EPS_LADDER) * dir_norm
    for j in range(1, octaves + 1):
        k = 2**j
        if 2 * k > spec.size // 2:
            raise ValueError(f"octave {j} unresolvable at size {spec.size}")
        weight = (1.0 + (2.0 * np.pi * k) ** 2) ** (s / 2.0)
        coeffs = np.zeros((1,) + spec.shape, dtype=np.complex128)
        amp = np.sqrt(2.0) / weight  # unit H^s norm for the sine mode
        coeffs[0, k] = amp / (2.0 * 1j)
        coeffs[0, -k] = -amp / (2.0 * 1j)
        psi_j = Spectrum(spec, coeffs)
        base = compose_function(psi_j, phi)
        diffs = evaluate(psi_j, path_pts).reshape((-1,) + spec.shape) - base.values
        quots = hs_norm_rows(forward_transform(_trusted(GridFunction, spec, diffs)), s, len(diffs))
        left.append(float(max(0.0, *(quots / eps_scale))))
        right.append(float(hs_norm(forward_transform(base), s)))
    growth = [b / a for a, b in zip(left, left[1:])]
    return {
        "octaves": list(range(1, octaves + 1)),
        "left_quotients": left,
        "growth_factors": growth,
        "right_quotients": right,
    }

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
from functools import lru_cache, reduce

import numpy as np

from .algebra import multiply
from .diffeo import Diffeo, certify_stack, compose_function, compose_stack, invert, solve_jacobian
from .grid import (
    GridFunction,
    Spectrum,
    _trusted,
    differentiate_multi,
    forward_transform,
    inverse_transform,
    random_field,
    trig_polynomial,
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
    """dphi^alpha = prod_i dphi_i^{alpha_i} with dealiased products: the first
    factor as is, then one product per further factor (|alpha| - 1 in all).
    The all-zero alpha gives the field 1."""
    spec = dphi.spec
    factors = [GridFunction(spec, dphi.values[i : i + 1])
               for i, power in enumerate(alpha) for _ in range(power)]
    return reduce(multiply, factors) if factors else GridFunction(spec, np.ones((1,) + spec.shape))


def _jet_pullback(jets: list[tuple[Spectrum, tuple]], maps: list[Diffeo]) -> np.ndarray:
    """d^a F for every (F, a) in `jets`, stacked jet after jet, at every map
    in `maps` from one compose_stack: shape (len(maps), rows, *shape)."""
    stack = np.concatenate([differentiate_multi(F, alpha).coeffs for F, alpha in jets])
    return compose_stack(_trusted(Spectrum, maps[0].spec, stack), maps)


def _contract(rows, alphas: list[tuple], dphi: GridFunction) -> np.ndarray:
    """sum_a rows[a] dphi^a over `alphas` (each row carries its weight): one
    dealiased product by _monomial(dphi, a) per a != 0, the a = 0 row as is."""
    spec = dphi.spec
    return sum(multiply(GridFunction(spec, row), _monomial(dphi, al)).values if any(al) else row
               for al, row in zip(alphas, rows))


def path_diffeo(phi: Diffeo, dphi: GridFunction, ts) -> list[Diffeo]:
    """Certified diffeomorphisms id + (u_phi + t * dphi) for each t in `ts`
    and, for a dphi of B*n components, each of its B directions: the list of
    maps (t-major) from one certify_stack call."""
    spec, n = phi.spec, phi.dim
    steps = np.reshape(ts, (-1, 1, 1) + (1,) * n) * dphi.values.reshape((-1, n) + spec.shape)
    vals = (phi.disp_values + steps).reshape((-1,) + spec.shape)  # rows (t, direction, axis)
    return certify_stack(forward_transform(GridFunction(spec, vals)), phi.min_det_floor)


def eta_k(u: Spectrum, phi: Diffeo, du: Spectrum, dphi: GridFunction, k: int) -> GridFunction:
    """k-th Taylor coefficient of the composition map at (u, phi).

    eta_k = sum_{|a|=k} (k!/a!) (d^a u o phi) dphi^a
          + sum_{|a|=k-1} (k!/a!) (d^a du o phi) dphi^a.

    Every d^a u and d^a du meet phi in one jet pullback, and each weighted
    term meets dphi^a in one dealiased product (none for a = 0).  Returns
    the k-th derivative as a field; divide by k! for the Taylor term.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    jets = [(u, al) for al in _exact_indices(phi.dim, k)]
    jets += [(du, al) for al in _exact_indices(phi.dim, k - 1)]
    pulled = _jet_pullback(jets, [phi]).reshape((len(jets), -1) + phi.spec.shape)
    rows = [math.factorial(k) / math.prod(map(math.factorial, al)) * row
            for (_, al), row in zip(jets, pulled)]
    return GridFunction(phi.spec, _contract(rows, [al for _, al in jets], dphi))


def taylor_remainder(
    u: Spectrum, phi: Diffeo, dphi: GridFunction, pairs, path: list | None = None
) -> list[GridFunction]:
    """Both integral remainders R1 + R2 of the order-r expansion, as one
    GridFunction for each (r, du) in `pairs`:

    R1 = sum_{|a|=r} (r/a!) int_0^1 (1-t)^{r-1}
         [(d^a u)(phi + t dphi) - (d^a u)(phi)] dphi^a dt,
    R2 = sum_{|a|=r} (r/a!) int_0^1 (1-t)^{r-1}
         (d^a du)(phi + t dphi) dphi^a dt.

    The Gauss-Legendre path maps (`path`, else certified here in one call)
    and d^a [u; du] for every pair and |a| = r meet in one jet pullback at
    phi and every node; each multi-index's weighted node sum meets dphi^a
    in one dealiased product (the product is linear, so only the order of
    summation changes).
    """
    if any(r < 1 for r, _ in pairs):
        raise ValueError("r must be >= 1")
    spec = phi.spec
    ts, ws = _gauss_legendre_01(GL_NODES)
    path = path_diffeo(phi, dphi, ts) if path is None else path
    alphas = [_exact_indices(spec.dim, r) for r, _ in pairs]
    both = [_trusted(Spectrum, spec, np.concatenate([u.coeffs, du.coeffs])) for _, du in pairs]
    jets = [(F, al) for F, als in zip(both, alphas) for al in als]
    pulled = _jet_pullback(jets, [phi, *path])  # axes (map, jet, field u/du, component, *shape)
    pulled = pulled.reshape((len(pulled), len(jets), 2, u.num_components) + spec.shape)
    out, bounds = [], np.cumsum([len(als) for als in alphas])[:-1]
    for (r, _), als, (at_phi, *at_nodes) in zip(pairs, alphas, np.split(pulled, bounds, axis=1)):
        factors = np.array([r / math.prod(map(math.factorial, al)) for al in als])
        factors = factors.reshape((-1,) + (1,) * (1 + spec.dim))  # over (component, *shape)
        node_sum = np.zeros_like(at_phi[:, 0])
        for t, w, vals in zip(ts, ws, at_nodes):
            bracket = (vals[:, 0] - at_phi[:, 0]) + vals[:, 1]
            node_sum += factors * w * (1.0 - t) ** (r - 1) * bracket
        out.append(GridFunction(spec, _contract(node_sum, als, dphi)))
    return out


def remainder_r1(u: Spectrum, phi: Diffeo, dphi: GridFunction, r: int) -> GridFunction:
    """R1 alone: the one-pair `taylor_remainder` with a zero field increment."""
    return taylor_remainder(u, phi, dphi, [(r, Spectrum(u.spec, np.zeros_like(u.coeffs)))])[0]


def remainder_r2(du: Spectrum, phi: Diffeo, dphi: GridFunction, r: int) -> GridFunction:
    """R2 alone: the one-pair `taylor_remainder` with a zero base field."""
    return taylor_remainder(Spectrum(du.spec, np.zeros_like(du.coeffs)), phi, dphi, [(r, du)])[0]


def taylor_defect(u: Spectrum, phi: Diffeo, du: Spectrum, dphi: GridFunction,
                  orders) -> list[float]:
    """Max grid defect of the order-r expansion with both remainders, for
    each r in `orders`; the path maps, each eta_k and the remainders' jet
    pullback are built once."""
    spec = phi.spec
    *path, perturbed = path_diffeo(phi, dphi, [*_gauss_legendre_01(GL_NODES)[0], 1.0])
    lhs = compose_function(Spectrum(spec, u.coeffs + du.coeffs), perturbed).values
    base = compose_function(u, phi).values  # k = 0 term
    terms = [eta_k(u, phi, du, dphi, k).values / math.factorial(k)
             for k in range(1, max(orders) + 1)]
    defects = []
    for r, rem in zip(orders, taylor_remainder(u, phi, dphi, [(r, du) for r in orders], path)):
        rhs = base.copy()
        for term in terms[:r]:
            rhs += term
        rhs += rem.values
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
    for each (r, du_dir) in `orders`, from one `taylor_remainder` call (one
    certified path, one jet pullback) per scale.

    For directions scaled by eps the combined remainder should vanish like
    eps^{r+1}; the probe reports the fitted log-log slope.  Identically
    zero directions yield a degenerate (vacuously passing) probe.  Returns
    a record per order: order, scales, norms, slope, monotone, degenerate.
    """
    if len(set(scales)) < 2:
        raise ValueError(f"'scales' needs two distinct values to fit a slope, got {scales}")
    norms = [[] for _ in orders]
    for eps in scales:
        pairs = [(r, Spectrum(phi.spec, eps * du_dir.coeffs)) for r, du_dir in orders]
        rems = taylor_remainder(u, phi, GridFunction(phi.spec, eps * dphi_dir.values), pairs)
        for rem, out in zip(rems, norms):
            out.append(hs_norm(forward_transform(rem), s))
    records = []
    for (r, _), norm in zip(orders, norms):
        degenerate = max(norm) < 1e-14
        slope = None if degenerate else float(np.polyfit(np.log(scales), np.log(norm), 1)[0])
        monotone = degenerate or all(a > b for a, b in zip(norm, norm[1:]))
        records.append({"order": r, "scales": list(scales), "norms": norm, "slope": slope,
                        "monotone": monotone, "degenerate": degenerate})
    return records


def inv_differential(phi: Diffeo, dphi: GridFunction, psi: Diffeo) -> GridFunction:
    """Derivative of the inversion map phi -> phi^{-1} applied to dphi, with
    psi = invert(phi):

        d inv(phi) dphi = -[(d phi)^{-1} dphi] o phi^{-1}.
    """
    n = phi.dim
    spec = phi.spec
    jac = phi.jacobian.reshape(n * n, -1)
    solved = solve_jacobian(jac, dphi.values.reshape(n, -1))
    b_spec = forward_transform(GridFunction(spec, solved.reshape((n,) + spec.shape)))
    return GridFunction(spec, -compose_stack(b_spec, [psi])[0])


def inv_differential_fd_error(phi: Diffeo, dphi: GridFunction, eps: float, psi: Diffeo) -> float:
    """Sup distance between d inv(phi) dphi (psi = invert(phi)) and a centred
    difference of the inversion map with step eps; decays like eps^2 for smooth data."""
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
    spec, maps = phi0.spec, len(radii) * trials
    fnorm = hs_norm(f, s + 1.0)
    W = random_field(spec, s, [seed + 1000 * i for i in range(trials)], components=spec.dim)
    norms = hs_norm_rows(W, s, trials).reshape((-1,) + (1,) * (spec.dim + 1))  # per trial
    w = W.coeffs.reshape((trials, spec.dim) + spec.shape)
    steps = np.concatenate([(radius / norms) * w for radius in radii]).reshape(-1, *spec.shape)
    step = inverse_transform(_trusted(Spectrum, spec, steps))
    base, *pulled = compose_stack(f, [phi0, *path_diffeo(phi0, step, [1.0])])
    stacked = (np.array(pulled) - base).reshape((-1,) + spec.shape)  # rows (radius, trial, c)
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
    if octaves < 2:
        raise ValueError(f"'octaves' must be >= 2 to give a growth factor, got {octaves}")
    dir_norm = hs_norm(forward_transform(dphi_dir), s)
    left, right = [], []
    maps = [phi, *path_diffeo(phi, dphi_dir, EPS_LADDER)]
    eps_scale = np.array(EPS_LADDER) * dir_norm
    for j in range(1, octaves + 1):
        k = 2**j
        if 2 * k > spec.size // 2:
            raise ValueError(f"octave {j} unresolvable at size {spec.size}")
        weight = (1.0 + (2.0 * np.pi * k) ** 2) ** (s / 2.0)
        psi_j = trig_polynomial(spec, sines={k: np.sqrt(2.0) / weight})  # unit H^s norm
        base, *at_eps = compose_stack(psi_j, maps)
        diffs = (np.array(at_eps) - base).reshape((-1,) + spec.shape)
        quots = hs_norm_rows(forward_transform(_trusted(GridFunction, spec, diffs)), s, len(diffs))
        left.append(float(max(0.0, *(quots / eps_scale))))
        right.append(float(hs_norm(forward_transform(GridFunction(spec, base)), s)))
    growth = [b / a for a, b in zip(left, left[1:])]
    return {
        "octaves": list(range(1, octaves + 1)),
        "left_quotients": left,
        "growth_factors": growth,
        "right_quotients": right,
    }

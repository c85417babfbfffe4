"""Geodesic flow and pointwise exponential map for chart metrics.

A Metric supplies g(z) and its Christoffel symbols on an open chart of
R^d (d = 1 or 2).  Geodesics solve the first-order system

    ydot = v,   vdot^k = -Gamma^k_pq(y) v^p v^q,

integrated with classical fourth-order Runge-Kutta.  The exponential map
acts pointwise on a field of chart points and a field of velocities; it is
diagonal in the points, so a field-level integration is exactly a bundle
of independent pointwise geodesics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import GridFunction

MAX_TIME = 2.0
MIN_STEPS = 16
FD_STEP = 1e-6


class MetricError(ValueError):
    """The metric lost positive definiteness along a trajectory."""

    def __init__(self, witness: np.ndarray):
        self.witness = np.asarray(witness)
        super().__init__(f"metric not positive definite near z = {self.witness}")


@dataclass(frozen=True)
class Metric:
    """Chart metric: callables for g and its Christoffel symbols, plus a kind
    tag for reports.

    metric(z): (..., d) -> (..., d, d);  christoffel(z): (..., d) float64 ->
    (..., d, d, d), indexed Gamma[..., k, p, q].
    """

    dim: int
    kind: str
    metric: Callable[[np.ndarray], np.ndarray]
    christoffel: Callable[[np.ndarray], np.ndarray]


def flat_metric(dim: int) -> Metric:
    eye = np.eye(dim)

    def g(z):
        z = np.asarray(z, dtype=np.float64)
        return np.broadcast_to(eye, z.shape[:-1] + (dim, dim)).copy()

    def gamma(z):
        return np.zeros(z.shape[:-1] + (dim, dim, dim))

    return Metric(dim, "flat", g, gamma)


def exp_metric_1d() -> Metric:
    """g(z) = e^{2z} on the line, so Gamma = g'/(2g) = 1; geodesics are
    gamma(t) = gamma0 + log(1 + v0 t) after rescaling, with a logarithmic
    barrier at v0 t = -1."""

    def g(z):
        z = np.asarray(z, dtype=np.float64)
        return np.exp(2.0 * z)[..., None]

    def gamma(z):
        return np.ones(z.shape[:-1] + (1, 1, 1))

    return Metric(1, "exp1d", g, gamma)


def conformal_metric_2d(
    lam: Callable[[np.ndarray], np.ndarray] | None = None,
    grad_lam: Callable[[np.ndarray], np.ndarray] | None = None,
) -> Metric:
    """g = e^{2 lam(z)} I on the plane; the bundled conformal factor is
    lam(z) = 0.2 sin(2 pi z1) cos(2 pi z2).  Its Christoffel symbols are
    Gamma^k_pq = delta_kp d_q lam + delta_kq d_p lam - delta_pq d_k lam."""
    if lam is None:

        def lam(z):
            return 0.2 * np.sin(2 * np.pi * z[..., 0]) * np.cos(2 * np.pi * z[..., 1])

        def grad_lam(z):
            c = 0.2 * 2 * np.pi
            sz, cz = np.sin(2 * np.pi * z), np.cos(2 * np.pi * z)
            return np.stack([c * cz[..., 0] * cz[..., 1], -c * sz[..., 0] * sz[..., 1]], axis=-1)

    elif grad_lam is None:
        raise ValueError("custom lam needs grad_lam (or use custom_metric)")

    eye = np.eye(2)
    # Gamma[..., k, p, q] = sum_m coef[k, p, q, m] d_m lam; every sum has one
    # nonzero term, so the product is exact
    coef = (
        np.einsum("kp,qm->kpqm", eye, eye)
        + np.einsum("kq,pm->kpqm", eye, eye)
        - np.einsum("pq,km->kpqm", eye, eye)
    ).reshape(8, 2).T

    def g(z):
        z = np.asarray(z, dtype=np.float64)
        factor = np.exp(2.0 * lam(z))
        return factor[..., None, None] * eye

    def gamma(z):
        d = grad_lam(z)
        return (d @ coef).reshape(d.shape[:-1] + (2, 2, 2))

    return Metric(2, "conformal2d", g, gamma)


def custom_metric(
    dim: int, g: Callable[[np.ndarray], np.ndarray], fd_step: float = FD_STEP
) -> Metric:
    """Wrap a plain metric callable: Christoffel symbols by the generic
    formula on centred differences, with g checked positive at every call."""

    def gamma(z):
        gz = g(z)
        _check_positive(gz, z, dim)
        cols = []
        for m in range(dim):
            e = np.zeros(dim)
            e[m] = fd_step
            cols.append((g(z + e) - g(z - e)) / (2.0 * fd_step))
        return _levi_civita(gz, np.stack(cols, axis=-1))

    return Metric(dim, "custom", g, gamma)


def _check_positive(mvals: np.ndarray, z: np.ndarray, dim: int):
    """Sylvester criterion for d <= 2; raises MetricError with a witness."""
    lead = mvals[..., 0, 0]
    bad = lead <= 0.0
    if dim == 2:
        det = mvals[..., 0, 0] * mvals[..., 1, 1] - mvals[..., 0, 1] * mvals[..., 1, 0]
        bad = bad | (det <= 0.0)
    if np.any(bad):
        idx = np.argwhere(bad)[0]
        raise MetricError(z[tuple(idx)])


def _levi_civita(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma[..., k, p, q] = g^{kl}/2 (d_q g_pl + d_p g_lq - d_l g_pq) from
    g (..., d, d) and dg (..., p, q, m), the last axis the derivative direction."""
    t1 = np.swapaxes(dg, -1, -2)  # (..., p, l, q) -> index (p, q, l)
    t2 = np.swapaxes(dg, -3, -1)  # (..., l, q, p) -> index (p, q, l)
    return 0.5 * np.einsum("...kl,...pql->...kpq", np.linalg.inv(g), t1 + t2 - dg)


def christoffel(m: Metric, z: np.ndarray) -> np.ndarray:
    """Gamma[..., k, p, q] of the metric at the chart points z (..., d)."""
    return m.christoffel(np.asarray(z, dtype=np.float64))


def _acceleration(m: Metric, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    gamma = christoffel(m, y)
    if m.dim == 1:
        return -(gamma[..., 0, 0, 0] * v[..., 0] * v[..., 0])[..., None]
    return -np.einsum("...kpq,...p,...q->...k", gamma, v, v)


def _rk4(m: Metric, y: np.ndarray, v: np.ndarray, h: float):
    k1y, k1v = v, _acceleration(m, y, v)
    k2y = v + 0.5 * h * k1v
    k2v = _acceleration(m, y + 0.5 * h * k1y, k2y)
    k3y = v + 0.5 * h * k2v
    k3v = _acceleration(m, y + 0.5 * h * k2y, k3y)
    k4y = v + h * k3v
    k4v = _acceleration(m, y + h * k3y, k4y)
    y_next = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    v_next = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return y_next, v_next


def _validate_time_steps(T: float, steps: int):
    if not 0.0 < abs(T) <= MAX_TIME:
        raise ValueError(f"integration time must satisfy 0 < |T| <= {MAX_TIME}")
    if steps < MIN_STEPS or steps != int(steps):
        raise ValueError(f"steps must be an integer >= {MIN_STEPS}, got {steps}")


@dataclass(frozen=True)
class Trajectory:
    """Discrete geodesics: times (M+1,), positions/velocities (M+1, d) for
    one geodesic or (M+1, P, d) for a batch of P."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray

    def energies(self, m: Metric) -> np.ndarray:
        """g(y)(v, v) along the trajectory, (M+1,) or (M+1, P); constant for
        exact geodesics."""
        g = m.metric(self.positions)
        return np.einsum("...pq,...p,...q->...", g, self.velocities, self.velocities)


def geodesic_flow(
    m: Metric, y0: np.ndarray, v0: np.ndarray, T: float = 1.0, steps: int = 256
) -> Trajectory:
    """Integrate geodesics from (y0, v0) over [0, T] with RK4: one from
    initial data of shape (d,), or P independent ones from shape (P, d)."""
    _validate_time_steps(T, steps)
    y = np.atleast_1d(np.asarray(y0, dtype=np.float64))
    v = np.atleast_1d(np.asarray(v0, dtype=np.float64))
    if y.shape != v.shape or y.ndim > 2 or y.shape[-1] != m.dim:
        raise ValueError(f"initial data must have shape ({m.dim},) or (P, {m.dim})")
    h = T / steps
    times = np.linspace(0.0, T, steps + 1)
    ys = np.empty((steps + 1,) + y.shape)
    vs = np.empty((steps + 1,) + y.shape)
    ys[0], vs[0] = y, v
    for i in range(steps):
        y, v = _rk4(m, y, v, h)
        ys[i + 1], vs[i + 1] = y, v
    return Trajectory(times, ys, vs)


def exp_field(
    m: Metric,
    f: GridFunction,
    Y: GridFunction,
    t: float = 1.0,
    steps: int = 256,
    max_speed: float | None = None,
) -> GridFunction:
    """Pointwise exponential: follow each grid point's geodesic to time t.

    f holds chart points (components = m.dim), Y the velocity field.  With
    max_speed set, reject fields whose pointwise metric speed sqrt(g(Y,Y))
    exceeds the cap; the near-identity theory only controls small velocity
    balls, and beyond the cap inversion of the time-1 map can fail.
    """
    _validate_time_steps(t, steps)
    if f.spec != Y.spec or f.num_components != m.dim or Y.num_components != m.dim:
        raise ValueError("point and velocity fields must match the metric dim")
    y = f.flat_points_values()  # (P, d)
    v = Y.flat_points_values()
    if max_speed is not None:
        g = m.metric(y)
        speeds = np.sqrt(np.einsum("...pq,...p,...q->...", g, v, v))
        top = float(np.max(speeds))
        if top > max_speed:
            raise ValueError(
                f"velocity cap exceeded: max metric speed {top:.4g} > {max_speed}"
            )
    h = t / steps
    for _ in range(steps):
        y, v = _rk4(m, y, v, h)
    d = m.dim
    return GridFunction(f.spec, y.T.reshape((d,) + f.spec.shape))


def scaling_defect(
    m: Metric, f: GridFunction, Y: GridFunction, lam: float, steps: int = 512
) -> float:
    """Max grid defect of the homogeneity law alpha(lam; Y) = alpha(1; lam Y)."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    scaled = GridFunction(Y.spec, lam * Y.values)
    right = exp_field(m, f, scaled, t=1.0, steps=steps)
    if lam == 0.0:  # alpha(0; Y) = f, the stationary side
        return float(np.max(np.abs(f.values - right.values)))
    left = exp_field(m, f, Y, t=lam, steps=steps)
    return float(np.max(np.abs(left.values - right.values)))


def d0_exp_error(
    m: Metric, f: GridFunction, Y_dir: GridFunction, eps: float, steps: int = 256
) -> float:
    """Grid L2 error of the first-order law (alpha(1; eps Y) - f)/eps = Y + O(eps)."""
    scaled = GridFunction(Y_dir.spec, eps * Y_dir.values)
    moved = exp_field(m, f, scaled, t=1.0, steps=steps)
    defect = (moved.values - f.values) / eps - Y_dir.values
    return float(np.sqrt(np.mean(np.sum(defect**2, axis=0))))


def rk4_order_errors(
    m: Metric,
    y0: np.ndarray,
    v0: np.ndarray,
    steps_list: tuple[int, ...] = (16, 32, 64, 128),
    ref_steps: int = 8192,
    T: float = 1.0,
) -> tuple[list[float], float]:
    """Endpoint errors against a dense reference and the fitted order."""
    ref = geodesic_flow(m, y0, v0, T=T, steps=ref_steps).positions[-1]
    errors = []
    for steps in steps_list:
        end = geodesic_flow(m, y0, v0, T=T, steps=steps).positions[-1]
        errors.append(float(np.linalg.norm(end - ref)))
    hs = [T / s for s in steps_list]
    slope = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
    return errors, slope

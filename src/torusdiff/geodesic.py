"""Geodesic flow and pointwise exponential map for chart metrics.

A Metric supplies g(z) and its geodesic spray on an open chart of R^d
(d = 1 or 2).  Geodesics solve the first-order system

    ydot = v,   vdot^k = -Gamma^k_pq(y) v^p v^q,

integrated with classical fourth-order Runge-Kutta on the pair (y, v) in
the chart coordinate: y itself in 1D, y1 + i y2 (complex128) in 2D.  Every
bundled metric is conformal, g = e^{2 lam} I, so its spray is
-conj(grad lam) v^2 with grad lam = lam_1 + i lam_2 (-lam' v^2 in 1D).
The exponential map acts pointwise on a field of chart points and a field
of velocities; it is diagonal in the points, so a field-level integration
is a bundle of independent pointwise geodesics, as is each ladder law's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import GridFunction

MAX_TIME = 2.0
MIN_STEPS = 16


def _chart(x, dim: int):
    """Real points (..., d) as chart coordinates (...): the real coordinate in
    1D, y1 + i y2 in 2D (a view); one point gives a Python float or complex."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = (x if dim == 1 else x.view(np.complex128))[..., 0]
    return y.item() if y.ndim == 0 else y


def _real(y) -> np.ndarray:
    """Chart coordinates (...) back to real points (..., d), as a view."""
    return np.asarray(y)[..., None].view(np.float64)


@dataclass(frozen=True)
class Metric:
    """Chart metric: callables for g and its geodesic spray.

    metric(z): (..., d) -> (..., d, d);  spray(y, v): chart coordinates of
    one shape (scalars or (P,) arrays, which a spray may treat apart;
    real in 1D, complex in 2D) -> the same shape, the spray -Gamma(y)(v, v).
    """

    dim: int
    metric: Callable[[np.ndarray], np.ndarray]
    spray: Callable

    def acceleration(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The spray on real arrays: two float64 (..., d) -> (..., d)."""
        return _real(self.spray(_chart(z, self.dim), _chart(v, self.dim)))


def flat_metric(dim: int) -> Metric:
    eye = np.eye(dim)

    def g(z):
        return np.broadcast_to(eye, np.shape(z)[:-1] + (dim, dim)).copy()

    return Metric(dim, g, lambda y, v: np.zeros_like(v))


def exp_metric_1d() -> Metric:
    """g(z) = e^{2z} on the line, so Gamma = g'/(2g) = 1; geodesics are
    gamma(t) = gamma0 + log(1 + v0 t) after rescaling, with a logarithmic
    barrier at v0 t = -1."""

    def g(z):
        return np.exp(2.0 * np.asarray(z, dtype=np.float64))[..., None]

    return Metric(1, g, lambda y, v: -(v * v))


def conformal_metric_2d() -> Metric:
    """g = e^{2 lam(z)} I on the plane with lam(z) = 0.2 sin(2 pi z1)
    cos(2 pi z2).  Its Christoffel symbols are
    Gamma^k_pq = delta_kp d_q lam + delta_kq d_p lam - delta_pq d_k lam, so
    the spray is |v|^2 grad lam - 2 (grad lam . v) v = -conj(grad lam) v^2."""
    # conj(grad lam) = 0.2 pi (1 - i)(cos(a + b) + i cos(a - b)), a, b =
    # 2 pi y1, 2 pi y2: one cos of the real and imaginary parts of
    # 2 pi (1 - i) y = (a + b) + i (b - a)
    turn, scale = 2 * np.pi * (1 - 1j), 0.2 * np.pi * (1 - 1j)

    def spray(y, v):
        w = turn * y
        if isinstance(w, complex):  # one point (a Python or numpy scalar): no array dispatch
            return -(scale * complex(math.cos(w.real), math.cos(w.imag)) * v) * v
        return -(scale * _chart(np.cos(_real(w)), 2) * v) * v

    eye = np.eye(2)

    def g(z):
        z = np.asarray(z, dtype=np.float64)
        lam = 0.2 * np.sin(2 * np.pi * z[..., 0]) * np.cos(2 * np.pi * z[..., 1])
        return np.exp(2.0 * lam)[..., None, None] * eye

    return Metric(2, g, spray)


def christoffel(m: Metric, z: np.ndarray) -> np.ndarray:
    """Gamma[..., k, p, q] at the chart points z (..., d) by polarization of
    the spray S(v) = -acceleration(z, v): Gamma(e_p, e_q) = (S(e_p + e_q) -
    S(e_p) - S(e_q)) / 2, exact for p = q since S(2 e_p) = 4 S(e_p) exactly."""
    eye = np.eye(m.dim)
    z = np.asarray(z, dtype=np.float64)[..., None, None, :]
    z, pairs = np.broadcast_arrays(z, eye[:, None] + eye)  # (..., p, q, d)
    pairs = np.moveaxis(-m.acceleration(z, pairs), -1, -3)  # (..., k, p, q)
    units = np.diagonal(pairs, axis1=-2, axis2=-1) / 4.0  # (..., k, p): S(e_p)
    return 0.5 * (pairs - units[..., :, None] - units[..., None, :])


def _rk4(spray: Callable, y, v, h):
    """One classical RK4 step of ydot = v, vdot = spray(y, v) on chart
    coordinates: Python scalars for one geodesic, (P,) arrays for P (and h)."""
    half, sixth = 0.5 * h, h / 6.0
    a1 = spray(y, v)
    v2 = v + half * a1
    a2 = spray(y + half * v, v2)
    v3 = v + half * a2
    a3 = spray(y + half * v2, v3)
    v4 = v + h * a3
    a4 = spray(y + h * v3, v4)
    return (
        y + sixth * (v + 2.0 * v2 + 2.0 * v3 + v4),
        v + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
    )


def _validate_time_steps(T: float, steps: int):
    if not 0.0 < abs(T) <= MAX_TIME:
        raise ValueError(f"integration time must satisfy 0 < |T| <= {MAX_TIME}")
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool) or steps < MIN_STEPS:
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
    y, v = (np.atleast_1d(np.asarray(a, dtype=np.float64)) for a in (y0, v0))
    if y.shape != v.shape or y.ndim > 2 or y.shape[-1] != m.dim:
        raise ValueError(f"initial data must have shape ({m.dim},) or (P, {m.dim})")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(v))):
        raise ValueError("initial data must be finite")
    ys, vs = _trajectory(m, _chart(y, m.dim), _chart(v, m.dim), T / steps, steps)
    return Trajectory(np.linspace(0.0, T, steps + 1), _real(ys), _real(vs))


def _trajectory(m: Metric, y, v, h, steps: int):
    """RK4 states (steps + 1, ...) from chart coordinates (y, v), step h."""
    ys, vs = np.empty((2, steps + 1) + np.shape(y), np.result_type(y))
    ys[0], vs[0] = y, v
    with np.errstate(all="ignore"):  # non-finite states raise below instead
        for i in range(steps):
            y, v = _rk4(m.spray, y, v, h)
            ys[i + 1], vs[i + 1] = y, v
    finite = np.isfinite(ys) & np.isfinite(vs)
    lost = np.flatnonzero(~finite.reshape(steps + 1, -1).all(axis=1))
    if len(lost):  # RK4 keeps a non-finite state non-finite: report the first
        raise ValueError(f"geodesic state not finite at step {lost[0]} of {steps}")
    return ys, vs


def exp_field(
    m: Metric, f: GridFunction, Y: GridFunction, t: float = 1.0, steps: int = 256
) -> GridFunction:
    """Pointwise exponential: each chart point of f (components = m.dim)
    follows its geodesic with velocity Y to time t, as one batch."""
    ends = _exp_points(m, *_lanes(m, f, Y, t, steps), t, steps)
    return GridFunction(f.spec, ends.T.reshape((m.dim,) + f.spec.shape))


def _lanes(m: Metric, f: GridFunction, Y: GridFunction, t: float, steps: int):
    """f's points and Y's velocities as (P, d) lanes, checked against m."""
    _validate_time_steps(t, steps)
    if f.spec != Y.spec or f.num_components != m.dim or Y.num_components != m.dim:
        raise ValueError("point and velocity fields must match the metric dim")
    return f.flat_points_values(), Y.flat_points_values()


def _exp_points(m: Metric, y: np.ndarray, v: np.ndarray, t, steps: int) -> np.ndarray:
    """Geodesic endpoints (P, d) from real points and velocities (P, d) at
    time t, a float or (P,) per lane; a lane with t = 0 stays put exactly."""
    h, y, v = t / steps, _chart(y, m.dim), _chart(v, m.dim)
    ye, ve = y, v
    with np.errstate(all="ignore"):
        for _ in range(steps):
            ye, ve = _rk4(m.spray, ye, ve, h)
    lost = ~(np.isfinite(ye) & np.isfinite(ve))
    if lost.any():  # replay the lost lanes to name the first non-finite step
        _trajectory(m, y[lost], v[lost], np.broadcast_to(h, lost.shape)[lost], steps)
    return _real(ye)


def scaling_defect(
    m: Metric, f: GridFunction, Y: GridFunction, lams, steps: int = 512
) -> list[float]:
    """Max grid defects of the homogeneity law alpha(lam; Y) = alpha(1; lam Y)
    for a ladder of lam in [0, 1], in one RK4 loop: right sides to t = 1 from
    lam Y, left sides to t = lam from Y (at lam = 0, the stationary f)."""
    lams, (y, v) = [float(lam) for lam in lams], _lanes(m, f, Y, 1.0, steps)
    if not all(0.0 <= lam <= 1.0 for lam in lams):
        raise ValueError(f"every lam must lie in [0, 1], got {lams}")
    n = len(lams)
    v = np.concatenate([c * v for c in lams + [1.0] * n])  # right sides, then left
    t = np.repeat([1.0] * n + lams, len(y))
    right, left = _exp_points(m, np.tile(y, (2 * n, 1)), v, t, steps).reshape(2, n, -1, m.dim)
    return [float(np.max(np.abs(a - b))) for a, b in zip(left, right)]


def d0_exp_error(
    m: Metric, f: GridFunction, Y_dir: GridFunction, eps_ladder, steps: int = 256
) -> list[float]:
    """Grid L2 errors of the first-order law (alpha(1; eps Y) - f)/eps = Y + O(eps)
    for a ladder of eps > 0, in one RK4 loop."""
    eps_ladder, (y, v) = [float(eps) for eps in eps_ladder], _lanes(m, f, Y_dir, 1.0, steps)
    if not all(0.0 < eps < math.inf for eps in eps_ladder):
        raise ValueError(f"every eps must be positive and finite, got {eps_ladder}")
    n, scaled = len(eps_ladder), np.concatenate([eps * v for eps in eps_ladder])
    ends = _exp_points(m, np.tile(y, (n, 1)), scaled, 1.0, steps).reshape(n, -1, m.dim)
    defects = (ends - y) / np.reshape(eps_ladder, (n, 1, 1)) - v
    return [float(np.sqrt(np.mean(np.sum(d**2, axis=-1)))) for d in defects]


def rk4_order_errors(m: Metric, y0: np.ndarray, v0: np.ndarray) -> tuple[list[float], float]:
    """Endpoint errors at T = 1 after 16, 32, 64 and 128 RK4 steps against an
    8192-step reference, and the order fitted to them."""
    steps_list = (16, 32, 64, 128)
    ref = geodesic_flow(m, y0, v0, T=1.0, steps=8192).positions[-1]
    errors = []
    for steps in steps_list:
        end = geodesic_flow(m, y0, v0, T=1.0, steps=steps).positions[-1]
        errors.append(float(np.linalg.norm(end - ref)))
        if errors[-1] == 0.0:
            raise ValueError(f"RK4 error at {steps} steps is exactly 0; no order to fit")
    slope = float(np.polyfit(np.log([1.0 / s for s in steps_list]), np.log(errors), 1)[0])
    return errors, slope

"""Metrics, Christoffel symbols, RK4 geodesic flow, pointwise exponential."""

import math
import re
import warnings

import numpy as np
import pytest

from torusdiff import geodesic
from torusdiff.geodesic import (
    Metric,
    Trajectory,
    christoffel,
    conformal_metric_2d,
    d0_exp_error,
    exp_field,
    flat_metric,
    geodesic_flow,
    rk4_order_errors,
    scaling_defect,
)
from torusdiff.grid import GridFunction, GridSpec, fourier_truncate, inverse_transform, random_field
from torusdiff.suites import run_suite

TWO_PI = 2.0 * np.pi
FD_STEP = 1e-6


def exp_metric_1d() -> Metric:
    """g(z) = e^{2z} on the line, so Gamma = g'/(2g) = 1; geodesics are
    gamma(t) = gamma0 + log(1 + v0 t) after rescaling, with a logarithmic
    barrier at v0 t = -1."""
    return Metric(1, lambda z: np.exp(2.0 * np.asarray(z, dtype=np.float64))[..., None],
                  lambda y, v: -(v * v))


# ---------------------------------------------------------------------------
# metrics and Christoffel symbols


def test_flat_christoffel_vanishes():
    m = flat_metric(2)
    z = np.random.default_rng(0).random((5, 2))
    assert np.max(np.abs(christoffel(m, z))) == 0.0


def test_exp_metric_christoffel_closed_form():
    # g = e^{2z}: Gamma = (1/2) g^{-1} dg = 1 for every z
    m = exp_metric_1d()
    z = np.linspace(-1.0, 1.0, 7)[:, None]
    gamma = christoffel(m, z)
    assert np.max(np.abs(gamma - 1.0)) < 1e-12


def _levi_civita(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma[..., k, p, q] = g^{kl}/2 (d_q g_pl + d_p g_lq - d_l g_pq) from
    g (..., d, d) and dg (..., p, q, m), the last axis the derivative direction."""
    t1 = np.swapaxes(dg, -1, -2)  # (..., p, l, q) -> index (p, q, l)
    t2 = np.swapaxes(dg, -3, -1)  # (..., l, q, p) -> index (p, q, l)
    return 0.5 * np.einsum("...kl,...pql->...kpq", np.linalg.inv(g), t1 + t2 - dg)


def _bundled_grad_lam(z):
    c = 0.2 * TWO_PI
    s1, c1 = np.sin(TWO_PI * z[..., 0]), np.cos(TWO_PI * z[..., 0])
    s2, c2 = np.sin(TWO_PI * z[..., 1]), np.cos(TWO_PI * z[..., 1])
    return np.stack([c * c1 * c2, -c * s1 * s2], axis=-1)


def _custom_lam(z):
    return 0.3 * z[..., 0] ** 2 - 0.1 * np.sin(z[..., 1]) + 0.05 * z[..., 0] * z[..., 1]


def _custom_grad_lam(z):
    return np.stack(
        [0.6 * z[..., 0] + 0.05 * z[..., 1], -0.1 * np.cos(z[..., 1]) + 0.05 * z[..., 0]],
        axis=-1,
    )


CONFORMAL = conformal_metric_2d()

# (metric, analytic dg[..., p, q, m] with the last axis the derivative direction)
CLOSED_FORMS = {
    "flat1": (flat_metric(1), lambda z: np.zeros(z.shape[:-1] + (1, 1, 1))),
    "flat2": (flat_metric(2), lambda z: np.zeros(z.shape[:-1] + (2, 2, 2))),
    "exp1d": (exp_metric_1d(), lambda z: 2.0 * np.exp(2.0 * z)[..., None, None]),
    "conformal2d": (
        CONFORMAL,
        lambda z: 2.0 * CONFORMAL.metric(z)[..., None] * _bundled_grad_lam(z)[..., None, None, :],
    ),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_form_christoffel_matches_generic_formula(name):
    """Precision contract: each bundled metric's closed-form Gamma equals the
    generic g^{kl}/2 (...) formula fed the analytic derivative of g."""
    m, dg = CLOSED_FORMS[name]
    z = np.random.default_rng(5).uniform(-3.0, 4.0, size=(4, 50, m.dim))
    want = _levi_civita(m.metric(z), dg(z))
    got = christoffel(m, z)
    assert got.shape == z.shape[:-1] + (m.dim, m.dim, m.dim)
    assert np.max(np.abs(got - want)) <= 1e-14


def custom_metric(dim, g):
    """A user-built Metric with no closed form: its spray contracts the
    generic Gamma on centred differences of g (_fd_gamma)."""
    gamma = _fd_gamma(g)

    def spray(y, v):
        z, w = geodesic._real(y), geodesic._real(v)
        return geodesic._chart(-np.einsum("...kpq,...p,...q->...k", gamma(z), w, w), dim)

    return Metric(dim, g, spray)


def user_conformal_metric(lam, grad_lam):
    """A user-built Metric g = e^{2 lam} I with the closed-form conformal
    spray -conj(grad lam) v^2 on the complex chart coordinate."""

    def g(z):
        return np.exp(2.0 * lam(z))[..., None, None] * np.eye(2)

    def spray(y, v):
        return -(np.conj(geodesic._chart(grad_lam(geodesic._real(y)), 2)) * v) * v

    return Metric(2, g, spray)


USER_CONFORMAL = user_conformal_metric(_custom_lam, _custom_grad_lam)


def test_custom_metric_matches_closed_form_derivative():
    z = np.random.default_rng(3).uniform(-1.5, 2.5, size=(6, 2))
    for conf in (conformal_metric_2d(), USER_CONFORMAL):
        fd = custom_metric(2, conf.metric)
        assert np.max(np.abs(christoffel(conf, z) - christoffel(fd, z))) < 1e-6


def _conformal_gamma(grad_lam):
    """Gamma^k_pq = delta_kp d_q lam + delta_kq d_p lam - delta_pq d_k lam."""

    def gamma(z):
        d, eye = grad_lam(z), np.eye(2)
        return (
            np.einsum("kp,...q->...kpq", eye, d)
            + np.einsum("kq,...p->...kpq", eye, d)
            - np.einsum("pq,...k->...kpq", eye, d)
        )

    return gamma


def _fd_gamma(g):
    """Generic formula on centred differences of g."""

    def gamma(z):
        cols = []
        for m in range(z.shape[-1]):
            e = np.zeros(z.shape[-1])
            e[m] = FD_STEP
            cols.append((g(z + e) - g(z - e)) / (2.0 * FD_STEP))
        return _levi_civita(g(z), np.stack(cols, axis=-1))

    return gamma


CUSTOM = custom_metric(2, USER_CONFORMAL.metric)


# (metric, independent Gamma[..., k, p, q]) for every metric kind
GAMMA_ORACLES = {
    "flat1": (flat_metric(1), lambda z: np.zeros(z.shape[:-1] + (1, 1, 1))),
    "flat2": (flat_metric(2), lambda z: np.zeros(z.shape[:-1] + (2, 2, 2))),
    "exp1d": (exp_metric_1d(), lambda z: np.ones(z.shape[:-1] + (1, 1, 1))),
    "conformal2d": (CONFORMAL, _conformal_gamma(_bundled_grad_lam)),
    "conformal2d_user": (USER_CONFORMAL, _conformal_gamma(_custom_grad_lam)),
    "custom": (CUSTOM, _fd_gamma(USER_CONFORMAL.metric)),
}


def _oracle_flow(gamma, y, v, T, steps):
    """RK4 on separate (y, v) with the acceleration contracted from Gamma."""

    def acc(y, v):
        return -np.einsum("...kpq,...p,...q->...k", gamma(y), v, v)

    h = T / steps
    ys, vs = [y], [v]
    for _ in range(steps):
        k1y, k1v = v, acc(y, v)
        k2y = v + 0.5 * h * k1v
        k2v = acc(y + 0.5 * h * k1y, k2y)
        k3y = v + 0.5 * h * k2v
        k3v = acc(y + 0.5 * h * k2y, k3y)
        k4y = v + h * k3v
        k4v = acc(y + h * k3y, k4y)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        ys.append(y)
        vs.append(v)
    return np.array(ys), np.array(vs)


def _initial_data(dim, shape, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=shape + (dim,)), rng.uniform(-0.3, 0.3, size=shape + (dim,))


@pytest.mark.parametrize("name", sorted(GAMMA_ORACLES))
def test_acceleration_is_contracted_christoffel(name):
    """Precision contract: each metric's spray equals -Gamma(v, v)."""
    m, gamma = GAMMA_ORACLES[name]
    z, v = _initial_data(m.dim, (4, 50), 11)
    z = 7.0 * z - 3.0
    want = -np.einsum("...kpq,...p,...q->...k", gamma(z), v, v)
    got = m.acceleration(z, v)
    assert got.shape == z.shape
    assert np.max(np.abs(got - want)) <= 1e-14


def _to_chart(x):
    """Real (..., d) as the chart coordinate: x itself in 1D, x1 + i x2 in 2D;
    one point gives a numpy scalar."""
    return (x[..., 0] if x.shape[-1] == 1 else x[..., 0] + 1j * x[..., 1])[()]


def _from_chart(y, dim):
    y = np.asarray(y)
    return y[..., None] if dim == 1 else np.stack([y.real, y.imag], axis=-1)


@pytest.mark.parametrize("name", sorted(GAMMA_ORACLES))
def test_spray_on_chart_scalars_and_arrays(name):
    """Precision contract: the spray on chart coordinates, numpy scalars for
    one point or (P,) arrays for P, is the real spray -Gamma(v, v)."""
    m, gamma = GAMMA_ORACLES[name]
    z, v = _initial_data(m.dim, (40,), 14)
    z = 7.0 * z - 3.0
    want = -np.einsum("...kpq,...p,...q->...k", gamma(z), v, v)
    real = m.acceleration(z, v)
    assert real.dtype == np.float64 and real.shape == z.shape
    assert np.max(np.abs(real - want)) <= 1e-14
    batch = m.spray(_to_chart(z), _to_chart(v))
    assert batch.shape == (40,)
    assert batch.dtype == (np.float64 if m.dim == 1 else np.complex128)
    assert np.max(np.abs(_from_chart(batch, m.dim) - real)) <= 1e-14
    for j in range(0, 40, 7):
        y1, v1 = _to_chart(z[j]), _to_chart(v[j])
        assert isinstance(y1, np.generic) and isinstance(v1, np.generic)
        one = m.spray(y1, v1)
        assert np.shape(one) == ()
        assert np.max(np.abs(_from_chart(one, m.dim) - real[j])) <= 1e-14
        assert np.array_equal(m.acceleration(z[j], v[j]), _from_chart(one, m.dim))


@pytest.mark.parametrize("name", sorted(GAMMA_ORACLES))
def test_single_point_flow_is_real(name):
    """One geodesic returns real float64 (M+1, d) arrays, whatever the chart
    coordinate RK4 runs on."""
    m, _ = GAMMA_ORACLES[name]
    y0, v0 = _initial_data(m.dim, (), 15)
    traj = geodesic_flow(m, y0, v0, T=0.5, steps=16)
    for arr in (traj.positions, traj.velocities):
        assert arr.dtype == np.float64 and arr.shape == (17, m.dim)
    assert np.array_equal(traj.positions[0], y0) and np.array_equal(traj.velocities[0], v0)


@pytest.mark.parametrize("name", sorted(GAMMA_ORACLES))
@pytest.mark.parametrize("shape", [(), (6,)])
def test_flow_matches_christoffel_rk4(name, shape):
    """Precision contract: RK4 on the state [y, v] with the closed-form
    acceleration tracks RK4 on (y, v) with the Gamma contraction."""
    m, gamma = GAMMA_ORACLES[name]
    y0, v0 = _initial_data(m.dim, shape, 12)
    traj = geodesic_flow(m, y0, v0, T=0.8, steps=64)
    ys, vs = _oracle_flow(gamma, y0, v0, 0.8, 64)
    assert traj.positions.shape == traj.velocities.shape == ys.shape
    assert np.max(np.abs(traj.positions - ys)) <= 1e-15
    assert np.max(np.abs(traj.velocities - vs)) <= 1e-15


@pytest.mark.parametrize("name", sorted(GAMMA_ORACLES))
def test_exp_field_matches_christoffel_rk4(name):
    m, gamma = GAMMA_ORACLES[name]
    spec = GridSpec(1, 16)
    y0, v0 = _initial_data(m.dim, (16,), 13)
    f, Y = GridFunction(spec, y0.T), GridFunction(spec, v0.T)
    out = exp_field(m, f, Y, t=0.8, steps=32)
    ys, _ = _oracle_flow(gamma, y0, v0, 0.8, 32)
    assert np.max(np.abs(out.flat_points_values() - ys[-1])) <= 1e-15


# ---------------------------------------------------------------------------
# flow


def test_flat_flow_is_translation():
    m = flat_metric(2)
    traj = geodesic_flow(m, np.array([0.1, 0.2]), np.array([0.3, -0.4]), T=1.0, steps=64)
    assert np.max(np.abs(traj.positions[-1] - np.array([0.4, -0.2]))) < 1e-12
    assert np.max(np.abs(traj.velocities[-1] - np.array([0.3, -0.4]))) < 1e-12


def test_exp_metric_closed_form_endpoint():
    # z(t) = log(1 + t) solves the geodesic equation for g = e^{2z}
    m = exp_metric_1d()
    traj = geodesic_flow(m, np.array([0.0]), np.array([1.0]), T=1.0, steps=256)
    assert traj.positions[-1][0] == pytest.approx(np.log(2.0), abs=1e-8)
    mid = traj.positions[len(traj.times) // 2][0]
    assert mid == pytest.approx(np.log(1.5), abs=1e-8)


def test_negative_time_flow_reverses():
    m = conformal_metric_2d()
    y0, v0 = np.array([0.2, 0.6]), np.array([0.25, -0.1])
    fwd = geodesic_flow(m, y0, v0, T=1.0, steps=128)
    back = geodesic_flow(m, fwd.positions[-1], -fwd.velocities[-1], T=1.0, steps=128)
    assert np.max(np.abs(back.positions[-1] - y0)) < 1e-8


def test_energy_conserved_on_conformal_metric():
    m = conformal_metric_2d()
    traj = geodesic_flow(m, np.array([0.15, 0.4]), np.array([0.3, 0.2]), T=1.0, steps=256)
    e = traj.energies(m)
    assert np.max(np.abs(e - e[0])) / e[0] < 1e-8


def test_batched_flow_equals_single_point_flows():
    m = conformal_metric_2d()
    rng = np.random.default_rng(8)
    y0 = rng.uniform(-0.5, 1.5, size=(5, 2))
    v0 = rng.uniform(-0.3, 0.3, size=(5, 2))
    batch = geodesic_flow(m, y0, v0, T=1.0, steps=64)
    assert batch.positions.shape == batch.velocities.shape == (65, 5, 2)
    assert batch.energies(m).shape == (65, 5)
    for j in range(5):
        one = geodesic_flow(m, y0[j], v0[j], T=1.0, steps=64)
        assert np.max(np.abs(batch.positions[:, j] - one.positions)) <= 1e-15
        assert np.max(np.abs(batch.velocities[:, j] - one.velocities)) <= 1e-15


@pytest.mark.parametrize(
    "y_shape, v_shape",
    [((3, 2), (2,)), ((3, 2), (2, 2)), ((2,), (3,)), ((3,), (3,)), ((1, 3, 2), (1, 3, 2))],
)
def test_flow_rejects_mismatched_initial_data(y_shape, v_shape):
    with pytest.raises(ValueError):
        geodesic_flow(conformal_metric_2d(), np.zeros(y_shape), np.zeros(v_shape), steps=16)


def test_time_and_step_validation():
    m = flat_metric(1)
    with pytest.raises(ValueError):
        geodesic_flow(m, np.array([0.0]), np.array([1.0]), T=3.0)
    with pytest.raises(ValueError):
        geodesic_flow(m, np.array([0.0]), np.array([1.0]), T=0.0)
    with pytest.raises(ValueError):
        geodesic_flow(m, np.array([0.0]), np.array([1.0]), steps=8)
    for steps in (16.0, np.float64(32), True):
        with pytest.raises(ValueError):
            geodesic_flow(m, np.array([0.0]), np.array([1.0]), steps=steps)
    spec = GridSpec(1, 16)
    f = GridFunction(spec, spec.axis_coordinates()[None])
    with pytest.raises(ValueError):
        exp_field(m, f, f, steps=16.0)
    traj = geodesic_flow(m, np.array([0.0]), np.array([1.0]), steps=np.int64(16))
    assert traj.positions.shape == (17, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["y0", "v0"])
def test_flow_rejects_non_finite_initial_data(bad, which):
    data = {"y0": np.array([[0.1, 0.2], [0.3, 0.4]]), "v0": np.array([[0.1, 0.0], [0.0, 0.1]])}
    data[which][1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        geodesic_flow(conformal_metric_2d(), data["y0"], data["v0"], steps=16)


def test_geodesic_past_the_chart_fails_loudly():
    """exp_metric_1d has a logarithmic barrier at v0 t = -1: from v0 = -2 the
    geodesic leaves the chart at t = 1/2, and RK4 overflows at step 35 of 64.
    Both entry points raise instead of returning -inf, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite at step 35 of 64"):
            geodesic_flow(exp_metric_1d(), [0.0], [-2.0], 1.0, 64)
        spec = GridSpec(1, 8)
        v = np.full((1, 8), 0.1)
        v[0, 5] = -2.0
        f = GridFunction(spec, np.zeros((1, 8)))
        with pytest.raises(ValueError, match="not finite at step 35 of 64"):
            exp_field(exp_metric_1d(), f, GridFunction(spec, v), 1.0, 64)
    # a batch names the first step at which any of its geodesics is lost
    y0, v0 = np.zeros((3, 1)), np.array([[0.5], [-2.0], [-4.0]])
    steps = []
    for y, v in ((y0, v0), (y0[1], v0[1]), (y0[2], v0[2])):
        with pytest.raises(ValueError) as err:
            geodesic_flow(exp_metric_1d(), y, v, 1.0, 64)
        steps.append(int(re.search(r"at step (\d+) of", str(err.value)).group(1)))
    assert steps[0] == min(steps[1:]) < steps[1] == 35


def test_rk4_order_rejects_exact_integration():
    # a geodesic at rest is integrated exactly: every error is 0, so no slope
    for m in (flat_metric(2), conformal_metric_2d()):
        with pytest.raises(ValueError, match="exactly 0"):
            rk4_order_errors(m, np.array([0.1, 0.2]), np.zeros(2))


def test_rk4_fourth_order():
    m = conformal_metric_2d()
    errs, slope = rk4_order_errors(m, np.array([0.15, 0.35]), np.array([0.3, 0.2]))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert 3.7 <= slope <= 4.3


def test_geodesic_suite_fits_the_rk4_order_on_its_fastest_probe():
    # at this seed probe 1 moves at |v| = 0.039 and its slope reads 3.57,
    # below the band; the fastest probe's slope lies inside it
    rep = run_suite("geodesic", {"seed": 7800019})
    trial = next(t for t in rep.trials if t["check"] == "rk4_order")
    assert rep.passed and trial["probe"] == 5
    assert 3.7 <= trial["slope"] <= 4.3


# ---------------------------------------------------------------------------
# pointwise exponential on fields


def test_exp_field_zero_velocity_stationary():
    spec = GridSpec(1, 32)
    m = flat_metric(1)
    f = GridFunction(spec, spec.axis_coordinates()[None])
    zero = GridFunction(spec, np.zeros((1, 32)))
    out = exp_field(m, f, zero)
    assert np.array_equal(out.values, f.values)


def test_exp_field_flat_translation():
    spec = GridSpec(1, 32)
    m = flat_metric(1)
    f = GridFunction(spec, spec.axis_coordinates()[None])
    Y = inverse_transform(fourier_truncate(random_field(spec, 3.0, 19), 8))
    out = exp_field(m, f, Y, steps=64)
    assert np.max(np.abs(out.values - (f.values + Y.values))) < 1e-12


def test_exp_field_matches_per_point_flow():
    """The field ODE is diagonal over grid points, so exp_field must agree
    with running geodesic_flow one point at a time."""
    spec = GridSpec(1, 16)
    m = conformal_metric_2d()
    x = spec.axis_coordinates()
    f = GridFunction(spec, np.stack([x, 0.3 + 0.2 * np.sin(TWO_PI * x)]))
    Y = GridFunction(spec, np.stack([0.1 * np.cos(TWO_PI * x), 0.05 * np.sin(TWO_PI * x)]))
    out = exp_field(m, f, Y, steps=64)
    pts = f.flat_points_values()
    vels = Y.flat_points_values()
    for j in (0, 5, 11):
        traj = geodesic_flow(m, pts[j], vels[j], T=1.0, steps=64)
        assert np.max(np.abs(out.flat_points_values()[j] - traj.positions[-1])) < 1e-12


def _curve_fields(size):
    """Chart points along a closed curve and a small velocity field on them."""
    spec = GridSpec(1, size)
    x = spec.axis_coordinates()
    f = GridFunction(spec, np.stack([x, 0.3 + 0.2 * np.sin(TWO_PI * x)]))
    Y = GridFunction(spec, np.stack([0.1 * np.cos(TWO_PI * x), 0.05 * np.sin(TWO_PI * x)]))
    return f, Y


def test_scaling_law():
    f, Y = _curve_fields(32)
    m = conformal_metric_2d()
    defects = scaling_defect(m, f, Y, [1.0, 0.5, 0.3, 0.0], steps=256)
    assert len(defects) == 4 and all(d < 1e-8 for d in defects)
    with pytest.raises(ValueError, match="lam must lie in"):
        scaling_defect(m, f, Y, [0.5, 1.5])


def test_d0_exp_first_order():
    f, Y = _curve_fields(32)
    errs = d0_exp_error(conformal_metric_2d(), f, Y, [1e-2, 5e-3], steps=128)
    assert 1.7 <= errs[0] / errs[1] <= 2.3


def _scaled(Y, c):
    return GridFunction(Y.spec, c * Y.values)


def test_ladders_equal_per_entry_exp_field_runs():
    """Precision contract: one RK4 loop over every rung of a ladder gives,
    bit for bit, what one exp_field run per rung gives."""
    f, Y = _curve_fields(32)
    m = conformal_metric_2d()
    lams = [1.0, 0.5, 0.3, 0.0]
    want = []
    for lam in lams:
        right = exp_field(m, f, _scaled(Y, lam), t=1.0, steps=64).values
        left = exp_field(m, f, Y, t=lam, steps=64).values if lam else f.values
        want.append(float(np.max(np.abs(left - right))))
    assert scaling_defect(m, f, Y, lams, steps=64) == want
    assert scaling_defect(m, f, Y, [0.3], steps=64) == want[2:3]
    eps_ladder = [1e-2, 2.5e-3]
    want = []
    for eps in eps_ladder:
        moved = exp_field(m, f, _scaled(Y, eps), t=1.0, steps=64).values
        defect = (moved - f.values) / eps - Y.values
        want.append(float(np.sqrt(np.mean(np.sum(defect**2, axis=0)))))
    assert d0_exp_error(m, f, Y, eps_ladder, steps=64) == want


@pytest.mark.parametrize("eps", [0.0, -1e-3, np.inf, np.nan])
def test_d0_exp_error_rejects_a_step_that_is_not_positive_and_finite(eps):
    f, Y = _curve_fields(16)
    with pytest.raises(ValueError, match="every eps must be positive and finite"):
        d0_exp_error(conformal_metric_2d(), f, Y, [1e-2, eps])


def test_ladders_check_their_fields_and_steps():
    f, Y = _curve_fields(16)
    m = conformal_metric_2d()
    flat = GridFunction(f.spec, f.values[:1])
    for ladder in (scaling_defect, d0_exp_error):
        with pytest.raises(ValueError, match="metric dim"):
            ladder(m, flat, flat, [0.5])
        with pytest.raises(ValueError, match="steps must be an integer"):
            ladder(m, f, Y, [0.5], steps=8)


@pytest.mark.parametrize("name", ["exp1d", "conformal2d"])
def test_exp_points_with_per_lane_times_equal_separate_runs(name):
    """Precision contract: lanes with their own times, t = 0 included, end
    bit for bit where one run per time puts them; a t = 0 lane stays put."""
    m, _ = GAMMA_ORACLES[name]
    y, v = _initial_data(m.dim, (12,), 21)
    times = np.array([0.3, 1.0, 0.7, 0.0] * 3)
    ends = geodesic._exp_points(m, y, v, times, 32)
    assert ends.shape == y.shape
    for t in np.unique(times):
        lanes = times == t
        alone = geodesic._exp_points(m, y[lanes], v[lanes], float(t), 32)
        assert np.array_equal(ends[lanes], alone)
    assert np.array_equal(ends[times == 0.0], y[times == 0.0])


def _lost_step(*flow_args):
    with pytest.raises(ValueError) as err:
        geodesic_flow(exp_metric_1d(), *flow_args)
    return int(re.search(r"at step (\d+) of", str(err.value)).group(1))


def test_exp_points_names_the_first_lost_step_at_each_lanes_time():
    """The replay runs each lost lane to its own time: a lane lost only at
    its own time is named at the step where it alone would be lost."""
    y, v = np.zeros((3, 1)), np.array([[0.5], [-2.0], [-8.0]])
    own, at_one = _lost_step([0.0], [-8.0], 0.5, 64), _lost_step([0.0], [-8.0], 1.0, 64)
    assert own < _lost_step([0.0], [-2.0], 1.0, 64) and own != at_one
    with pytest.raises(ValueError, match=f"not finite at step {own} of 64"):
        geodesic._exp_points(exp_metric_1d(), y, v, np.array([1.0, 1.0, 0.5]), 64)
    with pytest.raises(ValueError, match="not finite at step 35 of 64"):
        geodesic._exp_points(exp_metric_1d(), y, v, np.array([1.0, 1.0, 0.0]), 64)


def test_scalar_spray_takes_math_cos_bit_for_bit_where_it_equals_np_cos():
    """Precision contract: one point's spray takes math.cos where the array
    spray takes np.cos, and nothing else changes: where the two cosines agree
    (every lane here on x86-64 with numpy 2.4), the spray is bit for bit the
    numpy-scalar form it replaces; every cosine is within an ulp."""
    m = conformal_metric_2d()
    rng = np.random.default_rng(23)
    z = rng.uniform(-4.7, 4.7, size=(2000, 2))  # |2 pi (1 - i) y| up to about 59
    y, w = _to_chart(z), _to_chart(rng.uniform(-0.3, 0.3, size=(2000, 2)))
    turn, scale = TWO_PI * (1 - 1j), 0.2 * np.pi * (1 - 1j)
    parts = geodesic._real(np.array([turn * yj for yj in y]))  # w as one point makes it
    assert np.max(np.abs(parts)) > 55.0
    by_math = np.vectorize(math.cos)(parts)
    assert np.all(np.abs(by_math - np.cos(parts)) <= np.spacing(np.abs(by_math)))
    same = np.all(by_math == np.cos(parts), axis=-1)
    for j in np.flatnonzero(same):
        replaced = -(scale * geodesic._chart(np.cos(geodesic._real(turn * y[j])), 2) * w[j]) * w[j]
        one = m.spray(y[j], w[j])
        assert one == replaced and isinstance(one, np.complex128)


# numpy's vectorized complex multiply rounds differently from the scalar one
# (fused multiply-adds), already in w = 2 pi (1 - i) y: the two w differ by up
# to sqrt(2) ulps, and at |w| ~ 60 an ulp moves cos by ~7e-15.  So a lane and
# its one-point spray differ by at most SPRAY_UNITS of |scale| |v|^2 ulp(|w|)
# + ulp(|spray|); 100 000 lanes came within 1.94 of them.
SPRAY_UNITS = 4


def test_scalar_spray_equals_the_array_spray_lane_by_lane():
    m = conformal_metric_2d()
    rng = np.random.default_rng(29)
    y = _to_chart(rng.uniform(-4.7, 4.7, size=(2000, 2)))
    w = _to_chart(rng.uniform(-0.3, 0.3, size=(2000, 2)))
    batch = m.spray(y, w)
    one = np.array([m.spray(y[j], w[j]) for j in range(len(y))])
    turn, scale = TWO_PI * (1 - 1j), 0.2 * np.pi * (1 - 1j)
    unit = abs(scale) * np.abs(w) ** 2 * np.spacing(np.abs(turn * y)) + np.spacing(np.abs(batch))
    assert np.all(np.abs(one - batch) <= SPRAY_UNITS * unit)


def test_the_geodesic_suite_steps_rk4_once_per_step_count(monkeypatch):
    """Ladders share one RK4 loop: flat 256, scaling 512, d0 256, energy 256,
    and the single-point reference 8192 + 16 + 32 + 64 + 128 steps."""
    calls = []
    rk4 = geodesic._rk4

    def counted(*args):
        calls.append(1)
        return rk4(*args)

    monkeypatch.setattr(geodesic, "_rk4", counted)
    assert run_suite("geodesic").passed
    assert len(calls) == 256 + 512 + 256 + 256 + 8192 + 240 == 9712

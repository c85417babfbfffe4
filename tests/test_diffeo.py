"""Diffeomorphism certification, composition, inversion, derivative identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusdiff.diffeo as diffeo_module
import torusdiff.grid as grid_module
from torusdiff.diffeo import (
    CERT_REFINE,
    NEWTON_HALVINGS,
    DiffeoError,
    InversionError,
    _displacement_gradient,
    certify_stack,
    chain_rule_residual,
    compose_diffeo,
    compose_function,
    compose_stack,
    gradient_sup,
    identity_diffeo,
    inverse_derivative_residual,
    invert,
    make_diffeo,
    solve_jacobian,
)
from torusdiff.grid import (
    GridFunction,
    GridSpec,
    Spectrum,
    evaluate,
    forward_transform,
    fourier_truncate,
    inverse_transform,
    random_field,
    refine,
)
from torusdiff.suites import random_certified_displacement, run_suite

TWO_PI = 2.0 * np.pi


def sine_disp(spec, amp):
    coeffs = np.zeros((1,) + spec.shape, dtype=np.complex128)
    coeffs[0, 1] = amp / 2j
    coeffs[0, -1] = -amp / 2j
    return Spectrum(spec, coeffs)


def shift_disp(spec, offsets):
    coeffs = np.zeros((spec.dim,) + spec.shape, dtype=np.complex128)
    for i, a in enumerate(np.atleast_1d(offsets)):
        coeffs[(i,) + (0,) * spec.dim] = a
    return Spectrum(spec, coeffs)


def sin_spectrum(spec, k=1):
    x = spec.axis_coordinates()
    return forward_transform(GridFunction(spec, np.sin(TWO_PI * k * x)[None]))


# ---------------------------------------------------------------------------
# certification


def test_identity_certificate():
    phi = identity_diffeo(GridSpec(1, 32))
    assert phi.min_det == pytest.approx(1.0)
    assert phi.max_grad == 0.0
    assert phi.contraction_certified


def test_certificate_values_for_sine():
    spec = GridSpec(1, 128)
    phi = make_diffeo(sine_disp(spec, 0.05))
    # phi' = 1 + 0.05 * 2 pi cos(2 pi x)
    assert phi.min_det == pytest.approx(1.0 - 0.05 * TWO_PI, abs=1e-6)
    assert phi.max_grad == pytest.approx(0.05 * TWO_PI, abs=1e-6)
    assert phi.mean_displacement[0] == pytest.approx(0.0, abs=1e-15)


def test_orientation_failure_detected_first():
    spec = GridSpec(1, 128)
    with pytest.raises(DiffeoError) as err:
        make_diffeo(sine_disp(spec, 0.2))  # slope 1.26 > 1: det crosses zero
    assert err.value.reason == "orientation"
    assert err.value.value <= 0.0


def test_conditioning_failure():
    spec = GridSpec(1, 256)
    amp = 0.155  # slope 0.974: det > 0 everywhere but below the 0.05 floor
    with pytest.raises(DiffeoError) as err:
        make_diffeo(sine_disp(spec, amp))
    assert err.value.reason == "conditioning"
    assert 0.0 < err.value.value < 0.05


def test_injectivity_failure_in_2d():
    """A nilpotent shear keeps det = 1 but pushes the operator norm of du
    past 1, which only the contraction certificate can reject."""
    spec = GridSpec(2, 32)
    x = spec.axis_coordinates()
    coeffs = np.zeros((2,) + spec.shape, dtype=np.complex128)
    # u_1(x_2) = (1.1 / 2 pi) sin(2 pi x_2), so d2 u_1 peaks at 1.1
    coeffs[0, 0, 1] = (1.1 / TWO_PI) / 2j
    coeffs[0, 0, -1] = -(1.1 / TWO_PI) / 2j
    with pytest.raises(DiffeoError) as err:
        make_diffeo(Spectrum(spec, coeffs))
    assert err.value.reason == "injectivity"
    assert err.value.value >= 1.0


def test_component_count_mismatch():
    spec = GridSpec(2, 16)
    one = Spectrum(spec, np.zeros((1, 16, 16), dtype=np.complex128))
    with pytest.raises(ValueError):
        make_diffeo(one)


def test_min_det_floor_configurable():
    spec = GridSpec(1, 256)
    amp = 0.155
    phi = make_diffeo(sine_disp(spec, amp), min_det_floor=0.01)
    assert phi.min_det < 0.05
    assert phi.min_det > 0.01


def _stacked(displacements):
    return Spectrum(displacements[0].spec, np.concatenate([u.coeffs for u in displacements]))


def _shear_disp(spec, slope):
    """u_1(x_2) = (slope / 2 pi) sin(2 pi x_2): det 1, sup |du|_op = slope."""
    coeffs = np.zeros((2,) + spec.shape, dtype=np.complex128)
    coeffs[0, 0, 1], coeffs[0, 0, -1] = (slope / TWO_PI) / 2j, -(slope / TWO_PI) / 2j
    return Spectrum(spec, coeffs)


@pytest.mark.parametrize(
    "spec, options",
    [
        (GridSpec(1, 64), {}),
        (GridSpec(1, 256), {"min_det_floor": 0.01, "refine_factor": 2}),
        (GridSpec(2, 16), {}),
        (GridSpec(2, 32), {"check_contraction": False}),
    ],
)
def test_certify_stack_matches_make_diffeo_row_by_row(spec, options):
    """Precision contract of the stacked certifier: each map of the stack
    equals make_diffeo on its own displacement, every field bit for bit
    (as observed with numpy 2.4's pocketfft, whose stacked transforms
    match row-wise ones)."""
    disps = [
        random_certified_displacement(spec, seed, 4, amp)
        for seed, amp in ((1, 0.3), (2, 0.5), (3, 0.7))
    ] + [shift_disp(spec, [0.25, -0.5][: spec.dim])]
    if not options.get("check_contraction", True):
        disps.append(_shear_disp(spec, 1.1))  # recorded, not rejected
    maps = certify_stack(_stacked(disps), **options)
    assert len(maps) == len(disps)
    for phi, disp in zip(maps, disps):
        want = make_diffeo(disp, **options)
        assert (phi.min_det, phi.max_grad) == (want.min_det, want.max_grad)
        assert phi.min_det_floor == want.min_det_floor
        assert phi.contraction_certified == want.contraction_certified
        for got, ref in (
            (phi.disp_values, want.disp_values),
            (phi.jacobian, want.jacobian),
            (phi.displacement.coeffs, want.displacement.coeffs),
        ):
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()
    if not options.get("check_contraction", True):
        assert maps[-1].max_grad >= 1.0 and not maps[-1].contraction_certified


@pytest.mark.parametrize(
    "spec, bad, reason",
    [
        (GridSpec(1, 128), sine_disp(GridSpec(1, 128), 0.2), "orientation"),
        (GridSpec(1, 256), sine_disp(GridSpec(1, 256), 0.155), "conditioning"),
        (GridSpec(2, 32), _shear_disp(GridSpec(2, 32), 1.1), "injectivity"),
    ],
)
def test_certify_stack_raises_the_failing_maps_error(spec, bad, reason):
    """A stack whose k-th map fails raises make_diffeo's error for that map
    (reason, witness and value), whatever passes or fails after it."""
    good = [random_certified_displacement(spec, seed, 4, 0.4) for seed in (4, 5)]
    with pytest.raises(DiffeoError) as single:
        make_diffeo(bad)
    assert single.value.reason == reason
    later_failure = sine_disp(spec, 0.2) if spec.dim == 1 else _shear_disp(spec, 1.5)
    for k in range(len(good) + 1):
        with pytest.raises(DiffeoError) as stacked:
            certify_stack(_stacked(good[:k] + [bad] + good[k:] + [later_failure]))
        assert (stacked.value.reason, stacked.value.value) == (reason, single.value.value)
        assert np.array_equal(stacked.value.witness, single.value.witness)


def closed_form_det_and_opnorm(grad_vals, dim):
    """det(I + du) and |du|_op at every point, as the certificate computed
    them before it kept a key for the operator norm."""
    if dim == 1:
        du = grad_vals[0]
        return 1.0 + du, np.abs(du)
    a, b, c, d = grad_vals
    det = (1.0 + a) * (1.0 + d) - b * c
    frob2 = a * a + b * b + c * c + d * d
    det_du = a * d - b * c
    gap = np.sqrt(np.maximum(frob2 * frob2 - 4.0 * det_du * det_du, 0.0))
    return det, np.sqrt(np.maximum((frob2 + gap) / 2.0, 0.0))


# (spec, [(seed, modes, amplitude)]) for random_certified_displacement: the
# group suite's eight T^2 draws but with two steep maps, and three on T^1
CERTIFIED_STACKS = [
    (GridSpec(2, 64), [(13 + i, 4, 0.2) for i in range(6)] + [(5, 8, 0.9), (6, 4, 0.95)]),
    (GridSpec(1, 256), [(3, 16, 0.9), (4, 16, 0.5), (5, 8, 0.2)]),
]


@pytest.mark.parametrize("spec, draws", CERTIFIED_STACKS)
def test_certificate_extremes_equal_the_closed_form(spec, draws):
    """Precision contract: min_det and max_grad of certify_stack, and
    gradient_sup, equal the extremes of the closed-form det and |du|_op on
    the refined grid bit for bit; max_grad is within 1e-14 (1 + max_grad) of
    the spectral norm of du at the point where it is attained."""
    disps = [random_certified_displacement(spec, *draw) for draw in draws]
    maps = certify_stack(_stacked(disps))
    assert len(maps) == len(draws)
    for phi, u in zip(maps, disps):
        grad = refine(_displacement_gradient(u), CERT_REFINE).values.reshape(spec.dim**2, -1)
        det, opnorm = closed_form_det_and_opnorm(grad, spec.dim)
        top = int(np.argmax(opnorm))
        assert (phi.min_det, phi.max_grad) == (float(np.min(det)), float(opnorm[top]))
        assert gradient_sup(u) == phi.max_grad
        jac = grad[:, top].reshape(spec.dim, spec.dim)
        assert abs(phi.max_grad - np.linalg.norm(jac, 2)) <= 1e-14 * (1.0 + phi.max_grad)


# ---------------------------------------------------------------------------
# composition


def test_compose_function_with_identity():
    spec = GridSpec(1, 64)
    f = sin_spectrum(spec)
    out = compose_function(f, identity_diffeo(spec))
    assert np.max(np.abs(out.values - inverse_transform(f).values)) < 1e-12


def test_compose_function_rigid_shift():
    spec = GridSpec(1, 64)
    f = sin_spectrum(spec)
    quarter = make_diffeo(shift_disp(spec, 0.25))
    out = compose_function(f, quarter)
    expected = np.cos(TWO_PI * spec.axis_coordinates())
    assert np.max(np.abs(out.values[0] - expected)) < 1e-12


@pytest.mark.parametrize(
    "spec, count", [(GridSpec(1, 256), 3), (GridSpec(2, 16), 3), (GridSpec(2, 18), 2)]
)
def test_compose_stack_matches_compose_function_row_by_row(spec, count):
    """Precision contract of the stacked pullback: row b of compose_stack is
    compose_function(f, maps[b]) bit for bit, although the maps' B * P points
    run through evaluate's 512-point blocks together (at N = 18 a block ends
    inside the second map)."""
    maps = certify_stack(_stacked([
        random_certified_displacement(spec, seed, 4, 0.4) for seed in range(count)
    ]))
    f = fourier_truncate(random_field(spec, 2.0, 7, components=2), spec.size // 4)
    assert count * spec.num_points > 512
    pulled = compose_stack(f, maps)
    assert pulled.shape == (count, 2) + spec.shape
    for row, phi in zip(pulled, maps):
        assert row.tobytes() == compose_function(f, phi).values.tobytes()


def test_compose_diffeo_identity_neutral():
    spec = GridSpec(1, 128)
    phi = make_diffeo(sine_disp(spec, 0.05))
    ident = identity_diffeo(spec)
    for left, right in ((phi, ident), (ident, phi)):
        comp = compose_diffeo(left, right)
        assert np.max(np.abs(comp.disp_values - phi.disp_values)) < 1e-12


def test_shift_subgroup_adds():
    spec = GridSpec(1, 32)
    a = make_diffeo(shift_disp(spec, 0.1))
    b = make_diffeo(shift_disp(spec, 0.15))
    comp = compose_diffeo(a, b)
    assert np.max(np.abs(comp.disp_values - 0.25)) < 1e-12


def test_compose_diffeo_associative():
    from torusdiff.suites import random_certified_displacement

    spec = GridSpec(1, 256)
    a, b, c = (
        make_diffeo(random_certified_displacement(spec, sd, 16, 0.15))
        for sd in (13, 14, 15)
    )
    lhs = compose_diffeo(compose_diffeo(a, b), c)
    rhs = compose_diffeo(a, compose_diffeo(b, c))
    assert np.max(np.abs(lhs.disp_values - rhs.disp_values)) < 1e-9


def test_compose_rejects_grid_mismatch():
    a = identity_diffeo(GridSpec(1, 32))
    b = identity_diffeo(GridSpec(1, 64))
    with pytest.raises(ValueError):
        compose_diffeo(a, b)


def test_det_multiplicativity():
    spec = GridSpec(1, 256)
    phi = make_diffeo(sine_disp(spec, 0.05))
    psi = make_diffeo(sine_disp(spec, 0.03))
    comp = compose_diffeo(phi, psi)
    det_phi = forward_transform(GridFunction(spec, phi.jacobian[0, 0][None]))
    pulled = compose_function(det_phi, psi).values[0]
    assert np.max(np.abs(comp.jacobian[0, 0] - pulled * psi.jacobian[0, 0])) < 1e-8


# ---------------------------------------------------------------------------
# inversion


def test_invert_identity():
    spec = GridSpec(1, 32)
    psi = invert(identity_diffeo(spec))
    assert np.max(np.abs(psi.disp_values)) < 1e-12


def test_invert_fixed_point_and_bisection_oracle():
    spec = GridSpec(1, 256)
    phi = make_diffeo(sine_disp(spec, 0.1))
    psi = invert(phi)

    def at(x):  # psi(x) = x + v(x), evaluated off the grid
        return x + evaluate(psi.displacement, np.array([x]))[0, 0]

    assert at(0.5) == pytest.approx(0.5, abs=1e-12)

    # bisection oracle for phi(x) = 0.25
    lo, hi = -0.5, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (lo + 0.1 * np.sin(TWO_PI * lo) - 0.25) * (
            mid + 0.1 * np.sin(TWO_PI * mid) - 0.25
        ) <= 0:
            hi = mid
        else:
            lo = mid
    assert at(0.25) == pytest.approx(0.5 * (lo + hi), abs=1e-10)


def test_group_axioms():
    spec = GridSpec(1, 256)
    tol = 1e-12
    for amp in (0.05, 0.1):
        phi = make_diffeo(sine_disp(spec, amp))
        psi = invert(phi, tol=tol)
        right = compose_diffeo(phi, psi)
        left = compose_diffeo(psi, phi)
        assert np.max(np.abs(right.disp_values)) < 10 * tol
        assert np.max(np.abs(left.disp_values)) < 10 * tol


def test_double_inversion():
    spec = GridSpec(1, 256)
    tol = 1e-12
    phi = make_diffeo(sine_disp(spec, 0.1))
    back = invert(invert(phi, tol=tol), tol=tol)
    assert np.max(np.abs(back.disp_values - phi.disp_values)) < 100 * tol


def test_inverse_of_steep_map_flagged_not_rejected():
    """phi' dips to 0.37, so the inverse derivative peaks near 1.7; the
    inverse is still a genuine diffeomorphism and must come back usable,
    with the conservative contraction certificate recorded as not met."""
    spec = GridSpec(1, 256)
    phi = make_diffeo(sine_disp(spec, 0.1))
    psi = invert(phi)
    assert not psi.contraction_certified
    assert psi.max_grad > 1.0
    assert psi.min_det > 0.05
    # mild maps keep the certificate
    assert invert(make_diffeo(sine_disp(spec, 0.05))).contraction_certified


def test_invert_2d_low_mode():
    """Single-mode 2D displacement: the inverse is analytic with a wide
    strip, so its grid resampling is exact well below the Newton target
    and both composition orders collapse to the identity."""
    spec = GridSpec(2, 32)
    coeffs = np.zeros((2, 32, 32), dtype=np.complex128)
    coeffs[0, 0, 1], coeffs[0, 0, -1] = 0.05 / 2j, -0.05 / 2j  # u1(x2)
    coeffs[1, 1, 0], coeffs[1, -1, 0] = 0.04 / 2j, -0.04 / 2j  # u2(x1)
    phi = make_diffeo(Spectrum(spec, coeffs))
    psi = invert(phi)
    assert np.max(np.abs(compose_diffeo(phi, psi).disp_values)) < 1e-11
    assert np.max(np.abs(compose_diffeo(psi, phi).disp_values)) < 1e-11


def test_invert_2d_random():
    """Rougher 2D data: phi o psi stays grid-exact (the Newton residual is
    checked at exactly these points) while psi o phi additionally carries
    the accepted band-limit resampling error of the inverse displacement."""
    spec = GridSpec(2, 32)
    F = random_field(spec, 3.0, 5, components=2)
    u = Spectrum(spec, 0.02 * F.coeffs / np.max(np.abs(F.coeffs)))
    phi = make_diffeo(u)
    psi = invert(phi)
    assert np.max(np.abs(compose_diffeo(phi, psi).disp_values)) < 1e-11
    assert np.max(np.abs(compose_diffeo(psi, phi).disp_values)) < 1e-5


def test_invert_unreachable_tolerance():
    spec = GridSpec(1, 64)
    phi = make_diffeo(sine_disp(spec, 0.05))
    with pytest.raises(InversionError):
        invert(phi, tol=1e-300, max_iter=3)


def all_points_newton(phi, tol=1e-12, max_iter=50, max_halvings=5):
    """The Newton sweep invert replaced: every sweep evaluates the residual
    and the Jacobian at every grid point, starting from x0 = y, and stops
    when the largest step of the sweep falls below tol.  Returns x - y.
    It calls evaluate through the diffeo module, so EvaluateLog counts it."""
    n = phi.dim
    y = phi.spec.points().T
    grad = _displacement_gradient(phi.displacement)

    def residual(x):
        return x + diffeo_module.evaluate(phi.displacement, x.T) - y

    x = y.copy()
    r = residual(x)
    rnorm = np.sqrt(np.sum(r * r, axis=0))
    for _ in range(max_iter):
        jac_pts = diffeo_module.evaluate(grad, x.T)
        jac_pts[:: n + 1] += 1.0
        step = solve_jacobian(jac_pts, r)
        x_new = x - step
        r_new = residual(x_new)
        rn_new = np.sqrt(np.sum(r_new * r_new, axis=0))
        for _ in range(max_halvings):
            bad = rn_new > np.maximum(rnorm, 10.0 * tol)
            if not np.any(bad):
                break
            step = np.where(bad[None], step / 2.0, step)
            x_new = x - step
            r_new = residual(x_new)
            rn_new = np.sqrt(np.sum(r_new * r_new, axis=0))
        x, r, rnorm = x_new, r_new, rn_new
        if np.max(np.sqrt(np.sum(step * step, axis=0))) < tol:
            break
    assert np.max(rnorm) < 10.0 * tol
    return (x - y).reshape((n,) + phi.spec.shape)


def index_array_newton(phi, tol=1e-12, max_iter=50):
    """invert's Newton loop with the active and todo sets always held as
    index arrays.  Returns x - y, the number of halvings and the number of
    sweeps after which the active set shrank but did not empty."""
    spec, n = phi.spec, phi.dim
    y = spec.points().T
    grad = _displacement_gradient(phi.displacement).coeffs
    stacked = Spectrum(spec, np.concatenate([phi.displacement.coeffs, grad]))
    x = y.copy()
    r = phi.disp_values.reshape(n, -1).copy()
    rnorm = np.linalg.norm(r, axis=0)
    jac = phi.jacobian.reshape(n * n, -1).copy()
    active = np.arange(y.shape[1])
    halvings = shrinks = 0
    for _ in range(max_iter):
        step = solve_jacobian(jac[:, active], r[:, active])
        start, limit = x[:, active], np.maximum(rnorm[active], 10.0 * tol)
        todo = np.arange(len(active))
        for halving in range(NEWTON_HALVINGS + 1):
            if halving:
                step[:, todo] /= 2.0
                halvings += 1
            at = active[todo]
            x[:, at] = start[:, todo] - step[:, todo]
            vals = evaluate(stacked, x[:, at].T)
            vals[n :: n + 1] += 1.0
            r[:, at] = x[:, at] + vals[:n] - y[:, at]
            jac[:, at] = vals[n:]
            rnorm[at] = np.linalg.norm(r[:, at], axis=0)
            todo = todo[rnorm[at] > limit[todo]]
            if not len(todo):
                break
        kept = active[np.linalg.norm(step, axis=0) >= tol]
        shrinks += 0 < len(kept) < len(active)
        active = kept
        if not len(active):
            break
    return (x - y).reshape((n,) + spec.shape), halvings, shrinks


@pytest.mark.parametrize(
    "spec, draws",
    [
        (GridSpec(1, 256), [(3, 16, 0.9), (4, 16, 0.5), (8, 4, 0.05)]),
        (GridSpec(2, 64), [(13, 4, 0.2), (6, 4, 0.95), (7, 16, 0.9)]),
    ],
)
def test_invert_equals_the_index_array_newton_bit_for_bit(spec, draws):
    """Sliced sweeps (when a set covers every point) change no bit of the
    result, including maps steep enough to halve steps and shrink the
    active set."""
    halvings = shrinks = 0
    for draw in draws:
        phi = make_diffeo(random_certified_displacement(spec, *draw))
        v, halved, shrank = index_array_newton(phi)
        halvings, shrinks = halvings + halved, shrinks + shrank
        want = forward_transform(GridFunction(spec, v)).coeffs
        assert invert(phi).displacement.coeffs.tobytes() == want.tobytes()
    assert halvings and shrinks


class EvaluateLog:
    """Stands in for diffeo.evaluate and records (spectrum, points, values)."""

    def __init__(self, monkeypatch):
        self.calls = []
        monkeypatch.setattr(diffeo_module, "evaluate", self)

    def __call__(self, F, points):
        vals = evaluate(F, points)
        self.calls.append((F, np.array(points), vals.copy()))
        return vals

    def points(self):
        """Points over every recorded call: what the phase tables cost."""
        return sum(len(pts) for _, pts, _ in self.calls)


def group_t2_maps():
    """The eight maps of the group suite on T^2 at N = 64 (its seeds 13-20)."""
    spec = GridSpec(2, 64)
    return [
        make_diffeo(random_certified_displacement(spec, 13 + i, 4, 0.2))
        for i in range(8)
    ]


def test_invert_matches_all_points_newton_in_1d():
    spec = GridSpec(1, 256)
    maps = [make_diffeo(sine_disp(spec, amp)) for amp in (0.05, 0.1, 0.15)]
    maps += [make_diffeo(random_certified_displacement(spec, sd, 16, 0.5)) for sd in (3, 4)]
    for phi in maps:
        assert np.max(np.abs(invert(phi).disp_values - all_points_newton(phi))) <= 1e-14


def test_invert_matches_all_points_newton_in_2d_with_less_evaluate_work(monkeypatch):
    """On the group suite's T^2 maps, invert agrees with the all-points
    Newton to 1e-14 while evaluating at no more than half as many points."""
    log = EvaluateLog(monkeypatch)
    new_points = old_points = 0
    for phi in group_t2_maps():
        log.calls.clear()
        psi = invert(phi)
        new_points += log.points()
        log.calls.clear()
        oracle = all_points_newton(phi)
        old_points += log.points()
        assert np.max(np.abs(psi.disp_values - oracle)) <= 1e-14
    assert new_points <= 0.5 * old_points


def test_newton_builds_phase_tables_at_the_maps_band(monkeypatch):
    """The group suite's T^2 maps keep |k| <= 4 at N = 64: every Newton sweep
    of invert builds its phase tables for the band M = 10 at most, while a
    full-band evaluate still builds them for N = 64."""
    sizes = []
    phases = grid_module._phases
    monkeypatch.setattr(grid_module, "_phases", lambda x, size: sizes.append(size) or phases(x, size))
    spec = GridSpec(2, 64)
    phi = make_diffeo(random_certified_displacement(spec, 13, 4, 0.2))
    invert(phi)
    assert sizes and max(sizes) <= 10
    sizes.clear()
    evaluate(random_field(spec, 2.0, 13), spec.points()[:700])
    assert sizes and set(sizes) == {64}


@pytest.mark.parametrize("dim", [1, 2])
def test_invert_evaluates_only_unconverged_points(monkeypatch, dim):
    """No evaluate before the first step (it reads phi's stored grid values),
    then one evaluate of the stacked spectrum [u; du] (n + n^2 components)
    per sweep, at exactly the points whose last step was >= tol; its rows
    give the residual and the next sweep's Jacobian.  The steps are replayed
    from the logged values with the same arithmetic invert uses."""
    spec = GridSpec(dim, 32)
    phi = make_diffeo(random_certified_displacement(spec, 11, 4, 0.3))
    n, tol = dim, 1e-12
    log = EvaluateLog(monkeypatch)
    invert(phi, tol=tol)
    y = spec.points().T
    x, r = y.copy(), phi.disp_values.reshape(n, -1).copy()
    jac = phi.jacobian.reshape(n * n, -1).copy()
    grad = _displacement_gradient(phi.displacement).coeffs
    stacked = log.calls[0][0]
    assert np.array_equal(stacked.coeffs, np.concatenate([phi.displacement.coeffs, grad]))
    active = np.arange(spec.num_points)
    calls = iter(log.calls)
    shrank = False
    while len(active):
        step = solve_jacobian(jac[:, active], r[:, active])
        F, pts, vals = next(calls)  # [u; du] at this sweep's new iterate
        assert F is stacked and F.num_components == n + n * n
        assert np.array_equal(pts, (x[:, active] - step).T)
        x[:, active] = pts.T
        r[:, active] = pts.T + vals[:n] - y[:, active]
        vals[n :: n + 1] += 1.0
        jac[:, active] = vals[n:]
        active = active[np.sqrt(np.sum(step * step, axis=0)) >= tol]
        shrank |= 0 < len(active) < spec.num_points
    assert next(calls, None) is None  # no halving, no sweep after the last
    assert shrank


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.05, 0.5), st.sampled_from([2, 4]))
def test_invert_round_trip_2d_property(seed, amplitude, modes):
    """A random certified T^2 map composed with its inverse leaves a
    displacement at the Newton target: phi o invert(phi) = id to 1e-11."""
    spec = GridSpec(2, 16)
    phi = make_diffeo(random_certified_displacement(spec, seed, modes, amplitude))
    psi = invert(phi)
    assert np.max(np.abs(compose_diffeo(phi, psi).disp_values)) < 1e-11


def test_group_trial_on_t2_at_n128_passes():
    """N = 128 is the largest supported T^2 grid; one default trial passes."""
    report = run_suite("group", {"dim": 2, "size": 128, "trials": 1})
    assert report.passed


# ---------------------------------------------------------------------------
# derivative identities


def test_chain_rule_identity_map():
    spec = GridSpec(1, 64)
    f = sin_spectrum(spec)
    assert chain_rule_residual(f, identity_diffeo(spec)) < 1e-12


def test_chain_rule_bundled_example():
    spec = GridSpec(1, 128)
    phi = make_diffeo(sine_disp(spec, 0.1))
    assert chain_rule_residual(sin_spectrum(spec), phi) < 1e-8


def test_chain_rule_random_field():
    spec = GridSpec(1, 128)
    phi = make_diffeo(sine_disp(spec, 0.1))
    from torusdiff.grid import fourier_truncate

    f = fourier_truncate(random_field(spec, 3.0, 17), 32)
    from torusdiff.norms import hs_norm

    assert chain_rule_residual(f, phi) < 1e-6 * hs_norm(f, 2.0)


def two_call_chain_rule_residual(f, phi):
    """The chain-rule defect from two pullbacks at phi, f and then df: the
    reference for chain_rule_residual's one stacked pullback."""
    comp = forward_transform(compose_function(f, phi))
    df = compose_stack(_displacement_gradient(f), [phi])
    df_at_phi = df.reshape((f.num_components, phi.dim) + phi.spec.shape)
    worst = 0.0
    for axis in range(phi.dim):
        lhs = inverse_transform(grid_module.differentiate(comp, axis)).values
        rhs = np.einsum("cj...,j...->c...", df_at_phi, phi.jacobian[:, axis])
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


@pytest.mark.parametrize(
    "dim, size, band, components",
    [(1, 128, 32, 1), (1, 256, 8, 1), (1, 64, 16, 2), (2, 32, 8, 1), (2, 64, 8, 2)],
)
def test_chain_rule_residual_matches_two_pullbacks(dim, size, band, components, monkeypatch):
    """One compose_stack of [f; df] gives the two-call defect to roundoff: the
    defect differentiates sampled values, so a rounding of ~1e-16 sum|f_k| in
    them may grow by the top wavenumber, and the bound is 1e-14 N sum|f_k|."""
    spec = GridSpec(dim, size)
    phi = make_diffeo(random_certified_displacement(spec, 13, max(2, size // 16), 0.2))
    f = fourier_truncate(random_field(spec, 3.0, 17, components), band)
    want = two_call_chain_rule_residual(f, phi)
    stacks = []
    stack = diffeo_module.compose_stack
    monkeypatch.setattr(diffeo_module, "compose_stack", lambda F, m: stacks.append(F) or stack(F, m))
    got = chain_rule_residual(f, phi)
    assert abs(got - want) <= 1e-14 * size * np.abs(f.coeffs).sum()
    assert [F.num_components for F in stacks] == [components * (1 + dim)]


def test_inverse_derivative_identity_and_shift():
    spec = GridSpec(1, 64)
    ident = identity_diffeo(spec)
    assert inverse_derivative_residual(ident, ident) < 1e-12
    shift = make_diffeo(shift_disp(spec, 0.25))
    assert inverse_derivative_residual(shift, invert(shift)) < 1e-12


def test_inverse_derivative_bundled_example():
    spec = GridSpec(1, 256)
    phi = make_diffeo(sine_disp(spec, 0.1))
    assert inverse_derivative_residual(phi, invert(phi)) < 1e-7

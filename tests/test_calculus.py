"""Taylor expansion of composition, remainders, the inverse differential,
translation quotients, and the derivative-loss probe."""

import math

import numpy as np
import pytest

from torusdiff import calculus, diffeo, grid
from torusdiff.algebra import multiply
from torusdiff.diffeo import compose_function, make_diffeo
from torusdiff.grid import (
    GridFunction,
    GridSpec,
    Spectrum,
    differentiate_multi,
    forward_transform,
    fourier_truncate,
    inverse_transform,
    random_field,
)
from torusdiff.norms import hs_norm
from torusdiff.suites import _bundled_calculus_data, random_certified_displacement, run_suite

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def bundle():
    """Analytic u, certified phi, and directions shared by the tests."""
    spec = GridSpec(1, 256)
    x = spec.axis_coordinates()
    u = forward_transform(GridFunction(spec, np.sin(TWO_PI * x)[None]))
    coeffs = np.zeros((1, 256), dtype=np.complex128)
    coeffs[0, 1], coeffs[0, -1] = 0.05 / 2j, -0.05 / 2j
    phi = make_diffeo(Spectrum(spec, coeffs))
    du = forward_transform(GridFunction(spec, (0.02 * np.cos(2 * TWO_PI * x))[None]))
    dphi = GridFunction(spec, (0.01 * np.cos(TWO_PI * x))[None])
    return spec, u, phi, du, dphi


# ---------------------------------------------------------------------------
# multilinear terms


def test_eta_rejects_nonpositive_order(bundle):
    spec, u, phi, du, dphi = bundle
    with pytest.raises(ValueError):
        calculus.eta_k(u, phi, du, dphi, 0)


def test_eta1_is_the_directional_derivative(bundle):
    """Finite differences of (u + e du) o (phi + e dphi) must converge to
    eta_1 at first order in e."""
    spec, u, phi, du, dphi = bundle
    eta1 = calculus.eta_k(u, phi, du, dphi, 1)
    base = compose_function(u, phi).values
    dphi_hat = forward_transform(dphi)
    prev = None
    for eps in (1e-3, 1e-4, 1e-5):
        pert_u = Spectrum(spec, u.coeffs + eps * du.coeffs)
        pert_phi = make_diffeo(
            Spectrum(spec, phi.displacement.coeffs + eps * dphi_hat.coeffs)
        )
        fd = (compose_function(pert_u, pert_phi).values - base) / eps
        err = np.max(np.abs(fd - eta1.values))
        if prev is not None:
            assert err < prev * 0.2  # linear shrinkage
        prev = err
    assert prev < 1e-6


def _eta_per_multi_index(u, phi, du, dphi, k):
    """eta_k term by term: one pullback per multi-index and field, and
    (a != 0) one dealiased product by dphi^a each (the oracle for the
    stacked jet pullback)."""
    spec = phi.spec
    acc = np.zeros((u.num_components,) + spec.shape)
    for F, order in ((u, k), (du, k - 1)):
        for alpha in calculus._exact_indices(spec.dim, order):
            coeff = math.factorial(k) / math.prod(math.factorial(a) for a in alpha)
            comp = compose_function(differentiate_multi(F, alpha), phi)
            if order == 0:
                acc += coeff * comp.values
            else:
                acc += coeff * multiply(comp, calculus._monomial(dphi, alpha)).values
    return acc


@pytest.mark.parametrize("k", [1, 2, 3])
def test_eta_matches_the_per_multi_index_sum(bundle, k):
    """Precision contract of the stacked jet pullback: eta_k stays within
    1e-13 (relative, max-norm) of the term-by-term sum, in 1D and on T^2
    at N = 16 and 32."""
    spec, u, phi, du, dphi = bundle
    cases = [(u, phi, du, dphi)]
    for size in (16, 32):
        spec2 = GridSpec(2, size)
        u2 = fourier_truncate(random_field(spec2, 3.0, 5), 4)
        phi2 = make_diffeo(random_certified_displacement(spec2, 6, 3, 0.3))
        cases.append((u2, phi2) + _random_directions(spec2, 7, k, 0.1))
    for u, phi, du, dphi in cases:
        want = _eta_per_multi_index(u, phi, du, dphi, k)
        got = calculus.eta_k(u, phi, du, dphi, k).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_one_jet_pullback_per_expansion(bundle, monkeypatch):
    """eta_k, a taylor_remainder call over several (r, du) pairs and each
    scale of remainder_order_probe make one compose_stack each, at phi (and
    the path's nodes), in one evaluate."""
    spec, u, phi, du, dphi = bundle
    stacks, evals = [], []
    comp, ev = calculus.compose_stack, diffeo.evaluate
    monkeypatch.setattr(calculus, "compose_stack", lambda F, m: stacks.append(len(m)) or comp(F, m))
    monkeypatch.setattr(diffeo, "evaluate", lambda F, pts: evals.append(len(pts)) or ev(F, pts))
    for k in (1, 2, 3):
        calculus.eta_k(u, phi, du, dphi, k)
    calculus.taylor_remainder(u, phi, dphi, [(1, du), (2, du), (3, du)])
    calculus.remainder_order_probe(u, phi, dphi, [(1, du), (2, du)], scales=(0.5, 0.25))
    nodes = calculus.GL_NODES + 1
    assert stacks == [1, 1, 1, nodes, nodes, nodes]
    assert evals == [maps * spec.num_points for maps in stacks]


def test_taylor_suites_pull_back_once_per_expansion(monkeypatch):
    """The default taylor-identity suite evaluates at most 5 times (the
    perturbed composite, u o phi, each eta_k, the remainders), and
    taylor-order once per seed and scale, at phi and the 16 nodes."""
    evals = []
    ev = diffeo.evaluate
    monkeypatch.setattr(diffeo, "evaluate", lambda F, pts: evals.append(len(pts)) or ev(F, pts))
    assert run_suite("taylor-identity").passed and len(evals) <= 5
    evals.clear()
    report = run_suite("taylor-order")
    points = (calculus.GL_NODES + 1) * report.params["size"]
    assert report.passed
    assert evals == [points] * len(report.params["seeds"]) * len(calculus.DEFAULT_SCALES)


def test_suite_analytic_data_are_exact_spectra(monkeypatch):
    """The Taylor suites' u = sin 2 pi x and du = 0.02 cos 4 pi x and lipschitz's
    f = sin 2 pi x + 0.3 cos 4 pi x hold only their own modes, so they evaluate
    at bands 4, 6 and 6; a forward transform of samples would give N."""
    u, _, du, _ = _bundled_calculus_data(GridSpec(1, 256))
    fields, quotients = [], calculus.right_translation_quotients
    monkeypatch.setattr(calculus, "right_translation_quotients",
                        lambda f, *args: fields.append(f) or quotients(f, *args))
    run_suite("lipschitz")
    assert [grid._band_size(F.coeffs, F.spec.size) for F in (u, du, *fields)] == [4, 6, 6]


def test_default_taylor_order_jets_evaluate_at_band_18(monkeypatch):
    """The default taylor-order jet stack [u; du_dir] holds |k| <= 8 (du_dir's
    truncation), so each of its 24 pullbacks evaluates at band 18, not N = 256."""
    bands, band_size = [], grid._band_size
    monkeypatch.setattr(grid, "_band_size", lambda c, n: bands.append(band_size(c, n)) or bands[-1])
    assert run_suite("taylor-order").passed
    assert bands == [18] * 3 * len(calculus.DEFAULT_SCALES)


def test_monomial_starts_from_its_first_factor(bundle):
    """dphi^alpha takes its first factor as is and pays one dealiased product
    per further factor: (1,) is dphi's values unchanged, (2,) is one
    multiply(dphi, dphi), the all-zero alpha is the field 1; on T^2,
    (1, 1) is one multiply of the two components."""
    spec, _, _, _, dphi = bundle
    assert np.array_equal(calculus._monomial(dphi, (1,)).values, dphi.values)
    assert np.array_equal(calculus._monomial(dphi, (0,)).values, np.ones((1,) + spec.shape))
    assert np.array_equal(calculus._monomial(dphi, (2,)).values, multiply(dphi, dphi).values)
    spec2 = GridSpec(2, 16)
    dphi2 = inverse_transform(random_certified_displacement(spec2, 5, 4, 0.3))
    first, second = (GridFunction(spec2, dphi2.values[i : i + 1]) for i in (0, 1))
    assert np.array_equal(calculus._monomial(dphi2, (1, 1)).values, multiply(first, second).values)
    assert np.array_equal(calculus._monomial(dphi2, (0, 1)).values, second.values)
    assert np.array_equal(calculus._monomial(dphi2, (0, 0)).values, np.ones((1,) + spec2.shape))


def test_default_taylor_order_makes_72_products(monkeypatch):
    """dphi^alpha of order r costs r - 1 products and its contraction one: the
    default taylor-order suite (3 seeds x 8 scales, orders 1 and 2 in 1D)
    makes 24 remainder calls of 1 + 2 products each, 72 in all (120 when
    every monomial started from the field 1)."""
    calls = []
    mul = calculus.multiply
    monkeypatch.setattr(calculus, "multiply", lambda f, g: calls.append(1) or mul(f, g))
    assert run_suite("taylor-order").passed
    assert len(calls) == 3 * len(calculus.DEFAULT_SCALES) * (1 + 2) == 72


def test_taylor_identity_exact_orders(bundle):
    """u o phi + sum eta_k / k! + R1 + R2 rebuilds the perturbed composite
    to machine precision for analytic band-limited data."""
    spec, u, phi, du, dphi = bundle
    assert max(calculus.taylor_defect(u, phi, du, dphi, (1, 2, 3))) < 1e-12


def test_taylor_defect_orders_share_the_path_and_eta(bundle, monkeypatch):
    """Orders (1, 2) in one call certify the path maps once and build each
    eta_k once, and give the two single-order calls' defects bit for bit."""
    spec, u, phi, du, dphi = bundle
    single = [calculus.taylor_defect(u, phi, du, dphi, (r,)) for r in (1, 2)]
    paths, etas = [], []
    path_diffeo, eta_k = calculus.path_diffeo, calculus.eta_k
    monkeypatch.setattr(calculus, "path_diffeo", lambda *a: paths.append(a) or path_diffeo(*a))
    monkeypatch.setattr(calculus, "eta_k", lambda *a: etas.append(a[-1]) or eta_k(*a))
    assert calculus.taylor_defect(u, phi, du, dphi, (1, 2)) == single[0] + single[1]
    assert len(paths) == 1 and etas == [1, 2]


def test_taylor_identity_2d():
    spec = GridSpec(2, 32)
    x = spec.axis_coordinates()
    X0, X1 = np.meshgrid(x, x, indexing="ij")
    u = forward_transform(
        GridFunction(spec, (np.sin(TWO_PI * X0) * np.cos(TWO_PI * X1))[None])
    )
    coeffs = np.zeros((2, 32, 32), dtype=np.complex128)
    coeffs[0, 0, 1], coeffs[0, 0, -1] = 0.05 / 2j, -0.05 / 2j
    phi = make_diffeo(Spectrum(spec, coeffs))
    du = forward_transform(GridFunction(spec, (0.02 * np.cos(TWO_PI * (X0 + X1)))[None]))
    dphi = GridFunction(
        spec, np.stack([0.01 * np.cos(TWO_PI * X1), 0.01 * np.sin(TWO_PI * X0)])
    )
    assert max(calculus.taylor_defect(u, phi, du, dphi, (1, 2))) < 1e-12


def test_remainders_vanish_for_zero_perturbation(bundle):
    spec, u, phi, du, dphi = bundle
    zero = GridFunction(spec, np.zeros((1, 256)))
    r1 = calculus.remainder_r1(u, phi, zero, 1)
    assert np.max(np.abs(r1.values)) < 1e-14


def _per_node_remainders(u, phi, du, dphi, r):
    """R1 and R2 as separate per-node sums: one path per remainder and one
    dealiased product per Gauss-Legendre node (the oracle for the fused
    pass).  Also returns max |d^a u o phi| |dphi^a|, the size of the terms
    whose differences make up R1."""
    spec = phi.spec
    ts, ws = calculus._gauss_legendre_01(calculus.GL_NODES)
    r1 = np.zeros((u.num_components,) + spec.shape)
    r2 = np.zeros((du.num_components,) + spec.shape)
    size = 0.0
    path1 = [calculus.path_diffeo(phi, dphi, [t])[0] for t in ts]
    path2 = [calculus.path_diffeo(phi, dphi, [t])[0] for t in ts]
    for alpha in calculus._exact_indices(spec.dim, r):
        coeff = r / math.prod(math.factorial(a) for a in alpha)
        mono = calculus._monomial(dphi, alpha)
        da_u = differentiate_multi(u, alpha)
        da_du = differentiate_multi(du, alpha)
        base = compose_function(da_u, phi).values
        size = max(size, np.max(np.abs(base)) * np.max(np.abs(mono.values)))
        for t, w, phi_t in zip(ts, ws, path1):
            bracket = GridFunction(spec, compose_function(da_u, phi_t).values - base)
            r1 += coeff * w * (1.0 - t) ** (r - 1) * multiply(bracket, mono).values
        for t, w, phi_t in zip(ts, ws, path2):
            term = compose_function(da_du, phi_t)
            r2 += coeff * w * (1.0 - t) ** (r - 1) * multiply(term, mono).values
    return r1, r2, size


def _random_directions(spec, seed, r, eps):
    du = fourier_truncate(random_field(spec, 2.0 + r, seed), 4)
    du = Spectrum(spec, eps * du.coeffs / hs_norm(du, 2.0 + r))
    disp = random_certified_displacement(spec, seed + 7, 4, 0.5)
    return du, GridFunction(spec, eps * inverse_transform(disp).values)


def _remainder_cases(bundle, r):
    """(u, phi, du, dphi, cancels): `cancels` marks the smallest probe
    scale, where R1 is a difference of terms about 1/eps larger than
    itself."""
    spec, u, phi, du, dphi = bundle
    yield u, phi, du, dphi, False
    yield (u, phi) + _random_directions(spec, 101, r, 2.0**-2) + (False,)
    yield (u, phi) + _random_directions(spec, 103, r, 2.0**-8) + (True,)
    spec2 = GridSpec(2, 16)
    u2 = fourier_truncate(random_field(spec2, 3.0, 5), 4)
    phi2 = make_diffeo(random_certified_displacement(spec2, 6, 3, 0.3))
    yield (u2, phi2) + _random_directions(spec2, 7, r, 0.1) + (False,)


@pytest.mark.parametrize("r", [1, 2])
def test_taylor_remainder_matches_per_node_sums(bundle, r):
    """Precision contract of the fused pass: R1 + R2 from one certified
    path and one product per multi-index stays within 1e-13 (relative,
    max-norm) of the per-node sums, and so does each remainder alone.

    Where R1 cancels (eps = 2^-8), both forms carry the roundoff of
    evaluating d^a u at the nodes, about 1e-16 |d^a u o phi| |dphi^a|,
    and the two may order it differently (a stacked evaluation may take
    another BLAS kernel); there the bound is taken relative to that
    size instead of to |R1 + R2|.
    """
    for u, phi, du, dphi, cancels in _remainder_cases(bundle, r):
        r1, r2, size = _per_node_remainders(u, phi, du, dphi, r)
        floor = size if cancels else 0.0
        for got, want in (
            (calculus.taylor_remainder(u, phi, dphi, [(r, du)])[0], r1 + r2),
            (calculus.remainder_r1(u, phi, dphi, r), r1),
            (calculus.remainder_r2(du, phi, dphi, r), r2),
        ):
            err = np.max(np.abs(got.values - want))
            assert err <= 1e-13 * max(np.max(np.abs(want)), floor)


def test_remainder_probe_slope(bundle):
    spec, u, phi, du, dphi = bundle
    [probe] = calculus.remainder_order_probe(
        u, phi, dphi, [(1, du)], s=2.0, scales=tuple(2.0**-j for j in range(1, 6))
    )
    assert probe["monotone"]
    assert probe["slope"] >= 1.9
    assert not probe["degenerate"]


def test_remainder_probe_degenerate_direction(bundle):
    spec, u, phi, _, _ = bundle
    zero_du = Spectrum(spec, np.zeros((1, 256), dtype=np.complex128))
    zero_dphi = GridFunction(spec, np.zeros((1, 256)))
    [probe] = calculus.remainder_order_probe(u, phi, zero_dphi, [(1, zero_du)], s=2.0)
    assert probe["degenerate"]


@pytest.mark.parametrize("scales", [(0.5,), (0.5, 0.5), ()])
def test_remainder_probe_needs_two_distinct_scales(bundle, monkeypatch, scales):
    """One distinct scale leaves the log-log slope a fit through one point:
    the probe refuses it, naming `scales`, before any pullback."""
    spec, u, phi, du, dphi = bundle

    def no_work(*args, **kwargs):
        raise AssertionError("taylor_remainder ran before the scales check")

    monkeypatch.setattr(calculus, "taylor_remainder", no_work)
    with pytest.raises(ValueError, match="'scales'"):
        calculus.remainder_order_probe(u, phi, dphi, [(1, du)], s=2.0, scales=scales)


def test_remainder_probe_orders_match_single_order_probes(bundle):
    """Both orders on one certified path per scale give each single-order
    probe's record, and each norm that of `taylor_remainder` certifying its
    own path, bit for bit."""
    spec, u, phi, du, dphi = bundle
    du2 = fourier_truncate(random_field(spec, 4.0, 102), 8)
    du2 = Spectrum(spec, du2.coeffs / hs_norm(du2, 4.0))
    scales = tuple(2.0**-j for j in range(1, 5))
    orders = [(1, du), (2, du2)]
    both = calculus.remainder_order_probe(u, phi, dphi, orders, s=2.0, scales=scales)
    single = [
        calculus.remainder_order_probe(u, phi, dphi, [pair], s=2.0, scales=scales)[0]
        for pair in orders
    ]
    assert both == single
    assert [rec["order"] for rec in both] == [1, 2]
    for (r, du_dir), rec in zip(orders, both):  # and each norm its own remainder's
        for eps, norm in zip(scales, rec["norms"]):
            dphi_eps = GridFunction(spec, eps * dphi.values)
            du_eps = Spectrum(spec, eps * du_dir.coeffs)
            [rem] = calculus.taylor_remainder(u, phi, dphi_eps, [(r, du_eps)])
            assert norm == hs_norm(forward_transform(rem), 2.0)


def test_path_diffeo_endpoints(bundle):
    spec, u, phi, du, dphi = bundle
    at0, at1 = calculus.path_diffeo(phi, dphi, [0.0, 1.0])
    assert np.max(np.abs(at0.disp_values - phi.disp_values)) < 1e-14
    assert np.max(np.abs(at1.disp_values - (phi.disp_values + dphi.values))) < 1e-14


# ---------------------------------------------------------------------------
# inverse differential


def test_inv_differential_formula_consistency(bundle):
    """d inv(phi) dphi must satisfy (dphi o phi^{-1}) . dinv = -dphi_dir o
    phi^{-1}, the implicit-function identity."""
    spec, u, phi, du, dphi = bundle
    from torusdiff.diffeo import invert

    psi = invert(phi)
    dinv = calculus.inv_differential(phi, dphi, psi=psi)
    jac = forward_transform(GridFunction(spec, phi.jacobian[0, 0][None]))
    jac_at_psi = compose_function(jac, psi).values[0]
    dphi_at_psi = compose_function(forward_transform(dphi), psi).values[0]
    resid = jac_at_psi * dinv.values[0] + dphi_at_psi
    assert np.max(np.abs(resid)) < 1e-12


def test_inv_differential_fd_second_order(bundle):
    spec, u, phi, du, dphi = bundle
    from torusdiff.diffeo import invert

    psi = invert(phi)
    e1 = calculus.inv_differential_fd_error(phi, dphi, 1e-3, psi)
    e2 = calculus.inv_differential_fd_error(phi, dphi, 5e-4, psi)
    assert 3.5 <= e1 / e2 <= 4.5


def test_inv_differential_identity_base():
    spec = GridSpec(1, 64)
    ident = make_diffeo(Spectrum(spec, np.zeros((1, 64), dtype=np.complex128)))
    x = spec.axis_coordinates()
    dphi = GridFunction(spec, np.cos(TWO_PI * x)[None])
    dinv = calculus.inv_differential(ident, dphi, ident)
    # at the identity the differential is plain negation
    assert np.max(np.abs(dinv.values + dphi.values)) < 1e-12


# ---------------------------------------------------------------------------
# translation quotients and derivative loss


def test_right_translation_quotients_bounded(bundle):
    spec, u, phi, du, dphi = bundle
    f = fourier_truncate(random_field(spec, 3.0, 77), 16)
    [quots] = calculus.right_translation_quotients(f, phi, [0.05], 10, 31, 2.0)
    assert len(quots) == 10
    assert all(q > 0 for q in quots)
    assert max(quots) < 5.0


def _per_trial_quotients(f, phi0, radius, trials, seed, s):
    """The oracle: one certification, composition, transform and norm per trial."""
    spec = phi0.spec
    base = compose_function(f, phi0)
    fnorm = hs_norm(f, s + 1.0)
    out = []
    for trial in range(trials):
        w = random_field(spec, s, seed + 1000 * trial, components=spec.dim)
        step = inverse_transform(Spectrum(spec, (radius / hs_norm(w, s)) * w.coeffs))
        phi = make_diffeo(
            forward_transform(GridFunction(spec, phi0.disp_values + step.values)),
            min_det_floor=phi0.min_det_floor,
        )
        diff = forward_transform(
            GridFunction(spec, compose_function(f, phi).values - base.values)
        )
        out.append(float(hs_norm(diff, s) / (fnorm * radius)))
    return out


def test_right_translation_quotients_match_the_per_trial_loop(bundle):
    """Precision contract of the stacked trials: certification, evaluation,
    transform and per-row norms over all radii and trials at once give the
    per-radius, per-trial loop's quotients bit for bit, in 1D and for a
    2-component field on T^2."""
    spec, u, phi, du, dphi = bundle
    f = fourier_truncate(random_field(spec, 3.0, 77), 16)
    spec2 = GridSpec(2, 16)
    f2 = fourier_truncate(random_field(spec2, 3.0, 8, components=2), 4)
    phi2 = make_diffeo(random_certified_displacement(spec2, 6, 3, 0.3))
    for f, phi0, trials in ((f, phi, 12), (f2, phi2, 5)):
        got = calculus.right_translation_quotients(f, phi0, (0.05, 0.025), trials, 31, 2.0)
        assert got == [_per_trial_quotients(f, phi0, r, trials, 31, 2.0) for r in (0.05, 0.025)]


def test_loss_probe_growth(bundle):
    spec, u, phi, du, dphi = bundle
    steep = make_diffeo(
        Spectrum(
            spec,
            phi.displacement.coeffs * (0.09 / 0.05),
        )
    )
    data = calculus.loss_of_derivative_probe(steep, dphi, 2.0, octaves=4)
    assert data["octaves"] == [1, 2, 3, 4]
    assert all(g >= 1.5 for g in data["growth_factors"])
    rq = data["right_quotients"]
    assert max(rq) / min(rq) < 1.2


def test_loss_probe_matches_the_per_map_loop(bundle):
    """The left quotients from one evaluation at all EPS_LADDER maps equal a
    loop composing with each path map in turn, bit for bit."""
    spec, u, phi, du, dphi = bundle
    steep = make_diffeo(Spectrum(spec, phi.displacement.coeffs * (0.09 / 0.05)))
    data = calculus.loss_of_derivative_probe(steep, dphi, 2.0, octaves=3)
    dir_norm = hs_norm(forward_transform(dphi), 2.0)
    for j, left in zip(data["octaves"], data["left_quotients"]):
        psi = np.zeros((1,) + spec.shape, dtype=np.complex128)
        amp = np.sqrt(2.0) / (1.0 + (2.0 * np.pi * 2**j) ** 2)  # unit H^2 sine mode
        psi[0, 2**j], psi[0, -(2**j)] = amp / 2j, -amp / 2j
        psi = Spectrum(spec, psi)
        base = compose_function(psi, steep).values
        quot = 0.0
        for eps in calculus.EPS_LADDER:
            [phi_eps] = calculus.path_diffeo(steep, dphi, [eps])
            diff = forward_transform(GridFunction(spec, compose_function(psi, phi_eps).values - base))
            quot = max(quot, hs_norm(diff, 2.0) / (eps * dir_norm))
        assert left == quot


def test_loss_probe_band_guard():
    spec = GridSpec(1, 64)
    coeffs = np.zeros((1, 64), dtype=np.complex128)
    coeffs[0, 1], coeffs[0, -1] = 0.05 / 2j, -0.05 / 2j
    phi = make_diffeo(Spectrum(spec, coeffs))
    x = spec.axis_coordinates()
    dphi = GridFunction(spec, np.cos(TWO_PI * x)[None])
    with pytest.raises(ValueError):
        calculus.loss_of_derivative_probe(phi, dphi, 2.0, octaves=5)  # k=32 > N/4

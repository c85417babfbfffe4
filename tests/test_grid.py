"""Spectral core: transforms, derivatives, evaluation, refinement, fields."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdiff.grid import (
    GridFunction,
    GridSpec,
    Spectrum,
    _band_size,
    _extend_axis,
    _half_modes,
    _mirror_modes,
    _powers,
    _restrict_axis,
    _symbol,
    band_project,
    differentiate,
    differentiate_multi,
    evaluate,
    forward_transform,
    fourier_truncate,
    inverse_transform,
    random_field,
    refine,
    trig_polynomial,
)

TWO_PI = 2.0 * np.pi


def sine_field(spec, k=1, amp=1.0):
    x = spec.axis_coordinates()
    return GridFunction(spec, (amp * np.sin(TWO_PI * k * x))[None])


# ---------------------------------------------------------------------------
# grid spec validation


def test_grid_spec_shapes():
    spec = GridSpec(2, 16)
    assert spec.shape == (16, 16)
    assert spec.num_points == 256
    pts = spec.points()
    assert pts.shape == (256, 2)
    # C-order: the second coordinate varies fastest
    assert pts[1, 0] == pts[0, 0]
    assert pts[1, 1] == pytest.approx(1.0 / 16)


@pytest.mark.parametrize("dim,size", [(3, 16), (1, 15), (1, 4), (0, 16)])
def test_grid_spec_rejects(dim, size):
    with pytest.raises(ValueError):
        GridSpec(dim, size)


@pytest.mark.parametrize(
    "dim, size, bad",
    [(1, "16", "size"), (1, 16.0, "size"), (1, True, "size"), ("1", 16, "dim"), (1.0, 16, "dim"),
     (True, 16, "dim")],
)
def test_grid_spec_rejects_a_non_integer(dim, size, bad):
    with pytest.raises(ValueError, match=f"{bad} must be an integer, got"):
        GridSpec(dim, size)


def test_grid_spec_accepts_numpy_integers():
    spec = GridSpec(np.int64(2), np.int32(16))
    assert spec == GridSpec(2, 16) and spec.shape == (16, 16)


# ---------------------------------------------------------------------------
# transforms


def test_round_trip_random_field():
    spec = GridSpec(1, 64)
    f = inverse_transform(random_field(spec, 2.0, 42))
    back = inverse_transform(forward_transform(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_parseval():
    spec = GridSpec(1, 128)
    F = random_field(spec, 1.5, 3)
    f = inverse_transform(F)
    lhs = np.sum(np.abs(F.coeffs) ** 2)
    rhs = np.mean(f.values**2)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_forward_transform_exactly_hermitian():
    # raw FFT symmetry only holds to roundoff; the constructor demands more
    spec = GridSpec(1, 64)
    rng = np.random.default_rng(0)
    F = forward_transform(GridFunction(spec, rng.standard_normal(64)[None]))
    mirror = np.roll(np.flip(F.coeffs, axis=1), 1, axis=1)
    assert np.array_equal(np.conj(mirror), F.coeffs)


@pytest.mark.parametrize("dim,size,components", [(1, 16, 1), (1, 64, 3), (2, 8, 1), (2, 16, 2)])
def test_mirror_modes_is_the_roll_of_the_flip(dim, size, components):
    """The k -> -k re-indexing is a pure permutation, Nyquist slot included:
    bit-identical to rolling the flipped array by one on every axis."""
    spec = GridSpec(dim, size)
    rng = np.random.default_rng(size + components)
    shape = (components,) + spec.shape
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = coeffs
    for ax in spec.spatial_axes():
        want = np.roll(np.flip(want, axis=ax), 1, axis=ax)
    assert np.array_equal(_mirror_modes(spec, coeffs), want)


def extend_axis_by_shift(coeffs, axis, size):
    """The fftshift / delete / concatenate form _extend_axis replaced."""
    ext = np.take(coeffs, np.fft.fftshift(np.arange(size)), axis=axis)
    nyq = np.take(ext, [0], axis=axis) / 2.0
    return np.concatenate([nyq, np.delete(ext, 0, axis=axis), nyq], axis=axis)


@pytest.mark.parametrize("dim,size,components", [(1, 16, 1), (1, 64, 3), (2, 8, 1), (2, 16, 2)])
def test_extend_axis_is_the_shift_split_form(dim, size, components):
    """Re-indexing one axis to -N/2..N/2 and halving both Nyquist ends is
    bit-identical to the shift-then-split form, on each axis and chained."""
    spec = GridSpec(dim, size)
    rng = np.random.default_rng(size * components)
    shape = (components,) + spec.shape
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    fast, want = coeffs, coeffs
    for ax in spec.spatial_axes():
        assert np.array_equal(
            _extend_axis(coeffs, ax, size), extend_axis_by_shift(coeffs, ax, size)
        )
        fast = _extend_axis(fast, ax, size)
        want = extend_axis_by_shift(want, ax, size)
    assert np.array_equal(fast, want)


def test_spectrum_rejects_non_hermitian():
    spec = GridSpec(1, 16)
    coeffs = np.zeros((1, 16), dtype=np.complex128)
    coeffs[0, 1] = 1.0  # missing the conjugate partner at -1
    with pytest.raises(ValueError, match="Hermitian"):
        Spectrum(spec, coeffs)


def test_values_immutable():
    spec = GridSpec(1, 16)
    f = sine_field(spec)
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


# ---------------------------------------------------------------------------
# differentiation


def test_derivative_of_sine():
    spec = GridSpec(1, 64)
    F = forward_transform(sine_field(spec))
    dF = inverse_transform(differentiate(F, 0))
    expected = TWO_PI * np.cos(TWO_PI * spec.axis_coordinates())
    assert np.max(np.abs(dF.values[0] - expected)) < 1e-10


def test_derivative_of_constant_is_zero():
    spec = GridSpec(1, 32)
    F = forward_transform(GridFunction(spec, np.full((1, 32), 2.5)))
    assert np.max(np.abs(differentiate(F, 0).coeffs)) == 0.0


def test_mixed_partials_commute():
    spec = GridSpec(2, 32)
    F = random_field(spec, 3.0, 11)
    d01 = differentiate(differentiate(F, 0), 1)
    d10 = differentiate(differentiate(F, 1), 0)
    assert np.max(np.abs(d01.coeffs - d10.coeffs)) < 1e-12


def test_differentiate_multi_matches_repeated():
    spec = GridSpec(2, 16)
    F = random_field(spec, 3.0, 5)
    multi = differentiate_multi(F, (2, 1))
    rep = differentiate(differentiate(differentiate(F, 0), 0), 1)
    assert np.max(np.abs(multi.coeffs - rep.coeffs)) < 1e-12


def test_nyquist_mode_killed_by_derivative():
    """The +-N/2 slot carries cos(pi N x); its spectral derivative is set
    to zero rather than an arbitrary sign choice."""
    spec = GridSpec(1, 16)
    x = spec.axis_coordinates()
    F = forward_transform(GridFunction(spec, np.cos(np.pi * 16 * x)[None]))
    assert abs(F.coeffs[0, 8]) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(differentiate(F, 0).coeffs)) < 1e-12


def wavevector_sq_by_dim(spec):
    """The per-dimension |k|^2 that GridSpec.wavevector_sq replaced."""
    k = spec.wavenumbers()
    if spec.dim == 1:
        return k**2
    return k[:, None] ** 2 + k[None, :] ** 2


def symbol_by_dim(spec, axis):
    """The per-dimension derivative symbol that _symbol replaced."""
    k = spec.wavenumbers()
    k[spec.size // 2] = 0.0
    sym = TWO_PI * 1j * k
    if spec.dim == 1:
        return sym
    return sym[:, None] if axis == 0 else sym[None, :]


def points_by_dim(spec):
    """The per-dimension grid points that GridSpec.points replaced for dim 2."""
    x = spec.axis_coordinates()
    if spec.dim == 1:
        return x[:, None]
    xx, yy = np.meshgrid(x, x, indexing="ij")
    return np.stack([xx.ravel(), yy.ravel()], axis=-1)


@pytest.mark.parametrize("size", [8, 64, 256])
@pytest.mark.parametrize("dim", [1, 2])
def test_grid_and_spectral_multipliers_match_the_per_dimension_forms(dim, size):
    """points (past its 1D branch), wavevector_sq and _symbol are
    dimension-generic, and equal the per-dimension closed forms in shape,
    dtype and bytes on every axis."""
    spec = GridSpec(dim, size)
    pairs = [(spec.points(), points_by_dim(spec))]
    pairs += [(spec.wavevector_sq(), wavevector_sq_by_dim(spec))]
    pairs += [(_symbol(spec, axis), symbol_by_dim(spec, axis)) for axis in range(dim)]
    for got, want in pairs:
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()
    for axis in range(dim):  # cached per (spec, axis), so shared and read-only
        assert not _symbol(spec, axis).flags.writeable
        assert _symbol(spec, axis) is _symbol(GridSpec(dim, size), axis)


@pytest.mark.parametrize("size", [8, 64, 256])
def test_trig_polynomial_is_the_transform_of_its_samples(size):
    """The exact spectrum equals forward_transform of its samples to 1e-15 of
    their l1 norm (a negative k, a k = 0 cosine and a shared k included), and
    evaluates at the band of its largest |k|."""
    spec = GridSpec(1, size)
    x = spec.axis_coordinates()
    sines, cosines = {1: 1.0, -3: -0.7}, {0: 0.4, 2: 0.3, 3: 0.25}
    vals = sum(a * np.sin(TWO_PI * k * x) for k, a in sines.items())
    vals = vals + sum(b * np.cos(TWO_PI * k * x) for k, b in cosines.items())
    got = trig_polynomial(spec, sines=sines, cosines=cosines).coeffs
    want = forward_transform(GridFunction(spec, vals[None])).coeffs
    assert np.max(np.abs(got - want)) <= 1e-15 * np.sum(np.abs(want))
    assert _band_size(got, size) == 8


@pytest.mark.parametrize("amp", [0.05, -0.3, np.float64(0.09), np.sqrt(2.0) / 17.0])
def test_trig_polynomial_sine_is_the_slot_form_bit_for_bit(amp):
    """One sine is amp / 2i at k and -amp / 2i at -k, in bytes: the real
    parts stay +0.0."""
    spec = GridSpec(1, 64)
    want = np.zeros((1, 64), dtype=np.complex128)
    want[0, 4] = amp / (2.0 * 1j)
    want[0, -4] = -amp / (2.0 * 1j)
    assert trig_polynomial(spec, sines={4: amp}).coeffs.tobytes() == want.tobytes()


@pytest.mark.parametrize("terms, key", [
    ({"sines": {4: 1.0}}, "sines key 4"), ({"cosines": {-4: 1.0}}, "cosines key -4"),
    ({"sines": {9: 1.0}}, "sines key 9"), ({"cosines": {1.0: 1.0}}, "cosines key 1.0"),
    ({"sines": {True: 1.0}}, "sines key True"),
])
def test_trig_polynomial_rejects_a_key_outside_the_band(terms, key):
    """|k| >= N/2 (the Nyquist slot and beyond) and non-integer keys raise,
    naming the key; so does a T^2 grid."""
    with pytest.raises(ValueError, match=key):
        trig_polynomial(GridSpec(1, 8), **terms)
    with pytest.raises(ValueError, match="dim 2"):
        trig_polynomial(GridSpec(2, 8), sines={1: 1.0})


# ---------------------------------------------------------------------------
# evaluation and refinement


def test_powers_match_the_exponentials_they_stand_for():
    """_powers(exp(2 pi i x), n)[:, j] is exp(2 pi i j x) to within 5e-16 * j
    for every j < 64 and x in [-1/2, 1/2], the reduced range _phases feeds it.
    The j-th power inherits j times the rounding of exp(2 pi i x) itself (up to
    ~3.5e-16 from rounding 2 pi x) plus one rounding per running multiply, so
    the error grows linearly in j: 1e-14 holds up to j = 20.  The points are
    dyadic, so that j x and its reduction mod 1 are exact in the reference."""
    rng = np.random.default_rng(3)
    x = np.concatenate([np.arange(-2**11, 2**11 + 1) / 2**12,
                        rng.integers(-2**39, 2**39, 4096) / 2**40])
    j = np.arange(64)
    jx = j[None, :] * x[:, None]
    want = np.exp(TWO_PI * 1j * (jx - np.round(jx)))
    got = _powers(np.exp(TWO_PI * 1j * x), 64)
    assert got.shape == (len(x), 64)
    assert np.all(np.abs(got - want) <= 5e-16 * j)
    assert np.max(np.abs(got - want)[:, :21]) <= 1e-14


def test_evaluate_reproduces_grid_values():
    for spec in (GridSpec(1, 32), GridSpec(2, 16)):
        F = random_field(spec, 2.0, 9, components=spec.dim)
        vals = evaluate(F, spec.points())
        grid_vals = inverse_transform(F).values.reshape(spec.dim, -1)
        assert np.max(np.abs(vals - grid_vals)) < 1e-12


def test_evaluate_phase_shift():
    spec = GridSpec(1, 64)
    F = forward_transform(sine_field(spec))
    pts = (spec.axis_coordinates() + 0.25)[:, None]
    shifted = evaluate(F, pts)[0]
    assert np.max(np.abs(shifted - np.cos(TWO_PI * spec.axis_coordinates()))) < 1e-12


def test_evaluate_is_periodic():
    spec = GridSpec(1, 32)
    F = random_field(spec, 2.0, 21)
    pts = np.array([[0.3], [1.3], [-0.7]])
    vals = evaluate(F, pts)[0]
    assert vals[0] == pytest.approx(vals[1], abs=1e-12)
    assert vals[0] == pytest.approx(vals[2], abs=1e-12)


def test_evaluate_nyquist_as_cosine():
    spec = GridSpec(1, 16)
    x = spec.axis_coordinates()
    F = forward_transform(GridFunction(spec, np.cos(np.pi * 16 * x)[None]))
    off = np.array([[0.125 / 16]])  # between grid points
    val = evaluate(F, off)[0, 0]
    assert val == pytest.approx(np.cos(np.pi * 16 * off[0, 0]), abs=1e-12)


def dense_evaluate(F, points):
    """The dense sum evaluate must match: one exponential per point and mode,
    Nyquist slots split evenly between k = -N/2 and k = N/2."""
    spec = F.spec
    half = spec.size // 2
    k = np.arange(-half, half + 1)
    split = np.where(np.abs(k) == half, 0.5, 1.0)
    slots = k % spec.size
    pts = np.asarray(points, dtype=np.float64).reshape(-1, spec.dim)
    ph = [split * np.exp(TWO_PI * 1j * pts[:, a, None] * k) for a in range(spec.dim)]
    if spec.dim == 1:
        return (F.coeffs[:, slots] @ ph[0].T).real
    ext = F.coeffs[:, slots][:, :, slots]
    return np.sum((ph[0] @ ext) * ph[1], axis=2).real


CONTRACT_CASES = [
    (num_points, dim, size, components)
    for dim, size, components, counts in [
        (1, 256, 1, (0, 1, 513, 4097)),
        (2, 64, 2, (0, 1, 513, 4097)),
        (1, 1024, 3, (1, 513, 4097)),  # the longest recurrences: b = A = 23
        (2, 128, 6, (1, 600, 4097)),  # a stacked displacement-plus-gradient width
        (2, 64, 4, (4097,)),  # inverse_derivative_residual's four Jacobian entries
    ]
    for num_points in counts
]


@pytest.mark.parametrize("num_points,dim,size,components", CONTRACT_CASES)
def test_evaluate_precision_contract(num_points, dim, size, components):
    spec = GridSpec(dim, size)
    rng = np.random.default_rng(size + num_points)
    # white noise: every mode, Nyquist included, carries O(1) weight
    F = forward_transform(
        GridFunction(spec, rng.standard_normal((components,) + spec.shape))
    )
    assert np.all(F.coeffs[(slice(None),) + (size // 2,) * dim] != 0)
    pts = rng.uniform(-1.0, 2.0, (num_points, dim))
    fast = evaluate(F, pts)
    assert fast.shape == (components, num_points)
    bound = 1e-13 * np.sum(np.abs(F.coeffs), axis=tuple(range(1, dim + 1)))
    assert np.all(np.abs(fast - dense_evaluate(F, pts)) <= bound[:, None])
    cut = num_points // 3
    parts = np.concatenate([evaluate(F, pts[:cut]), evaluate(F, pts[cut:])], axis=1)
    assert np.all(np.abs(parts - fast) <= bound[:, None])


# per-axis radii r_a: keep the modes with |k_a| <= r_a; None is the zero spectrum
BAND_CASES = [
    (dim, size, None if r is None else (r,) * dim)
    for dim, size in [(1, 256), (2, 64)]
    for r in [None, 0, 1, 4, size // 2 - 2, size // 2 - 1]
] + [
    (2, 64, (4, 0)),  # a function of x_1 alone
    (2, 64, (0, 3)),  # a function of x_2 alone
    (2, 64, (31, 2)),  # full band along x_1, narrow along x_2: no trimming
]


@pytest.mark.parametrize("dim,size,radii", BAND_CASES)
def test_evaluate_precision_contract_on_a_band(dim, size, radii):
    """Band-limited input runs at its band M = 2 max|k| + 2 (N when the band
    reaches N/2 - 1) and keeps the dense-sum contract."""
    spec = GridSpec(dim, size)
    rng = np.random.default_rng(size + 7)
    F = forward_transform(GridFunction(spec, rng.standard_normal((2,) + spec.shape)))
    k = np.abs(spec.wavenumbers())
    if radii is None:
        mask, band = np.zeros(spec.shape), 2
    else:
        axes = np.meshgrid(*[k] * dim, indexing="ij")
        mask = np.prod([kk <= r for kk, r in zip(axes, radii)], axis=0)
        band = min(2 * max(radii) + 2, size)
    F = Spectrum(spec, F.coeffs * mask)
    assert _band_size(F.coeffs, size) == band
    pts = rng.uniform(-1.0, 2.0, (1500, dim))
    fast = evaluate(F, pts)
    bound = 1e-13 * np.sum(np.abs(F.coeffs), axis=tuple(range(1, dim + 1)))
    assert np.all(np.abs(fast - dense_evaluate(F, pts)) <= bound[:, None])


def test_a_band_evaluates_bit_for_bit_like_its_own_grid():
    """A band-4 spectrum at N = 64 runs the N = 10 code on the same numbers."""
    F = fourier_truncate(random_field(GridSpec(2, 64), 2.0, 5, components=2), 4)
    slots = np.fft.fftfreq(10, d=0.1).astype(int) % 64  # N = 10 slots in the N = 64 grid
    small = Spectrum(GridSpec(2, 10), F.coeffs[:, slots][:, :, slots])
    pts = np.random.default_rng(5).uniform(-1.0, 2.0, (1300, 2))
    assert np.array_equal(evaluate(F, pts), evaluate(small, pts))


def test_refine_matches_evaluation():
    for spec in (GridSpec(1, 16), GridSpec(2, 8)):
        F = random_field(spec, 2.0, 17)
        fine = refine(F, 4)
        expected = evaluate(F, fine.spec.points())[0]
        assert np.max(np.abs(fine.values.reshape(-1) - expected)) < 1e-12


def test_refine_then_project_is_identity():
    spec = GridSpec(2, 16)
    F = random_field(spec, 2.0, 23)
    back = band_project(refine(F, 2), spec)
    assert np.max(np.abs(back.coeffs - F.coeffs)) < 1e-13


def complex_inverse_transform(F):
    """The complex-ifftn form inverse_transform replaced: keep the real part."""
    spec = F.spec
    return (np.fft.ifftn(F.coeffs, axes=spec.spatial_axes()) * spec.num_points).real


def complex_refine(F, factor):
    """The complex-ifftn form refine replaced: scatter the whole -N/2..N/2
    block (Nyquist split evenly) into the fine FFT layout."""
    if factor == 1:
        return complex_inverse_transform(F)
    spec = F.spec
    fine = spec.refined(factor)
    ext = F.coeffs
    for ax in spec.spatial_axes():
        ext = _extend_axis(ext, ax, spec.size)
    half = spec.size // 2
    dest = np.arange(-half, half + 1) % fine.size
    out = np.zeros((F.num_components,) + fine.shape, dtype=np.complex128)
    out[np.ix_(np.arange(F.num_components), *[dest] * spec.dim)] = ext
    return (np.fft.ifftn(out, axes=fine.spatial_axes()) * fine.num_points).real


REAL_FFT_CASES = [
    (dim, size, components)
    for dim, sizes in [(1, (8, 16, 32, 64, 128, 256)), (2, (8, 16, 32, 64))]
    for size in sizes
    for components in (1, 2, 3, 4)
]


def white_noise_spectrum(spec, components, seed):
    """Exactly Hermitian spectrum with O(1) weight on every mode, Nyquist
    slots on every axis included."""
    rng = np.random.default_rng(seed)
    F = forward_transform(
        GridFunction(spec, rng.standard_normal((components,) + spec.shape))
    )
    half = spec.size // 2
    for ax in spec.spatial_axes():
        assert np.all(np.take(F.coeffs, half, axis=ax) != 0)
    return F


@pytest.mark.parametrize("dim,size,components", REAL_FFT_CASES)
def test_real_inverse_ffts_precision_contract(dim, size, components):
    """irfftn on the k_last >= 0 half matches the real part of the complex
    inverse FFT to 1e-14 * sum_k |fhat_k| per component."""
    spec = GridSpec(dim, size)
    F = white_noise_spectrum(spec, components, 1000 * dim + size + components)
    bound = 1e-14 * np.sum(np.abs(F.coeffs), axis=spec.spatial_axes())
    bound = bound.reshape((components,) + (1,) * dim)
    for factor in (1, 2, 4):
        fast = inverse_transform(F) if factor == 1 else refine(F, factor)
        assert fast.spec == spec.refined(factor)
        assert np.all(np.abs(fast.values - complex_refine(F, factor)) <= bound)


@pytest.mark.parametrize("dim,size", [(1, 64), (1, 256), (2, 16), (2, 64)])
def test_real_inverse_ffts_on_a_user_spectrum_with_hermitian_defect(dim, size):
    """A user-built Spectrum may carry a Hermitian defect
    D_k = fhat_k - conj(fhat_{-k}) up to 1e-12 * max(max|fhat|, 1).  The
    complex form keeps the real part (the Hermitian part of fhat); irfftn
    reads only the k_last >= 0 half, which moves each value by at most
    sum_k |D_k| / 2 on top of the 1e-14 * sum_k |fhat_k| roundoff."""
    spec = GridSpec(dim, size)
    H = white_noise_spectrum(spec, 2, 7 * size + dim)
    rng = np.random.default_rng(size)
    noise = rng.standard_normal(H.coeffs.shape) + 1j * rng.standard_normal(H.coeffs.shape)
    defect_of = lambda c: c - np.conj(_mirror_modes(spec, c))
    limit = 1e-12 * max(np.max(np.abs(H.coeffs)), 1.0)
    c = H.coeffs + 0.45 * limit * noise / np.max(np.abs(defect_of(noise)))
    worst = np.max(np.abs(defect_of(c)))
    assert 0.4 * limit < worst <= limit  # just inside the constructor's tolerance
    F = Spectrum(spec, c)
    axes = spec.spatial_axes()
    bound = 0.5 * np.sum(np.abs(defect_of(c)), axis=axes)
    bound = (bound + 1e-14 * np.sum(np.abs(c), axis=axes)).reshape((2,) + (1,) * dim)
    for factor in (1, 2, 4):
        fast = inverse_transform(F) if factor == 1 else refine(F, factor)
        assert np.all(np.abs(fast.values - complex_refine(F, factor)) <= bound)


def refine_by_full_extension(F, factor):
    """The refine form replaced: extend every axis to -N/2..N/2, then keep
    the k_last >= 0 half of the block for irfftn."""
    spec = F.spec
    fine = spec.refined(factor)
    ext = F.coeffs
    for ax in spec.spatial_axes():
        ext = _extend_axis(ext, ax, spec.size)
    half = spec.size // 2
    dest = np.arange(-half, half + 1) % fine.size
    out = np.zeros(ext.shape[:1] + fine.shape[:-1] + (fine.size // 2 + 1,), complex)
    idx = [dest] * (spec.dim - 1) + [dest[half:]]
    out[np.ix_(range(F.num_components), *idx)] = ext[..., half:]
    return np.fft.irfftn(out, s=fine.shape, axes=fine.spatial_axes()) * fine.num_points


@pytest.mark.parametrize(
    "dim,size,components",
    [(1, 8, 1), (1, 64, 3), (1, 256, 2), (2, 8, 1), (2, 16, 2), (2, 64, 6)],
)
def test_refine_takes_only_the_k_last_half(dim, size, components):
    """Taking k_last = 0..N/2 with the Nyquist slot halved gives the same
    bits as extending the whole last axis and dropping its k < 0 half."""
    spec = GridSpec(dim, size)
    F = white_noise_spectrum(spec, components, 31 * size + dim)
    for factor in (2, 3, 4):
        assert np.array_equal(refine(F, factor).values, refine_by_full_extension(F, factor))


def irfftn_refine(F, factor):
    """The irfftn form refine replaced: scatter the k_last = 0..N/2 half into
    the whole zero-padded fine half-spectrum and run irfftn over every axis,
    the first-axis inverse FFT included on the all-zero columns."""
    spec = F.spec
    fine = spec.refined(factor)
    half = spec.size // 2
    ext = F.coeffs[..., : half + 1].copy()
    ext[..., half] *= 0.5
    for ax in spec.spatial_axes()[:-1]:
        ext = _extend_axis(ext, ax, spec.size)
    dest = np.arange(-half, half + 1) % fine.size
    out = np.zeros(ext.shape[:1] + fine.shape[:-1] + (fine.size // 2 + 1,), complex)
    out[np.ix_(range(F.num_components), *[dest] * (spec.dim - 1), dest[half:])] = ext
    return np.fft.irfftn(out, s=fine.shape, axes=fine.spatial_axes()) * fine.num_points


@pytest.mark.parametrize("components", [1, 4])
@pytest.mark.parametrize("factor", [2, 4])
@pytest.mark.parametrize("dim,size", [(1, 64), (2, 32)])
def test_refine_matches_irfftn_of_the_zero_padded_half_bit_for_bit(dim, size, factor, components):
    """Running the 2D first-axis inverse FFT over the nonzero k_2 = 0..N/2
    columns alone and letting irfft zero-pad the last axis changes no bit,
    with Nyquist content on every axis (white_noise_spectrum checks it)."""
    spec = GridSpec(dim, size)
    F = white_noise_spectrum(spec, components, 97 * size + 10 * factor + components)
    fast = refine(F, factor)
    assert fast.spec == spec.refined(factor)
    assert np.array_equal(fast.values, irfftn_refine(F, factor))


def restrict_axis_by_sort(coeffs, axis, coarse):
    """The sort-and-concatenate form _restrict_axis replaced."""
    fine = coeffs.shape[axis]
    half = coarse // 2
    k = np.fft.fftfreq(fine, d=1.0 / fine).astype(int)
    keep = np.where((k >= -half + 1) & (k <= half - 1))[0]
    low = np.take(coeffs, keep, axis=axis)
    low = np.take(low, np.argsort(k[keep] % coarse), axis=axis)
    plus = np.take(coeffs, np.where(k == half)[0], axis=axis)
    minus = np.take(coeffs, np.where(k == -half)[0], axis=axis)
    pre = [np.s_[:]] * axis
    head, tail = low[tuple(pre + [np.s_[:half]])], low[tuple(pre + [np.s_[half:]])]
    return np.concatenate([head, plus + minus, tail], axis=axis)


@pytest.mark.parametrize("dim,size,factor", [(1, 16, 2), (1, 64, 3), (2, 8, 4), (2, 16, 2)])
def test_band_project_matches_sort_form(dim, size, factor):
    """Folding a fine axis onto the coarse band by one take is bit-identical
    to the sort-and-concatenate form; at equal sizes it is the identity."""
    fine = GridSpec(dim, size * factor)
    rng = np.random.default_rng(size * factor)
    shape = (2,) + fine.shape
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for ax in fine.spatial_axes():
        assert np.array_equal(
            _restrict_axis(coeffs, ax, size), restrict_axis_by_sort(coeffs, ax, size)
        )
    f = GridFunction(fine, rng.standard_normal(shape))
    assert np.array_equal(band_project(f, fine).coeffs, forward_transform(f).coeffs)


def test_fourier_truncate():
    spec = GridSpec(1, 64)
    F = random_field(spec, 1.0, 2)
    cut = fourier_truncate(F, 8)
    k = np.fft.fftfreq(64, d=1.0 / 64)
    assert np.all(cut.coeffs[0, np.abs(k) > 8] == 0)
    assert np.array_equal(cut.coeffs[0, np.abs(k) < 8], F.coeffs[0, np.abs(k) < 8])
    with pytest.raises(ValueError):
        fourier_truncate(F, 64)
    with pytest.raises(ValueError):
        fourier_truncate(F, 0)


# ---------------------------------------------------------------------------
# random fields


def test_random_field_deterministic():
    spec = GridSpec(1, 64)
    a = random_field(spec, 2.0, 7)
    b = random_field(spec, 2.0, 7)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = random_field(spec, 2.0, 8)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_random_field_prefix_stable_across_sizes():
    """Low modes of a seeded field must not change when the grid grows;
    this keeps envelope statistics comparable across resolutions."""
    coarse = random_field(GridSpec(1, 64), 2.0, 42)
    fine = random_field(GridSpec(1, 256), 2.0, 42)
    assert np.array_equal(coarse.coeffs[0, :32], fine.coeffs[0, :32])
    assert np.array_equal(coarse.coeffs[0, -31:], fine.coeffs[0, -31:])

    c2 = random_field(GridSpec(2, 16), 2.0, 7)
    f2 = random_field(GridSpec(2, 32), 2.0, 7)
    for k1 in range(-7, 8):
        for k2 in range(-7, 8):
            assert c2.coeffs[0, k1, k2] == f2.coeffs[0, k1, k2]


def half_modes_by_ring_loop(dim, size):
    """The ring-by-ring enumeration _half_modes replaced, as tuples."""
    if dim == 1:
        return [(k,) for k in range(1, size // 2)]
    modes = []
    for ring in range(1, size // 2):
        ring_modes = []
        for k1 in range(-ring, ring + 1):
            for k2 in range(-ring, ring + 1):
                if max(abs(k1), abs(k2)) != ring:
                    continue
                if k1 > 0 or (k1 == 0 and k2 > 0):
                    ring_modes.append((k1, k2))
        modes.extend(sorted(ring_modes))
    return modes


def random_field_by_mode_loop(spec, s, seed, components):
    """The per-mode scatter loop random_field replaced, default decay."""
    decay = 0.6 if spec.dim == 1 else 1.1
    rng = np.random.default_rng(seed)
    modes = half_modes_by_ring_loop(spec.dim, spec.size)
    ksq = np.array([sum(c * c for c in m) for m in modes], dtype=np.float64)
    sigma = (1.0 + ksq) ** (-(s + decay) / 2.0)
    coeffs = np.zeros((components,) + spec.shape, dtype=np.complex128)
    for comp in range(components):
        mean = rng.standard_normal()
        draws = rng.standard_normal(2 * len(modes))
        zeta = (draws[0::2] + 1j * draws[1::2]) / np.sqrt(2.0)
        coeffs[comp][(0,) * spec.dim] = mean
        for m, v in zip(modes, sigma * zeta):
            coeffs[comp][m] = v
            coeffs[comp][tuple(-c for c in m)] = np.conj(v)
    return coeffs


@pytest.mark.parametrize("dim,size", [(1, 64), (1, 256), (2, 16), (2, 64)])
@pytest.mark.parametrize("components", [1, 2])
def test_random_field_matches_mode_loop(dim, size, components):
    """The vectorized mode list and scatter keep the draw order:
    bit-identical fields."""
    spec = GridSpec(dim, size)
    want_modes = half_modes_by_ring_loop(dim, size)
    assert [tuple(m) for m in _half_modes(dim, size).tolist()] == want_modes
    for seed in (0, 7, 123):
        want = random_field_by_mode_loop(spec, 1.5, seed, components)
        got = random_field(spec, 1.5, seed, components=components).coeffs
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dim,size", [(1, 64), (1, 256), (2, 16), (2, 64)])
@pytest.mark.parametrize("components", [1, 2])
@pytest.mark.parametrize("seeds", [[0], [7, 3, 7], [123, 2**40, 1, 100009]])
def test_random_field_seed_sequence_stacks_single_seed_calls(dim, size, components, seeds):
    """A seed sequence gives one block of rows per seed, in (seed, component)
    order, each bit for bit the single-seed field and the mode-loop oracle."""
    spec = GridSpec(dim, size)
    got = random_field(spec, 1.5, seeds, components=components).coeffs
    assert got.shape == (len(seeds) * components,) + spec.shape
    for b, seed in enumerate(seeds):
        block = got[b * components : (b + 1) * components]
        assert block.tobytes() == random_field(spec, 1.5, seed, components).coeffs.tobytes()
        assert np.array_equal(block, random_field_by_mode_loop(spec, 1.5, seed, components))


@pytest.mark.parametrize("seed", [True, -1, 1.5, [], [3, -2]])
def test_random_field_rejects_a_bad_seed_before_any_draw(monkeypatch, seed):
    """A bool, a negative or non-integer seed and an empty sequence fail
    loudly, naming `seed`, where numpy would run, reseed or fail unnamed."""

    def drawn(*args):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(np.random, "default_rng", drawn)
    with pytest.raises(ValueError, match="^seed must be"):
        random_field(GridSpec(1, 16), 1.0, seed)


def test_random_field_components():
    spec = GridSpec(2, 16)
    F = random_field(spec, 2.0, 1, components=2)
    assert F.coeffs.shape == (2, 16, 16)
    vals = inverse_transform(F).values
    assert np.max(np.abs(np.imag(np.fft.ifftn(F.coeffs, axes=(1, 2))))) < 1e-12
    assert vals.shape == (2, 16, 16)


# ---------------------------------------------------------------------------
# property-based checks


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_transform_round_trip_property(seed):
    spec = GridSpec(1, 32)
    rng = np.random.default_rng(seed)
    f = GridFunction(spec, rng.standard_normal((1, 32)))
    back = inverse_transform(forward_transform(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([(1, 8), (1, 32), (1, 128), (2, 8), (2, 16), (2, 32)]),
    st.integers(1, 3),
    st.integers(0, 10_000),
)
def test_evaluate_at_grid_points_is_the_inverse_transform(case, components, seed):
    """At the grid points, evaluate reproduces inverse_transform to within
    1e-13 * sum_k |fhat_k| per component, Nyquist content included."""
    spec = GridSpec(*case)
    F = white_noise_spectrum(spec, components, seed)
    got = evaluate(F, spec.points()).reshape((components,) + spec.shape)
    bound = 1e-13 * np.sum(np.abs(F.coeffs), axis=spec.spatial_axes())
    bound = bound.reshape((components,) + (1,) * spec.dim)
    assert np.all(np.abs(got - inverse_transform(F).values) <= bound)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(-2.0, 2.0))
def test_differentiate_is_linear(seed, c):
    spec = GridSpec(1, 32)
    F = random_field(spec, 2.0, seed)
    G = random_field(spec, 2.0, seed + 1)
    lhs = differentiate(Spectrum(spec, F.coeffs + c * G.coeffs), 0).coeffs
    rhs = differentiate(F, 0).coeffs + c * differentiate(G, 0).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-10

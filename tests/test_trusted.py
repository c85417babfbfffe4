"""Precision contract of the internal producers that skip the public checks.

Each producer wraps the array it computed without a copy, a finiteness scan
or a Hermitian re-check.  On random 1D and 2D inputs with Nyquist content
its output must have the exact layout and dtype, be finite and read-only,
rebuild bit for bit through the public constructor, and (for spectra) be
exactly Hermitian when its input is.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdiff import calculus, diffeo
from torusdiff.calculus import taylor_remainder
from torusdiff.diffeo import _displacement_gradient, make_diffeo
from torusdiff.grid import (
    GridFunction,
    GridSpec,
    Spectrum,
    _mirror_modes,
    band_project,
    differentiate,
    differentiate_multi,
    forward_transform,
    fourier_truncate,
    inverse_transform,
    random_field,
    refine,
)
from torusdiff.suites import random_certified_displacement


def _data(out):
    return out.coeffs if isinstance(out, Spectrum) else out.values


def _assert_trusted(out, cls, spec, components):
    """The contract above for one output; spectra must come from exactly
    Hermitian input."""
    assert type(out) is cls and out.spec == spec
    data = _data(out)
    assert data.shape == (components,) + spec.shape
    assert data.dtype == (np.complex128 if cls is Spectrum else np.float64)
    assert np.all(np.isfinite(data)) and not data.flags.writeable
    rebuilt = _data(cls(spec, data))
    assert rebuilt.tobytes() == data.tobytes()
    if cls is Spectrum:
        defect = np.max(np.abs(np.conj(_mirror_modes(spec, data)) - data))
        assert defect == 0.0


grids = st.one_of(
    st.builds(GridSpec, st.just(1), st.sampled_from([8, 16, 64, 256])),
    st.builds(GridSpec, st.just(2), st.sampled_from([8, 16, 32])),
)


def _real_field(spec, components, seed):
    """Random grid values: their transform has Nyquist content in every slot."""
    rng = np.random.default_rng(seed)
    return GridFunction(spec, rng.standard_normal((components,) + spec.shape))


@settings(max_examples=40, deadline=None)
@given(grids, st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_spectral_producers(spec, components, seed):
    f = _real_field(spec, components, seed)
    F = forward_transform(f)
    _assert_trusted(F, Spectrum, spec, components)
    assert np.any(F.coeffs[(slice(None),) + (spec.size // 2,) * spec.dim] != 0.0)
    for axis in range(spec.dim):
        _assert_trusted(differentiate(F, axis), Spectrum, spec, components)
    for alpha in [(0,) * spec.dim, (3,) + (0,) * (spec.dim - 1), (1, 2)[: spec.dim]]:
        _assert_trusted(differentiate_multi(F, alpha), Spectrum, spec, components)
    for cutoff in (1, spec.size // 4, spec.size // 2):
        _assert_trusted(fourier_truncate(F, cutoff), Spectrum, spec, components)
    for coarse in {spec, GridSpec(spec.dim, max(8, spec.size // 2))}:
        _assert_trusted(band_project(f, coarse), Spectrum, coarse, components)
    drawn = random_field(spec, 2.0, seed, components=components)
    _assert_trusted(drawn, Spectrum, spec, components)
    if components == spec.dim:
        grad = _displacement_gradient(F)
        _assert_trusted(grad, Spectrum, spec, spec.dim**2)


@settings(max_examples=40, deadline=None)
@given(grids, st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_grid_producers(spec, components, seed):
    F = forward_transform(_real_field(spec, components, seed))
    _assert_trusted(inverse_transform(F), GridFunction, spec, components)
    for factor in (1, 2, 4):
        fine = spec.refined(factor)
        _assert_trusted(refine(F, factor), GridFunction, fine, components)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([(1, 32), (2, 16)]), st.integers(1, 2), st.integers(0, 2**20))
def test_taylor_remainder_stacks(dim_size, r, seed):
    spec = GridSpec(*dim_size)
    phi = make_diffeo(random_certified_displacement(spec, seed, 4, 0.3))
    dphi = inverse_transform(random_certified_displacement(spec, seed + 1, 4, 0.05))
    u = forward_transform(_real_field(spec, 2, seed + 2))
    du = forward_transform(_real_field(spec, 2, seed + 3))
    both, stacks, evals = [], [], []  # the stacked (u, du), its stacked d^a, |a| = r
    with pytest.MonkeyPatch.context() as mp:
        diff, comp, ev = calculus.differentiate_multi, calculus.compose_stack, diffeo.evaluate
        mp.setattr(calculus, "differentiate_multi", lambda F, a: both.append(F) or diff(F, a))
        mp.setattr(calculus, "compose_stack", lambda F, ms: stacks.append((F, ms)) or comp(F, ms))
        mp.setattr(diffeo, "evaluate", lambda F, pts: evals.append((F, pts)) or ev(F, pts))
        taylor_remainder(u, phi, du, dphi, r)
    alphas = r + 1 if spec.dim == 2 else 1
    assert len(both) == alphas and all(F is both[0] for F in both)
    _assert_trusted(both[0], Spectrum, spec, 4)
    # one stack, composed once with phi and every node's map, in one evaluate
    # at their point images: phi's first, then node after node (17 * P points)
    assert len(stacks) == 1 and len(evals) == 1 and evals[0][0] is stacks[0][0]
    _assert_trusted(stacks[0][0], Spectrum, spec, alphas * 4)
    maps = stacks[0][1]
    path = calculus.path_diffeo(phi, dphi, calculus._gauss_legendre_01(calculus.GL_NODES)[0])
    assert len(maps) == calculus.GL_NODES + 1 and maps[0] is phi
    assert all(m.disp_values.tobytes() == p.disp_values.tobytes() for m, p in zip(maps[1:], path))
    images = np.concatenate([spec.points() + m.disp_values.reshape(spec.dim, -1).T
                             for m in [phi, *path]])
    assert evals[0][1].shape == ((calculus.GL_NODES + 1) * spec.num_points, spec.dim)
    assert evals[0][1].tobytes() == images.tobytes()

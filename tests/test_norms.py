"""Sobolev, derivative-sum, sup, and Slobodeckij norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdiff.grid import (
    GridFunction,
    GridSpec,
    Spectrum,
    differentiate_multi,
    forward_transform,
    inverse_transform,
    random_field,
)
from torusdiff.norms import (
    cr_norm,
    cr_norm_rows,
    embedding_constant,
    hs_norm,
    hs_norm_derivative,
    hs_norm_derivative_rows,
    multi_indices,
    norm_equivalence_constant,
    slobodeckij_seminorm,
    sobolev_weight,
)

TWO_PI = 2.0 * np.pi


def single_mode(spec, k, amp=1.0):
    x = spec.axis_coordinates()
    return forward_transform(GridFunction(spec, (amp * np.sin(TWO_PI * k * x))[None]))


# ---------------------------------------------------------------------------
# index bookkeeping


def test_multi_indices_counts():
    assert multi_indices(1, 2) == [(0,), (1,), (2,)]
    idx2 = multi_indices(2, 2)
    assert len(idx2) == 6  # (0,0),(0,1),(1,0),(1,1),(0,2),(2,0)
    assert all(sum(a) <= 2 for a in idx2)


# ---------------------------------------------------------------------------
# Fourier norm


def test_s0_norm_is_l2():
    spec = GridSpec(1, 64)
    F = random_field(spec, 2.0, 1)
    f = inverse_transform(F)
    assert hs_norm(F, 0.0) == pytest.approx(
        np.sqrt(np.mean(f.values**2)), rel=1e-12
    )


def test_hs_norm_single_mode_closed_form():
    spec = GridSpec(1, 64)
    F = single_mode(spec, 3, amp=2.0)
    w = 1.0 + (TWO_PI * 3) ** 2
    # |sin| carries L2 mass 1/2, so the norm is amp * w^{s/2} / sqrt(2)
    assert hs_norm(F, 2.0) == pytest.approx(2.0 * w / np.sqrt(2.0), rel=1e-12)


def test_hs_norm_monotone_in_s():
    spec = GridSpec(1, 64)
    F = random_field(spec, 2.0, 5)
    norms = [hs_norm(F, s) for s in (0.0, 0.5, 1.0, 2.0)]
    assert all(a < b for a, b in zip(norms, norms[1:]))


def test_sobolev_weight_negative_exponent():
    spec = GridSpec(1, 16)
    w = sobolev_weight(spec, -1.0)
    assert w.shape == (16,)
    assert np.all(w <= 1.0)
    assert w[0] == 1.0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 5000))
def test_triangle_inequality(seed):
    spec = GridSpec(1, 32)
    F = random_field(spec, 1.0, seed)
    G = random_field(spec, 1.0, seed + 9999)
    s = 1.5
    lhs = hs_norm(Spectrum(spec, F.coeffs + G.coeffs), s)
    assert lhs <= hs_norm(F, s) + hs_norm(G, s) + 1e-10


# ---------------------------------------------------------------------------
# derivative-sum norm equivalence


def test_derivative_norm_equals_fourier_at_s1():
    spec = GridSpec(1, 64)
    for seed in range(10):
        F = random_field(spec, 1.0, seed)
        ratio = hs_norm(F, 1.0) / hs_norm_derivative(inverse_transform(F), 1)
        assert abs(ratio - 1.0) < 1e-10


def test_derivative_norm_bracket_at_s2():
    spec = GridSpec(1, 64)
    bound = norm_equivalence_constant(2, 1)
    assert bound == pytest.approx(np.sqrt(2.0))
    for seed in range(10):
        F = random_field(spec, 2.0, seed)
        ratio = hs_norm(F, 2.0) / hs_norm_derivative(inverse_transform(F), 2)
        assert 1.0 - 1e-12 <= ratio <= bound + 1e-12


def test_derivative_norm_single_mode_oracle():
    """For a pure sine at frequency k the s=2 ratio has a closed form:
    (1+w)^2 / (1 + w + w^2) with w = (2 pi k)^2."""
    spec = GridSpec(1, 64)
    F = single_mode(spec, 1)
    w = (TWO_PI) ** 2
    expected = np.sqrt((1 + w) ** 2 / (1 + w + w**2))
    ratio = hs_norm(F, 2.0) / hs_norm_derivative(inverse_transform(F), 2)
    assert ratio == pytest.approx(expected, rel=1e-12)


def test_norm_equivalence_constant_values():
    assert norm_equivalence_constant(1, 1) == pytest.approx(1.0)
    assert norm_equivalence_constant(2, 2) == pytest.approx(np.sqrt(2.0))
    assert norm_equivalence_constant(3, 1) == pytest.approx(np.sqrt(3.0))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("s", [1, 2])
def test_inductive_norm_decomposition(dim, s):
    """|f|_0 + sum_i |d_i f|_{s-1} is equivalent to |f|_s with constants
    [1, sqrt(n+1)]; holds for s in {1, 2} (the upper end is Cauchy-Schwarz
    over the n+1 summands, the lower end per-mode plus a cross term)."""
    from torusdiff.grid import differentiate

    spec = GridSpec(dim, 32 if dim == 1 else 16)
    hi = np.sqrt(dim + 1.0)
    for seed in range(8):
        F = random_field(spec, float(s), seed)
        total = hs_norm(F, 0.0)
        for axis in range(dim):
            total += hs_norm(differentiate(F, axis), float(s - 1))
        ratio = total / hs_norm(F, float(s))
        assert 1.0 - 1e-9 <= ratio <= hi + 1e-9


def derivative_norm_by_sum(f, s):
    """The per-field sum hs_norm_derivative was before its row form."""
    F = forward_transform(f)
    total = 0.0
    for alpha in multi_indices(f.spec.dim, s):
        total += np.sum(np.abs(differentiate_multi(F, alpha).coeffs) ** 2)
    return float(np.sqrt(total))


def cr_norm_by_max(f, r):
    """The per-field maximum cr_norm was before its row form."""
    F = forward_transform(f)
    best = 0.0
    for alpha in multi_indices(f.spec.dim, r):
        vals = inverse_transform(differentiate_multi(F, alpha)).values
        best = max(best, float(np.max(np.abs(vals))))
    return best


@pytest.mark.parametrize("dim,size", [(1, 64), (2, 16)])
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("components", [1, 2])
def test_norm_rows_equal_per_row_calls(dim, size, order, components):
    """Row forms equal the scalar norm of each row block and the per-field
    loops they replaced, bit for bit."""
    spec = GridSpec(dim, size)
    seeds = [4, 11, 2, 30]
    F = random_field(spec, 2.5, seeds, components)
    f = inverse_transform(F)
    rows = (hs_norm_derivative_rows(f, order, len(seeds)), cr_norm_rows(f, order, len(seeds)))
    for b in range(len(seeds)):
        block = GridFunction(spec, f.values[b * components : (b + 1) * components])
        assert rows[0][b] == hs_norm_derivative(block, order) == derivative_norm_by_sum(block, order)
        assert rows[1][b] == cr_norm(block, order) == cr_norm_by_max(block, order)


# ---------------------------------------------------------------------------
# sup norms and embedding


def test_cr_norm_of_sine():
    spec = GridSpec(1, 128)
    f = inverse_transform(single_mode(spec, 1))
    assert cr_norm(f, 0) == pytest.approx(1.0, abs=1e-6)
    assert cr_norm(f, 1) == pytest.approx(TWO_PI, abs=1e-4)


def test_embedding_bound_holds():
    spec = GridSpec(1, 64)
    K = embedding_constant(spec, 1.0)
    for seed in range(20):
        F = random_field(spec, 1.0, seed)
        assert cr_norm(inverse_transform(F), 0) <= K * hs_norm(F, 1.0)


def test_embedding_constant_requires_supercritical():
    with pytest.raises(ValueError):
        embedding_constant(GridSpec(1, 32), 0.5)
    with pytest.raises(ValueError):
        embedding_constant(GridSpec(2, 16), 1.0)


# ---------------------------------------------------------------------------
# Slobodeckij seminorm


def test_slobodeckij_constant_vanishes():
    spec = GridSpec(1, 64)
    f = GridFunction(spec, np.full((1, 64), 3.0))
    assert slobodeckij_seminorm(f, 0.5) == 0.0


def test_slobodeckij_refinement_stable():
    lam = 0.5
    vals = {}
    for n in (256, 1024):
        spec = GridSpec(1, n)
        x = spec.axis_coordinates()
        vals[n] = slobodeckij_seminorm(GridFunction(spec, np.sin(TWO_PI * x)[None]), lam)
    assert abs(vals[256] - vals[1024]) / vals[1024] < 0.02


def _slobodeckij_roll_loop(f, lam):
    """One np.roll pass per shift: the 1D double sum, the reference for the
    Fourier multiplier."""
    n = f.spec.size
    h = 1.0 / n
    total = 0.0
    for m in range(1, n):
        dist = min(m * h, 1.0 - m * h)
        diff2 = np.sum((f.values - np.roll(f.values, -m, axis=1)) ** 2)
        total += diff2 / dist ** (1.0 + 2.0 * lam)
    return float(np.sqrt(total * h * h))


@pytest.mark.parametrize("n", [8, 256, 2048])
@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
def test_slobodeckij_matches_roll_loop(n, lam):
    """Precision contract: the Fourier multiplier gives the shift-by-shift
    double sum to roundoff (worst seen 1.4e-13 relative, at n = 2048)."""
    spec = GridSpec(1, n)
    for comps, seed in ((1, 3), (2, 4)):
        f = inverse_transform(random_field(spec, 1.5, seed, components=comps))
        want = _slobodeckij_roll_loop(f, lam)
        got = slobodeckij_seminorm(f, lam)
        assert abs(got - want) <= 1e-12 * want


def _slobodeckij_pair_sum(f, lam):
    """h^2n * sum over all point pairs i != j of |f_i - f_j|^2 / d_ij^(n + 2 lam),
    d the periodic distance: the quadrature written out, for small grids."""
    spec = f.spec
    diff = spec.points()[:, None, :] - spec.points()[None, :, :]
    dist = np.sqrt(np.sum((diff - np.round(diff)) ** 2, axis=-1))
    np.fill_diagonal(dist, np.inf)
    vals = f.values.reshape(f.values.shape[0], -1)
    sq = np.sum((vals[:, :, None] - vals[:, None, :]) ** 2, axis=0)
    return float(np.sqrt(np.sum(sq / dist ** (spec.dim + 2.0 * lam)) / spec.num_points**2))


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
def test_slobodeckij_on_t2_matches_pair_sum(n, lam):
    spec = GridSpec(2, n)
    for comps, seed in ((1, 3), (2, 4)):
        f = inverse_transform(random_field(spec, 2.5, seed, components=comps))
        want = _slobodeckij_pair_sum(f, lam)
        assert abs(slobodeckij_seminorm(f, lam) - want) <= 1e-13 * want


def test_slobodeckij_rejects_bad_lambda():
    spec = GridSpec(1, 32)
    f = GridFunction(spec, np.zeros((1, 32)))
    for lam in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            slobodeckij_seminorm(f, lam)

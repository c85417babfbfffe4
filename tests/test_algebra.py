"""Dealiased products, the stability set U_eps, division, quotient rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdiff.algebra import (
    UNIT_REFINE,
    StabilityError,
    divide,
    multiply,
    quotient_rule_residual,
    uset_membership,
)
from torusdiff.grid import (
    GridFunction,
    GridSpec,
    band_project,
    forward_transform,
    fourier_truncate,
    inverse_transform,
    random_field,
    refine,
)
from torusdiff.norms import hs_norm

TWO_PI = 2.0 * np.pi


def trig(spec, expr):
    x = spec.axis_coordinates()
    return GridFunction(spec, expr(x)[None])


# ---------------------------------------------------------------------------
# multiplication


def test_multiply_band_limited_exact():
    spec = GridSpec(1, 64)
    f = trig(spec, lambda x: np.sin(TWO_PI * x))
    g = trig(spec, lambda x: np.cos(TWO_PI * 3 * x))
    fg = multiply(f, g)
    x = spec.axis_coordinates()
    assert np.max(np.abs(fg.values[0] - np.sin(TWO_PI * x) * np.cos(TWO_PI * 3 * x))) < 1e-12


def test_multiply_dealiases_quadratic_products():
    """sin(2 pi 31 x)^2 = 1/2 - cos(2 pi 62 x)/2; mode 62 falls outside the
    N=64 band, so the projected product is the constant 1/2.  A plain grid
    product would alias mode 62 onto mode 2 instead."""
    spec = GridSpec(1, 64)
    f = trig(spec, lambda x: np.sin(TWO_PI * 31 * x))
    sq = multiply(f, f)
    naive = f.values[0] * f.values[0]
    assert np.max(np.abs(sq.values[0] - 0.5)) < 1e-12
    assert np.max(np.abs(naive - 0.5)) > 0.4


def test_multiply_commutes_exactly():
    spec = GridSpec(1, 32)
    f = inverse_transform(random_field(spec, 2.0, 0))
    g = inverse_transform(random_field(spec, 2.0, 1))
    assert np.array_equal(multiply(f, g).values, multiply(g, f).values)


def test_multiply_broadcasts_scalar_against_vector():
    spec = GridSpec(2, 16)
    scalar = inverse_transform(random_field(spec, 2.0, 3))
    vector = inverse_transform(random_field(spec, 2.0, 4, components=2))
    out = multiply(scalar, vector)
    assert out.values.shape == (2, 16, 16)
    for c in range(2):
        comp = multiply(scalar, GridFunction(spec, vector.values[c][None]))
        assert np.max(np.abs(out.values[c] - comp.values[0])) < 1e-14


def test_multiply_component_counts_broadcast_or_raise():
    """A 1-component field broadcasts against a 3-component one, bit for bit
    the grid product of the refined operands projected back; 2 against 3
    components raises ValueError."""
    spec = GridSpec(1, 32)
    one = inverse_transform(random_field(spec, 2.0, 5))
    three = inverse_transform(random_field(spec, 2.0, 6, components=3))
    fine = [refine(forward_transform(h), UNIT_REFINE) for h in (one, three)]
    want = inverse_transform(band_project(
        GridFunction(fine[0].spec, fine[0].values * fine[1].values), spec))
    assert multiply(one, three).values.tobytes() == want.values.tobytes()
    two = inverse_transform(random_field(spec, 2.0, 7, components=2))
    with pytest.raises(ValueError):
        multiply(two, three)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 5000), st.floats(-3.0, 3.0))
def test_multiply_bilinear(seed, c):
    spec = GridSpec(1, 32)
    f = inverse_transform(random_field(spec, 2.0, seed))
    g = inverse_transform(random_field(spec, 2.0, seed + 1))
    h = inverse_transform(random_field(spec, 2.0, seed + 2))
    fg_h = multiply(GridFunction(spec, f.values + c * g.values), h)
    sep = multiply(f, h).values + c * multiply(g, h).values
    assert np.max(np.abs(fg_h.values - sep)) < 1e-10


def test_banach_algebra_envelope_finite():
    # |fg|_1 <= K |f|_1 |g|_1 with a modest constant at this band
    spec = GridSpec(1, 64)
    worst = 0.0
    for seed in range(20):
        f = inverse_transform(random_field(spec, 1.0, seed))
        g = inverse_transform(random_field(spec, 1.0, 100 + seed))
        num = hs_norm(forward_transform(multiply(f, g)), 1.0)
        den = hs_norm(forward_transform(f), 1.0) * hs_norm(forward_transform(g), 1.0)
        worst = max(worst, num / den)
    assert worst < 1.0


# ---------------------------------------------------------------------------
# the stability set


def test_uset_membership_accepts():
    spec = GridSpec(1, 128)
    g = trig(spec, lambda x: 0.2 * np.sin(TWO_PI * x))
    cert = uset_membership(g, 0.5)
    assert cert.member
    assert cert.inf_value == pytest.approx(0.8, abs=1e-10)


def test_uset_membership_rejects():
    spec = GridSpec(1, 128)
    g = trig(spec, lambda x: -0.9 + 0.0 * x)
    cert = uset_membership(g, 0.5)
    assert not cert.member
    assert cert.inf_value == pytest.approx(0.1, abs=1e-10)


def test_uset_refined_grid_catches_between_points():
    """Two aligned high modes dip below the threshold between coarse grid
    points; the grid minimum of g misses it, the refined certificate grid
    sees the true infimum."""
    spec = GridSpec(1, 16)
    x = spec.axis_coordinates()
    bump = np.cos(TWO_PI * 7 * (x - 1 / 32)) + np.cos(TWO_PI * 6 * (x - 1 / 32))
    g = GridFunction(spec, (-0.45 * bump)[None])
    assert 1.0 + np.min(g.values) > 0.15
    fine = uset_membership(g, 0.15)
    assert not fine.member
    assert fine.inf_value == pytest.approx(0.1, abs=1e-10)


def test_uset_requires_scalar():
    spec = GridSpec(1, 32)
    two = GridFunction(spec, np.zeros((2, 32)))
    with pytest.raises(ValueError):
        uset_membership(two, 0.5)


# ---------------------------------------------------------------------------
# division


def test_divide_closure_round_trip():
    spec = GridSpec(1, 128)
    eps = 0.5
    f = inverse_transform(fourier_truncate(random_field(spec, 2.0, 21), 32))
    raw = inverse_transform(fourier_truncate(random_field(spec, 2.0, 22), 32))
    g = GridFunction(spec, 0.3 * raw.values / np.max(np.abs(raw.values)))
    back = divide(multiply(f, GridFunction(spec, 1.0 + g.values)), g, eps)
    assert np.max(np.abs(back.values - f.values)) < 1e-8


def test_divide_raises_outside_uset():
    spec = GridSpec(1, 64)
    g = trig(spec, lambda x: -0.8 * np.cos(TWO_PI * x))
    f = trig(spec, lambda x: np.sin(TWO_PI * x))
    with pytest.raises(StabilityError) as err:
        divide(f, g, 0.5)
    assert not err.value.certificate.member


# ---------------------------------------------------------------------------
# quotient rule


def test_quotient_rule_bundled_pair():
    spec = GridSpec(1, 128)
    f = trig(spec, lambda x: 0.2 * np.sin(TWO_PI * x))
    assert quotient_rule_residual(f, f, 0.5) < 1e-8


def test_quotient_rule_random_pair_within_scale():
    spec = GridSpec(1, 128)
    f = inverse_transform(fourier_truncate(random_field(spec, 2.0, 21), 32))
    raw = inverse_transform(fourier_truncate(random_field(spec, 2.0, 22), 32))
    g = GridFunction(spec, 0.3 * raw.values / np.max(np.abs(raw.values)))
    res = quotient_rule_residual(f, g, 0.5)
    bound = (
        1e-6
        * (1.0 + hs_norm(forward_transform(f), 2.0))
        * (1.0 + hs_norm(forward_transform(g), 2.0)) ** 2
    )
    assert res < bound

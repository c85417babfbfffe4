"""Pointwise algebra of periodic fields with dealiased products.

Products are computed on a 2x refined grid and projected back onto the
original band, so quadratic nonlinearities are alias-free.  Division is by
elements of the stable set U_eps = { g : inf(1 + g) > eps }, with the inf
certified on a 4x refined grid before any quotient is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    GridFunction,
    band_project,
    differentiate,
    forward_transform,
    inverse_transform,
    refine,
)

UNIT_REFINE = 2  # product grids
USET_REFINE = 4  # membership certificates


@dataclass(frozen=True)
class UsetCertificate:
    """Outcome of a stability check for 1 + g on the refined grid."""

    epsilon: float
    inf_value: float
    member: bool


def _dealiased(f: GridFunction, g: GridFunction, op) -> GridFunction:
    """op(f, g) pointwise on the product grid, projected back onto the common band."""
    if f.spec != g.spec:
        raise ValueError("operands live on different grids")
    ff = refine(forward_transform(f), UNIT_REFINE)
    gg = refine(forward_transform(g), UNIT_REFINE)
    return inverse_transform(band_project(GridFunction(ff.spec, op(ff.values, gg.values)), f.spec))


def multiply(f: GridFunction, g: GridFunction) -> GridFunction:
    """Dealiased pointwise product, returned on the common grid.

    Scalar fields broadcast against multi-component ones; otherwise the
    component counts must match (numpy raises ValueError).
    """
    return _dealiased(f, g, np.multiply)


def uset_membership(g: GridFunction, epsilon: float) -> UsetCertificate:
    """Certify inf(1 + g) > epsilon by direct minimum on the USET_REFINE-refined grid."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if g.num_components != 1:
        raise ValueError("stability certificates apply to scalar fields")
    fine = refine(forward_transform(g), USET_REFINE)
    inf_val = float(1.0 + np.min(fine.values))
    return UsetCertificate(epsilon, inf_val, inf_val > epsilon)


class StabilityError(ValueError):
    """Raised when a quotient's denominator fails its U_eps certificate."""

    def __init__(self, cert: UsetCertificate):
        self.certificate = cert
        super().__init__(
            f"inf(1+g) = {cert.inf_value:.6g} <= epsilon = {cert.epsilon:.6g}"
        )


def divide(f: GridFunction, g: GridFunction, epsilon: float) -> GridFunction:
    """f / (1 + g) on the dealiased product grid; g must sit in U_eps."""
    cert = uset_membership(g, epsilon)
    if not cert.member:
        raise StabilityError(cert)
    return _dealiased(f, g, lambda a, b: a * (1.0 / (1.0 + b)))


def quotient_rule_residual(
    f: GridFunction, g: GridFunction, epsilon: float
) -> float:
    """Max grid residual of the quotient rule for f / (1+g).

    Checks  d_i(f/(1+g)) = d_i f/(1+g) - (d_i(f g) - g d_i f)/(1+g)^2
    with every term built from the module's own product, quotient and
    spectral-derivative routines.  (1+g)^2 = 1 + (2g + g^2), and 2g + g^2
    lies in U_{eps^2} whenever g lies in U_eps.
    """
    spec = f.spec
    F = forward_transform(f)
    fg = multiply(f, g)
    two_g_plus_g2 = GridFunction(spec, multiply(g, g).values + 2.0 * g.values)
    worst = 0.0
    for axis in range(spec.dim):
        df = inverse_transform(differentiate(F, axis))
        lhs = inverse_transform(
            differentiate(forward_transform(divide(f, g, epsilon)), axis)
        )
        d_fg = inverse_transform(differentiate(forward_transform(fg), axis))
        g_df = multiply(g, df)
        numer = GridFunction(spec, d_fg.values - g_df.values)
        rhs = GridFunction(
            spec,
            divide(df, g, epsilon).values
            - divide(numer, two_g_plus_g2, epsilon**2).values,
        )
        worst = max(worst, float(np.max(np.abs(lhs.values - rhs.values))))
    return worst

"""Check records: the margin rule, the verdict `run_suite` makes from them, and
a flip of each suite's verdict through one of its tolerances."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from torusdiff.report import check
from torusdiff.suites import SUITES, run_suite

# ---------------------------------------------------------------------------
# the helper


@pytest.mark.parametrize(
    "value, bound, sense, passed, margin",
    [
        (1.0, 1.0, "<", False, 0.0),  # equality fails a strict bound
        (1.0, 1.0, "<=", True, 0.0),
        (1.0, 1.0, ">=", True, 0.0),
        (0.5, 2.0, "<", True, 0.75),
        (3.0, 2.0, "<=", False, -0.5),
        (3.0, 2.0, ">=", True, 0.5),
        (-0.5, -1.0, "<=", False, -0.5),  # the scale is |bound|
        (-0.25, 0.0, "<", True, 0.25),  # a zero bound: the raw headroom
        (0.25, 0, "<=", False, -0.25),
        (0.25, 0.0, ">=", True, 0.25),
        (3.0, [2.0, 6.0], "in", True, 0.25),  # a share of the band's width
        (2.0, [2.0, 6.0], "in", True, 0.0),  # the edges are in
        (7.0, [2.0, 6.0], "in", False, -0.25),
        (2.0, [2.0, 2.0], "in", True, 0.0),  # lo == hi: the raw headroom
        (2.5, [2.0, 2.0], "in", False, -0.5),
    ],
)
def test_check_pass_and_margin(value, bound, sense, passed, margin):
    c = check("x", value, bound, sense)
    assert c == {"name": "x", "value": value, "bound": bound, "sense": sense,
                 "pass": passed, "margin": margin}


finite = st.floats(-1e6, 1e6)
bounds = st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))


@given(finite, bounds, bounds, st.sampled_from(["<", "<=", ">=", "in"]))
def test_a_check_that_holds_has_a_margin_of_zero_or_more(value, a, b, sense):
    bound = sorted([a, b]) if sense == "in" else a
    c = check("x", value, bound, sense)
    assert math.isfinite(c["margin"])
    assert c["margin"] >= 0 if c["pass"] else c["margin"] <= 0


# ---------------------------------------------------------------------------
# the verdict of every default report


@pytest.fixture(scope="module")
def default_reports():
    return [run_suite(name) for name in SUITES]


def test_every_default_verdict_is_all_of_its_checks(default_reports):
    for rep in default_reports:
        names = [c["name"] for c in rep.checks]
        assert names and len(set(names)) == len(names), rep.suite
        assert rep.passed is all(c["pass"] for c in rep.checks) is True, rep.suite
        assert all(math.isfinite(c["margin"]) for c in rep.checks), rep.suite


# ---------------------------------------------------------------------------
# one tolerance per suite that has one, set just past its check's value

FLIPS = {
    "norm-equivalence": ({"size": 16, "trials": 5}, "tol_identity", "s=1 identity"),
    "algebra": ({"sizes": [32, 64], "trials": 10}, "stability", "relative_spread"),
    "quotient-rule": ({"size": 64}, "tol_closure", "closure residual"),
    "group": ({"size": 64, "trials": 2}, "tol_identity", "max_identity_defect"),
    "taylor-identity": ({"size": 64}, "tol_scale", "r=1 defect"),
    "taylor-order": ({"seeds": [101]}, "slope_margin", "r=2,direction=0 slope"),
    "inverse-differential": ({"size": 64}, "ratio_band", "richardson_ratio"),
    "lipschitz": ({"trials": 5}, "stability", "relative_change"),
    "loss-of-derivative": ({"octaves": 3}, "growth_min", "min_growth_factor"),
    "geodesic": ({"size": 16, "steps": 64, "scaling_steps": 64}, "tol_energy", "energy_drift"),
    "fractional": ({"pairs": 3}, "slack", "max_bound_ratio"),
}


def just_past(tol, c):
    """The tolerance that moves check `c`'s bound just past its value: a bound
    proportional to `tol` under < or <=, `tol` plus an offset under >=, or the
    upper edge of a band."""
    nudge = 1e-9
    if c["sense"] == "in":
        return [tol[0], c["value"] * (1.0 - nudge)]
    if c["sense"] == ">=":
        return tol + (c["value"] - c["bound"]) + nudge * abs(c["value"])
    return tol * c["value"] / c["bound"] * (1.0 - nudge)


def test_every_suite_with_a_tolerance_has_a_flip():
    assert set(FLIPS) == set(SUITES) - {"embedding"}  # embedding's bound is computed


@pytest.mark.parametrize("name", list(FLIPS))
def test_a_tolerance_just_past_its_check_flips_only_that_check(name):
    params, key, target = FLIPS[name]
    base = run_suite(name, params)
    assert base.passed and all(c["pass"] for c in base.checks)
    [c] = [c for c in base.checks if c["name"] == target]
    flipped = run_suite(name, {**params, key: just_past(base.params[key], c)})
    assert flipped.to_dict()["pass"] is False
    assert [c["name"] for c in flipped.checks if not c["pass"]] == [target]
    assert [c["name"] for c in flipped.checks] == [c["name"] for c in base.checks]

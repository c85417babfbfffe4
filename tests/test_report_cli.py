"""Report serialization, JSON codecs, and the CLI surface."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdiff import cli, suites
from torusdiff.cli import main
from torusdiff.diffeo import InversionError, compose_function, invert, make_diffeo
from torusdiff.grid import (
    GridFunction,
    GridSpec,
    Spectrum,
    forward_transform,
    inverse_transform,
    random_field,
)
from torusdiff.norms import cr_norm, hs_norm, hs_norm_derivative, slobodeckij_seminorm
from torusdiff.report import (
    SuiteReport,
    check,
    diffeo_from_dict,
    diffeo_to_dict,
    dump_json,
    load_diffeo,
    spectrum_from_dict,
    spectrum_to_dict,
)
from torusdiff.suites import (
    SUITES,
    normalize_params,
    parse_config,
    random_certified_displacement,
    run_all,
    run_suite,
)

TWO_PI = 2.0 * np.pi


def sine_diffeo(spec, amp):
    coeffs = np.zeros((1,) + spec.shape, dtype=np.complex128)
    coeffs[0, 1] = amp / 2j
    coeffs[0, -1] = -amp / 2j
    return make_diffeo(Spectrum(spec, coeffs))


def write_json(path, payload):
    path.write_text(dump_json(payload))
    return str(path)


# ---------------------------------------------------------------------------
# reports


def test_suite_report_round_trip():
    rep = SuiteReport(
        suite="demo",
        params={"size": 32, "seed": 7},
        trials=[{"trial": 0, "defect": 1.5e-12}],
        aggregate={"max_defect": 1.5e-12},
        passed=True,
        wall_time_s=0.25,
    )
    payload = rep.to_dict()
    assert payload["pass"] is True
    assert payload["schema_version"] == "1.0"
    back = SuiteReport.from_dict(payload)
    assert back == rep


@pytest.mark.parametrize("name", ["norm-equivalence", "lipschitz", "geodesic"])
def test_suite_report_round_trip_is_lossless(name):
    rep = run_suite(name, {})
    assert SuiteReport.from_dict(rep.to_dict()).to_dict() == rep.to_dict()
    payload = json.loads(rep.to_json())
    assert SuiteReport.from_dict(payload).to_dict() == payload


def test_suite_report_rejects_unknown_key():
    payload = SuiteReport("demo", {"seed": 1}, aggregate={"x": 1.0}).to_dict()
    payload["aggregte"] = payload.pop("aggregate")
    with pytest.raises(ValueError, match="'aggregte'"):
        SuiteReport.from_dict(payload)


@pytest.mark.parametrize(
    "key",
    ["schema_version", "suite", "params", "trials", "aggregate", "checks", "pass", "wall_time_s"],
)
def test_suite_report_rejects_truncated_payload(key):
    payload = SuiteReport("demo", {"seed": 1}, aggregate={"x": 1.0}, passed=True).to_dict()
    del payload[key]
    with pytest.raises(ValueError, match=f"missing report key.*'{key}'"):
        SuiteReport.from_dict(payload)


def test_suite_report_rejects_other_schema_version():
    payload = SuiteReport("demo", {"seed": 1}).to_dict()
    payload["schema_version"] = "0.9"
    with pytest.raises(ValueError, match="schema_version '0.9'"):
        SuiteReport.from_dict(payload)


def test_comparison_bytes_ignores_timing_only():
    a = SuiteReport("demo", {"seed": 1}, aggregate={"x": 1.0}, passed=True, wall_time_s=0.1)
    b = SuiteReport("demo", {"seed": 1}, aggregate={"x": 1.0}, passed=True, wall_time_s=9.9)
    c = SuiteReport("demo", {"seed": 1}, aggregate={"x": 2.0}, passed=True, wall_time_s=0.1)
    assert a.comparison_bytes() == b.comparison_bytes()
    assert a.comparison_bytes() != c.comparison_bytes()


def test_dump_json_handles_numpy_scalars():
    payload = {
        "f": np.float64(0.5),
        "i": np.int64(3),
        "b": np.bool_(True),
        "arr": np.arange(3.0),
    }
    text = dump_json(payload)
    assert json.loads(text) == {"f": 0.5, "i": 3, "b": True, "arr": [0.0, 1.0, 2.0]}
    # keys come out sorted, so equal payloads give equal bytes
    assert text == dump_json(dict(reversed(list(payload.items()))))


def test_dump_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        dump_json({"bad": object()})


# ---------------------------------------------------------------------------
# field / diffeo codecs


def test_spectrum_codec_round_trip():
    F = random_field(GridSpec(2, 16), 2.0, seed=11, components=2)
    G = spectrum_from_dict(json.loads(dump_json(spectrum_to_dict(F))))
    assert G.spec == F.spec
    assert np.array_equal(G.coeffs, F.coeffs)


def test_spectrum_codec_rejects_wrong_kind():
    with pytest.raises(ValueError):
        spectrum_from_dict({"kind": "diffeo"})


def test_diffeo_codec_round_trip():
    phi = sine_diffeo(GridSpec(1, 64), 0.1)
    back = diffeo_from_dict(json.loads(dump_json(diffeo_to_dict(phi))))
    assert np.array_equal(back.displacement.coeffs, phi.displacement.coeffs)
    assert back.min_det == pytest.approx(phi.min_det, rel=1e-12)
    assert back.contraction_certified


@pytest.mark.parametrize("key", ["min_det_floor", "contraction_certified"])
def test_diffeo_codec_rejects_truncated_certificate(key):
    payload = json.loads(dump_json(diffeo_to_dict(sine_diffeo(GridSpec(1, 64), 0.1))))
    del payload["certificate"][key]
    with pytest.raises(ValueError, match=f"'certificate.{key}'"):
        diffeo_from_dict(payload)
    del payload["certificate"]
    with pytest.raises(ValueError, match="'certificate.min_det_floor'"):
        diffeo_from_dict(payload)


def _malformed(payload, variant):
    payload = json.loads(dump_json(payload))
    if variant == "schema_version":
        payload["schema_version"] = "9.9"
    elif variant == "unknown_key":
        payload["coefs_re"] = payload.get("coeffs_re", [])
    elif variant == "components":
        payload["components"] = 3
    elif variant == "grid_key":
        payload["grid"]["sise"] = 64
    elif variant == "certificate_key":
        payload["certificate"]["min_dett"] = 1.0
    return payload


@pytest.mark.parametrize(
    "variant, match",
    [
        ("schema_version", "schema_version '9.9'"),
        ("unknown_key", "unknown spectrum key.*'coefs_re'"),
        ("components", "components 3 != 1"),
        ("grid_key", "unknown spectrum key.*'grid.sise'"),
    ],
)
def test_spectrum_codec_rejects_malformed(variant, match):
    F = random_field(GridSpec(1, 64), 2.0, seed=3)
    with pytest.raises(ValueError, match=match):
        spectrum_from_dict(_malformed(spectrum_to_dict(F), variant))


@pytest.mark.parametrize(
    "variant, match",
    [
        ("schema_version", "schema_version '9.9'"),
        ("unknown_key", "unknown diffeo key.*'coefs_re'"),
        ("components", "unknown diffeo key.*'components'"),
        ("grid_key", "unknown diffeo key.*'grid.sise'"),
        ("certificate_key", "unknown diffeo key.*'certificate.min_dett'"),
    ],
)
def test_diffeo_codec_rejects_malformed(variant, match):
    payload = diffeo_to_dict(sine_diffeo(GridSpec(1, 64), 0.1))
    with pytest.raises(ValueError, match=match):
        diffeo_from_dict(_malformed(payload, variant))


@pytest.mark.parametrize("payload", [[1, 2], 5, "spectrum"])
def test_codecs_reject_a_non_object_payload(payload):
    for codec in (spectrum_from_dict, diffeo_from_dict):
        with pytest.raises(ValueError, match="payload must be a JSON object"):
            codec(payload)


def test_codecs_reject_a_non_object_grid():
    field = spectrum_to_dict(random_field(GridSpec(1, 64), 2.0, seed=3))
    phi = diffeo_to_dict(sine_diffeo(GridSpec(1, 64), 0.1))
    for codec, payload in ((spectrum_from_dict, field), (diffeo_from_dict, phi)):
        payload["grid"] = 5
        with pytest.raises(ValueError, match="'grid' must be a JSON object, got int"):
            codec(payload)


@pytest.mark.parametrize("size", ["16", 16.0, True])
def test_codecs_reject_a_non_integer_grid_size(size):
    field = spectrum_to_dict(random_field(GridSpec(1, 64), 2.0, seed=3))
    phi = diffeo_to_dict(sine_diffeo(GridSpec(1, 64), 0.1))
    for codec, payload in ((spectrum_from_dict, field), (diffeo_from_dict, phi)):
        payload["grid"]["size"] = size
        with pytest.raises(ValueError, match=f"size must be an integer, got {size!r}"):
            codec(payload)


@pytest.mark.parametrize("coeffs", [{"a": 1}, "abc", [["1", 2]], None, [[True, False]]])
def test_codecs_reject_non_numeric_coefficients(coeffs):
    field = spectrum_to_dict(random_field(GridSpec(1, 64), 2.0, seed=3))
    phi = diffeo_to_dict(sine_diffeo(GridSpec(1, 64), 0.1))
    for codec, payload, key in (
        (spectrum_from_dict, field, "coeffs_re"),
        (spectrum_from_dict, field, "coeffs_im"),
        (diffeo_from_dict, phi, "displacement_re"),
    ):
        payload = json.loads(dump_json(payload))
        payload[key] = coeffs
        with pytest.raises(ValueError, match=f"'{key}' must hold numbers only"):
            codec(payload)


@pytest.mark.parametrize("certificate", [[1, 2], 0.5, None])
def test_diffeo_codec_rejects_a_non_object_certificate(certificate):
    payload = diffeo_to_dict(sine_diffeo(GridSpec(1, 64), 0.1))
    payload["certificate"] = certificate
    with pytest.raises(ValueError, match="'certificate' must be a JSON object"):
        diffeo_from_dict(payload)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("min_det_floor", "x", "'certificate.min_det_floor' must be a number, got 'x'"),
        ("min_det_floor", None, "'certificate.min_det_floor' must be a number, got None"),
        ("min_det_floor", [1], r"'certificate.min_det_floor' must be a number, got \[1\]"),
        ("min_det_floor", True, "'certificate.min_det_floor' must be a number, got True"),
        ("min_det", "0.5", "'certificate.min_det' must be a number, got '0.5'"),
        ("max_grad", False, "'certificate.max_grad' must be a number, got False"),
        ("mean_displacement", ["x"], "'mean_displacement' must hold numbers only"),
        ("mean_displacement", [True], "'mean_displacement' must hold numbers only"),
        ("contraction_certified", "no", "'certificate.contraction_certified' must be true or false"),
        ("contraction_certified", 1, "'certificate.contraction_certified' must be true or false"),
    ],
)
def test_diffeo_codec_rejects_wrong_typed_certificate_values(key, value, message):
    payload = diffeo_to_dict(sine_diffeo(GridSpec(1, 64), 0.1))
    payload["certificate"][key] = value
    with pytest.raises(ValueError, match=message):
        diffeo_from_dict(payload)


def test_codecs_keep_signed_zeros():
    u = random_certified_displacement(GridSpec(1, 32), 0, 4, 0.5)
    assert np.sum(np.signbit(u.coeffs.real) & (u.coeffs.real == 0.0)) == 5  # the witness
    field = spectrum_from_dict(json.loads(dump_json(spectrum_to_dict(u))))
    phi = diffeo_from_dict(json.loads(dump_json(diffeo_to_dict(make_diffeo(u)))))
    assert field.coeffs.tobytes() == u.coeffs.tobytes()
    assert phi.displacement.coeffs.tobytes() == u.coeffs.tobytes()


grid_specs = st.one_of(
    st.builds(GridSpec, st.just(1), st.sampled_from([8, 32, 64])),
    st.builds(GridSpec, st.just(2), st.sampled_from([8, 16])),
)


@settings(max_examples=25, deadline=None)
@given(grid_specs, st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_spectrum_codec_round_trip_property(spec, components, seed):
    F = forward_transform(
        GridFunction(spec, np.random.default_rng(seed).standard_normal((components,) + spec.shape))
    )
    G = spectrum_from_dict(json.loads(dump_json(spectrum_to_dict(F))))
    assert G.spec == F.spec
    assert G.coeffs.tobytes() == F.coeffs.tobytes()


@settings(max_examples=15, deadline=None)
@given(grid_specs, st.floats(0.05, 0.6), st.integers(0, 2**20), st.booleans())
def test_diffeo_codec_round_trip_property(spec, amplitude, seed, inverted):
    phi = make_diffeo(random_certified_displacement(spec, seed, spec.size // 4, amplitude))
    if inverted:
        phi = invert(phi)
    back = diffeo_from_dict(json.loads(dump_json(diffeo_to_dict(phi))))
    assert back.displacement.coeffs.tobytes() == phi.displacement.coeffs.tobytes()
    assert diffeo_to_dict(back) == diffeo_to_dict(phi)


def test_serialized_inverse_reloads_without_certificate():
    # the inverse of a certified map typically fails the contraction bound;
    # its stored report must reload without tripping certification
    psi = invert(sine_diffeo(GridSpec(1, 64), 0.1))
    assert not psi.contraction_certified
    back = diffeo_from_dict(json.loads(dump_json(diffeo_to_dict(psi))))
    assert not back.contraction_certified
    assert back.max_grad > 1.0


# ---------------------------------------------------------------------------
# suite runner plumbing


def test_param_aliases_normalize():
    assert normalize_params({"N": 64, "seed": 3}) == {"size": 64, "seed": 3}
    assert normalize_params({"grid": 32}) == {"size": 32}


@pytest.mark.parametrize("raw", [{"size": 64, "N": 128}, {"N": 128, "size": 64}, {"grid": 8, "N": 8}])
def test_param_alias_collision_is_an_error(raw):
    first, second = raw
    with pytest.raises(ValueError, match=f"{first!r}, {second!r}"):
        normalize_params(raw)


def test_verify_all_reports_an_alias_collision(tmp_path, capsys):
    cfg = fast_config()
    cfg["suites"][1]["N"] = 64
    code = main(["verify-all", "--config", write_json(tmp_path / "cfg.json", cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert "embedding: FAIL" in captured.out and "norm-equivalence: PASS" in captured.out
    assert "error: params 'N', 'size' all name 'size'" in captured.err


def test_cli_verify_grid_overrides_an_alias(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"trials": 3, "N": 64})
    out = tmp_path / "rep.json"
    assert main(["verify", "norm-equivalence", "--config", cfg, "--grid", "32", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["params"]["size"] == 32


def test_parse_config_validation():
    with pytest.raises(ValueError):
        parse_config({})
    with pytest.raises(ValueError):
        parse_config({"suites": [{"trials": 3}]})
    with pytest.raises(ValueError):
        parse_config({"suites": [{"suite": "no-such-suite"}]})


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("no-such-suite")


@pytest.mark.parametrize("key", ["trails", "serial"])
def test_run_suite_rejects_unknown_param(key):
    with pytest.raises(ValueError, match=f"'{key}'"):
        run_suite("group", {key: 1})


# the parameters each suite requires to be positive, in its own order
POSITIVE = {
    "norm-equivalence": ("tol_identity", "tol_bracket"),
    "algebra": ("stability",),
    "quotient-rule": ("tol_bundled", "tol_closure", "tol_random_scale"),
    "group": ("tol_identity", "tol_residual"),
    "taylor-identity": ("tol_scale",),
    "taylor-order": ("slope_margin",),
    "inverse-differential": ("eps", "ratio_band"),
    "lipschitz": ("radius", "stability"),
    "loss-of-derivative": ("growth_min", "right_band"),
    "geodesic": ("tol_flat", "tol_scaling", "tol_energy"),
    "fractional": ("oracle_rel_tol", "slack"),
}


@pytest.fixture
def no_work(monkeypatch):
    """Every suite builds its grid first: fail as soon as one starts work."""

    def started(*args):
        raise AssertionError("the suite started work")

    monkeypatch.setattr(suites, "GridSpec", started)


def test_positive_table_matches_the_suites(monkeypatch, no_work):
    for name in SUITES:
        checked = []
        monkeypatch.setattr(suites, "_require_positive", lambda p, keys: checked.extend(keys))
        with pytest.raises(AssertionError, match="started work"):
            run_suite(name)
        assert tuple(checked) == POSITIVE.get(name, ())


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("name, key", [(n, k) for n, keys in POSITIVE.items() for k in keys])
def test_suites_reject_a_non_positive_tolerance(no_work, name, key, value):
    with pytest.raises(ValueError, match=f"tolerance '{key}' must be positive, got {value}"):
        run_suite(name, {key: value})


@pytest.mark.parametrize("name, key", [(n, k) for n, keys in POSITIVE.items() for k in keys])
def test_suites_reject_a_subnormal_tolerance(no_work, name, key):
    """A margin divides by its bound: 1e-320 would overflow it to -inf,
    which strict JSON cannot hold, so it fails before any work."""
    value = [1e-320, 1.0] if key in suites._PAIRS else 1e-320
    with pytest.raises(ValueError, match=f"tolerance '{key}' must be a normal float"):
        run_suite(name, {key: value})


@pytest.mark.parametrize("name", list(SUITES))
def test_every_suite_rejects_an_unknown_param(no_work, name):
    with pytest.raises(ValueError, match="unknown parameter 'trails'"):
        run_suite(name, {"trails": 1})


@pytest.mark.parametrize(
    "name, params, key",
    [
        ("norm-equivalence", {"s_values": []}, "s_values"),
        ("taylor-order", {"seeds": []}, "seeds"),
        ("taylor-order", {"r_values": []}, "r_values"),
        ("inverse-differential", {"eps": []}, "eps"),
        ("loss-of-derivative", {"octaves": 0}, "octaves"),
        ("loss-of-derivative", {"octaves": 1}, "octaves"),
        ("algebra", {"sizes": [64]}, "sizes"),
        ("algebra", {"sizes": [64, 64]}, "sizes"),
    ],
)
def test_a_config_that_leaves_nothing_to_check_fails(name, params, key):
    """An empty list, one octave (no growth factor) or one algebra size (no
    spread) would pass with nothing checked: the suite fails, naming the key."""
    reports, summary = run_all({"suites": [{"suite": name, **params}]})
    [entry] = summary["suites"]
    assert not reports and summary["pass"] is False and entry["pass"] is False
    assert repr(key) in entry["error"]


PAIR_CASES = [
    (name, key, value)
    for name, keys in [("inverse-differential", ("eps", "ratio_band")), ("geodesic", ("d0_band", "rk4_band"))]
    for key in keys
    for value in ([1.7], [1.7, 2.0, 2.3])
]


@pytest.mark.parametrize("name, key, value", PAIR_CASES)
def test_a_pair_parameter_needs_exactly_two_entries(no_work, name, key, value):
    """One or three entries fail before any work, with the key named."""
    reports, summary = run_all({"suites": [{"suite": name, key: value}]})
    [entry] = summary["suites"]
    assert not reports and summary["pass"] is False and entry["pass"] is False
    assert entry["error"] == f"parameter {key!r} must have exactly 2 entries, got {value}"


BAND_CASES = [
    ("inverse-differential", "ratio_band", [4.5, 3.5]),
    ("geodesic", "d0_band", [2.3, 1.7]),
    ("geodesic", "rk4_band", [4.3, 3.7]),
]


@pytest.mark.parametrize("name, key, value", BAND_CASES)
def test_a_band_given_high_to_low_fails_before_any_work(no_work, name, key, value):
    """A reversed band would run the suite and report FAIL with no error."""
    reports, summary = run_all({"suites": [{"suite": name, key: value}]})
    [entry] = summary["suites"]
    assert not reports and summary["pass"] is False and entry["pass"] is False
    assert entry["error"] == f"parameter {key!r} must be [lo, hi] with lo <= hi, got {value}"


def test_eps_is_a_pair_of_steps_not_a_band():
    reports, summary = run_all({"suites": [{"suite": "inverse-differential", "eps": [5e-4, 1e-3]}]})
    [entry] = summary["suites"]
    assert len(reports) == 1 and "error" not in entry
    assert reports[0].params["eps"] == [5e-4, 1e-3]


@pytest.mark.parametrize(
    "key, value, least",
    [("size", 8, 16), ("size", 10, 16), ("size", 14, 16), ("steps", 15, 16),
     ("scaling_steps", 15, 16), ("steps", 16.0, 16), ("scaling_steps", True, 16), ("steps", "32", 16)],
)
def test_geodesic_rejects_a_size_or_step_count_naming_the_key(no_work, key, value, least):
    reports, summary = run_all({"suites": [{"suite": "geodesic", key: value}]})
    [entry] = summary["suites"]
    assert not reports and entry["pass"] is False
    assert entry["error"] == f"parameter {key!r} must be an integer >= {least}, got {value!r}"


def test_geodesic_runs_at_its_smallest_size():
    assert run_suite("geodesic", {"size": 16, "steps": 16, "scaling_steps": 16}).params["size"] == 16


WRONG_TYPES = [
    ("geodesic", "d0_band", ["a", 2]),
    ("geodesic", "rk4_band", [3.7, None]),
    ("inverse-differential", "eps", [1e-3, "5e-4"]),
    ("inverse-differential", "ratio_band", [3.5, True]),
    ("norm-equivalence", "tol_identity", "1e-10"),
    ("norm-equivalence", "tol_identity", True),
    ("algebra", "stability", [0.1]),
    ("algebra", "k_max", "big"),
    ("algebra", "k_max", False),
    ("fractional", "slack", None),
]


@pytest.mark.parametrize("name, key, value", WRONG_TYPES)
def test_a_value_of_the_wrong_type_fails_before_any_work(no_work, name, key, value):
    """A string, a bool, a null or a list where a real number belongs used to
    crash unnamed inside the suite, or (`true`, `"big"`) to run it."""
    reports, summary = run_all({"suites": [{"suite": name, key: value}]})
    [entry] = summary["suites"]
    assert not reports and summary["pass"] is False
    assert entry["error"].startswith(("tolerance", "parameter")) and repr(key) in entry["error"]
    assert "real number" in entry["error"] and repr(value) in entry["error"]


@pytest.mark.parametrize(
    "name, key, value",
    [("embedding", "trials", 0), ("algebra", "trials", 0), ("group", "trials", 0),
     ("norm-equivalence", "trials", 0), ("lipschitz", "trials", 0), ("fractional", "pairs", 0),
     ("fractional", "pairs", -1), ("embedding", "trials", 2.5), ("group", "trials", True),
     ("lipschitz", "trials", "3")],
)
def test_a_count_below_one_or_not_an_integer_fails_before_any_work(no_work, name, key, value):
    reports, summary = run_all({"suites": [{"suite": name, key: value}]})
    [entry] = summary["suites"]
    assert not reports and summary["pass"] is False
    assert entry["error"] == f"parameter {key!r} must be an integer >= 1, got {value!r}"


@pytest.mark.parametrize(
    "name, key, value, kind",
    [("taylor-identity", "r_values", [1.5], "a list of integers >= 1"),
     ("taylor-identity", "r_values", [0], "a list of integers >= 1"),
     ("taylor-identity", "r_values", [True], "a list of integers >= 1"),
     ("taylor-order", "r_values", 2, "a list of integers >= 1"),
     ("taylor-order", "seeds", ["x"], "a list of integers >= 0"),
     ("taylor-order", "seeds", [101, -1], "a list of integers >= 0"),
     ("norm-equivalence", "seed", -1, "an integer >= 0"),
     ("geodesic", "seed", True, "an integer >= 0"),
     ("lipschitz", "seed", 31.0, "an integer >= 0"),
     ("loss-of-derivative", "octaves", 2.5, "an integer >= 2"),
     ("loss-of-derivative", "octaves", False, "an integer >= 2")],
)
def test_an_integer_key_of_the_wrong_type_or_range_fails_before_any_work(
    no_work, name, key, value, kind
):
    """A fractional, negative or boolean seed, order or octave count used to
    fail inside the suite without naming its key, or (an order `true`) to run."""
    reports, summary = run_all({"suites": [{"suite": name, key: value}]})
    [entry] = summary["suites"]
    assert not reports and summary["pass"] is False
    assert entry["error"] == f"parameter {key!r} must be {kind}, got {value!r}"


def test_a_real_k_max_still_runs():
    report = run_suite("algebra", {"sizes": [32, 64], "trials": 10, "k_max": 1})
    assert report.passed and [c["name"] for c in report.checks] == ["relative_spread", "max_envelope"]


# the suites that take `dim`, at small T^2 sizes; every other suite is T^1 only
T2_PARAMS = {
    "norm-equivalence": {"size": 16, "trials": 5},
    "embedding": {"s": 1.5, "size": 16, "trials": 5},  # the sup bound needs s > dim/2
    "algebra": {"sizes": [16, 32], "trials": 5},
    "group": {"size": 16, "trials": 2},
}


@pytest.mark.parametrize("name", list(SUITES))
def test_t2_runs_where_a_suite_takes_dim(name):
    reports, summary = run_all({"suites": [{"suite": name, "dim": 2, **T2_PARAMS.get(name, {})}]})
    if name in T2_PARAMS:
        [report] = reports
        assert report.passed and report.params["dim"] == 2
    else:
        assert not reports and summary["suites"][0]["error"].startswith(
            "unknown parameter 'dim'; known: ["
        )


# ---------------------------------------------------------------------------
# CLI: verify


def test_cli_verify_writes_report(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"trials": 4, "size": 32})
    out = tmp_path / "rep.json"
    code = main(["verify", "norm-equivalence", "--config", cfg, "--out", str(out)])
    assert code == 0
    assert "norm-equivalence: PASS" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert payload["params"]["trials"] == 4


def test_cli_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2


def test_cli_verify_overrides_win(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"trials": 3, "size": 64, "seed": 1})
    out = tmp_path / "rep.json"
    code = main(
        ["verify", "norm-equivalence", "--config", cfg, "--seed", "7", "--grid", "32", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["params"]["seed"] == 7
    assert payload["params"]["size"] == 32


def test_cli_verify_unknown_param_is_an_error(tmp_path, capsys):
    typo = {"suites": [{"suite": "group", "trails": 1}]}
    cfg = write_json(tmp_path / "cfg.json", typo)
    assert main(["verify", "group", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "'trails'" in err


def test_cli_verify_a_wrong_typed_param_is_an_error_for_both_commands(tmp_path, capsys):
    flat = write_json(tmp_path / "flat.json", {"trials": "x"})
    assert main(["verify", "embedding", "--config", flat]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err and "integer" in captured.err
    message = captured.err[len("error: "):]
    cfg = write_json(tmp_path / "cfg.json", {"suites": [{"suite": "embedding", "trials": "x"}]})
    assert main(["verify-all", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == "embedding: FAIL (0.00s)\noverall: FAIL\n"
    assert captured.err == f"  error: {message}"


@pytest.mark.parametrize("name, key, value", [("inverse-differential", "eps", [1e-3]), ("geodesic", "d0_band", [1.7])])
def test_cli_verify_names_a_pair_parameter_of_the_wrong_length(tmp_path, capsys, name, key, value):
    cfg = write_json(tmp_path / "cfg.json", {"suites": [{"suite": name, key: value}]})
    assert main(["verify", name, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: parameter {key!r}")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "name, params, key",
    [(name, {key: value}, key) for name, key, value in BAND_CASES]
    + [("geodesic", {"scaling_steps": 15}, "scaling_steps"), ("geodesic", {"size": 8}, "size")],
)
def test_cli_verify_names_a_reversed_band_or_a_bad_geodesic_size(tmp_path, capsys, name, params, key):
    cfg = write_json(tmp_path / "cfg.json", {"suites": [{"suite": name, **params}]})
    assert main(["verify", name, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: parameter {key!r}")
    assert "Traceback" not in captured.err


def test_cli_verify_a_flat_config_cannot_name_its_suite(tmp_path, capsys):
    for suite in ("embedding", "group"):
        cfg = write_json(tmp_path / "cfg.json", {"suite": suite, "trials": 3})
        assert main(["verify", "embedding", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown parameter 'suite'") and captured.out == ""


# ---------------------------------------------------------------------------
# CLI: verify-all


def fast_config(**overrides):
    entries = [
        {"suite": "norm-equivalence", "trials": 3, "size": 32},
        {"suite": "embedding", "trials": 3, "size": 32},
    ]
    cfg = {"suites": entries}
    cfg.update(overrides)
    return cfg


def test_cli_verify_all_writes_reports(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", fast_config())
    out_dir = tmp_path / "reports"
    code = main(["verify-all", "--config", cfg, "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 0
    assert "overall: PASS" in captured.out
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["pass"] is True
    assert {e["suite"] for e in summary["suites"]} == {"norm-equivalence", "embedding"}
    for name in ("norm-equivalence", "embedding"):
        rep = json.loads((out_dir / f"{name}.json").read_text())
        assert rep["pass"] is True


def test_cli_verify_all_prints_each_suites_tightest_check(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", fast_config())
    assert main(["verify-all", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("norm-equivalence: PASS (")
    assert "; tightest s=2 lower " in lines[0] and ", margin " in lines[0]
    assert "; tightest max_ratio " in lines[1] and lines[2] == "overall: PASS"


def test_cli_verify_prints_only_the_failing_checks(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"sizes": [32, 64], "trials": 10, "k_max": 0})
    assert main(["verify", "algebra", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("algebra: FAIL (") and "; tightest max_envelope " in captured.out
    assert captured.err.startswith("  failed max_envelope ") and captured.err.count("\n") == 1


def test_cli_verify_all_forced_failure(tmp_path, capsys):
    bad = {
        "suites": [
            {"suite": "norm-equivalence", "trials": 3, "size": 32},
            {"suite": "algebra", "sizes": [32, 64], "trials": 10, "k_max": 0},
        ]
    }
    cfg = write_json(tmp_path / "cfg.json", bad)
    code = main(["verify-all", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 1
    assert "algebra: FAIL" in captured.out
    assert "norm-equivalence: PASS" in captured.out
    assert "overall: FAIL" in captured.out


def test_cli_verify_all_empty_config_is_vacuous(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"suites": []})
    code = main(["verify-all", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 0
    assert "overall: PASS" in captured.out
    assert "vacuous" in captured.err


def test_cli_verify_all_bad_config_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"suites": [{"suite": "nope"}]})
    code = main(["verify-all", "--config", cfg])
    assert code == 2
    assert "unknown suite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, message",
    [
        (7, "config must be a JSON object with a 'suites' list, got 7"),
        ({"suites": [5]}, "config entry must be a JSON object, got 5"),
        ({"suites": [{"suite": ["embedding"]}]}, "unknown suite ['embedding']"),
        ({"suites": [{"suite": "embeding", "trials": 5}]}, "unknown suite 'embeding'"),
    ],
)
def test_malformed_config_is_an_error_for_both_commands(tmp_path, capsys, config, message):
    with pytest.raises(ValueError) as exc:
        parse_config(config)
    assert str(exc.value) == message
    cfg = write_json(tmp_path / "cfg.json", config)
    assert main(["verify-all", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    # verify validates the whole list too, not just the entry it would run
    assert main(["verify", "embedding", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


# ---------------------------------------------------------------------------
# CLI: norm / compose / invert


def test_cli_norm_matches_direct_value(tmp_path, capsys):
    spec = GridSpec(1, 64)
    x = spec.axis_coordinates()
    F = forward_transform(GridFunction(spec, np.sin(TWO_PI * x)[None]))
    field = write_json(tmp_path / "f.json", spectrum_to_dict(F))

    assert main(["norm", field, "--s", "1.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["norm_value"] == pytest.approx(hs_norm(F, 1.5), rel=1e-12)
    assert payload["method"] == "fourier"

    assert main(["norm", field, "--s", "2", "--kind", "derivative"]) == 0
    payload = json.loads(capsys.readouterr().out)
    want = hs_norm_derivative(GridFunction(spec, np.sin(TWO_PI * x)[None]), 2)
    assert payload["norm_value"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("kind, s", [("derivative", "1.5"), ("cr", "1.7"), ("derivative", "-1")])
def test_cli_norm_rejects_a_non_integer_order(tmp_path, capsys, kind, s):
    F = random_field(GridSpec(1, 64), 2.0, seed=5)
    field = write_json(tmp_path / "f.json", spectrum_to_dict(F))
    assert main(["norm", field, "--s", s, "--kind", kind]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("kind, key, norm", [("derivative", "s", hs_norm_derivative), ("cr", "r", cr_norm)])
def test_cli_norm_integral_order_output(tmp_path, capsys, kind, key, norm):
    F = random_field(GridSpec(1, 64), 2.0, seed=5)
    field = write_json(tmp_path / "f.json", spectrum_to_dict(F))
    assert main(["norm", field, "--s", "2", "--kind", kind]) == 0
    method = "derivative" if kind == "derivative" else "grid-sup"
    value = norm(inverse_transform(F), 2)
    want = dump_json({"norm_value": value, "method": method, "params": {key: 2}})
    assert capsys.readouterr().out == want + "\n"


def test_cli_slobodeckij_norm_on_t2(tmp_path, capsys):
    F = random_field(GridSpec(2, 16), 2.5, seed=5, components=2)
    field = write_json(tmp_path / "f.json", spectrum_to_dict(F))
    assert main(["norm", field, "--s", "0.5", "--kind", "slobodeckij"]) == 0
    value = slobodeckij_seminorm(inverse_transform(F), 0.5)
    want = dump_json({"norm_value": value, "method": "double-sum", "params": {"lam": 0.5}})
    assert capsys.readouterr().out == want + "\n"


def test_cli_compose_round_trip(tmp_path):
    spec = GridSpec(1, 64)
    x = spec.axis_coordinates()
    F = forward_transform(GridFunction(spec, np.sin(TWO_PI * x)[None]))
    phi = sine_diffeo(spec, 0.05)
    field = write_json(tmp_path / "f.json", spectrum_to_dict(F))
    phi_path = write_json(tmp_path / "phi.json", diffeo_to_dict(phi))
    out = tmp_path / "composed.json"

    assert main(["compose", field, phi_path, "--out", str(out)]) == 0
    got = spectrum_from_dict(json.loads(out.read_text()))
    want = forward_transform(compose_function(F, phi))
    assert np.allclose(got.coeffs, want.coeffs, atol=1e-14)


def test_cli_bad_input_is_a_clean_error(tmp_path, capsys):
    missing = main(["norm", str(tmp_path / "nope.json"), "--s", "1.0"])
    assert missing == 1
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "spectrum"}')
    assert main(["norm", str(bad), "--s", "1.0"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_non_object_payload_is_a_clean_error(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", [1, 2])
    assert main(["norm", bad, "--s", "1.0"]) == 1
    assert capsys.readouterr().err == "error: spectrum payload must be a JSON object, got list\n"
    assert main(["invert", bad]) == 1
    assert capsys.readouterr().err == "error: diffeo payload must be a JSON object, got list\n"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("size", "16", "size must be an integer, got '16'"),
        ("coeffs_re", {"a": 1}, "'coeffs_re' must hold numbers only, got {'a': 1}"),
    ],
)
def test_cli_norm_wrong_typed_payload_is_a_clean_error(tmp_path, capsys, key, value, message):
    payload = spectrum_to_dict(random_field(GridSpec(1, 16), 2.0, seed=3))
    (payload["grid"] if key == "size" else payload)[key] = value
    assert main(["norm", write_json(tmp_path / "bad.json", payload), "--s", "1.0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_cli_compose_and_invert_reject_an_uncertifiable_diffeo(tmp_path, capsys):
    spec = GridSpec(1, 64)
    payload = diffeo_to_dict(sine_diffeo(spec, 0.1))
    payload["certificate"]["min_det_floor"] = 0.99  # this map's min det is 1 - 0.2 pi
    phi = write_json(tmp_path / "phi.json", payload)
    field = write_json(tmp_path / "f.json", spectrum_to_dict(random_field(spec, 2.0, seed=3)))
    for argv in (["compose", field, phi], ["invert", phi]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: conditioning failure") and captured.out == ""


@pytest.mark.parametrize(
    "key, value", [("min_det_floor", "x"), ("contraction_certified", "no")]
)
def test_cli_invert_rejects_a_wrong_typed_certificate(tmp_path, capsys, key, value):
    payload = diffeo_to_dict(sine_diffeo(GridSpec(1, 64), 0.1))
    payload["certificate"][key] = value
    out = tmp_path / "psi.json"
    assert main(["invert", write_json(tmp_path / "phi.json", payload), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: 'certificate.{key}' must be") and captured.out == ""
    assert not out.exists()


def test_cli_invert_reports_an_inversion_error(tmp_path, capsys, monkeypatch):
    def fail(phi):
        raise InversionError(1e-3, 1e-12)

    monkeypatch.setattr(cli, "invert", fail)
    phi = write_json(tmp_path / "phi.json", diffeo_to_dict(sine_diffeo(GridSpec(1, 64), 0.1)))
    assert main(["invert", phi]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: inverse residual 1.000e-03 exceeds 1.000e-11\n"
    assert captured.out == ""


def test_cli_invert_flags_uncertified_inverse(tmp_path):
    phi = sine_diffeo(GridSpec(1, 64), 0.1)
    phi_path = write_json(tmp_path / "phi.json", diffeo_to_dict(phi))
    out = tmp_path / "psi.json"

    assert main(["invert", phi_path, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["certificate"]["contraction_certified"] is False
    # and the written inverse is itself loadable
    psi = load_diffeo(out)
    assert psi.max_grad > 1.0


# ---------------------------------------------------------------------------
# compare


def demo_report(suite="demo", value=0.5, name="max"):
    c = check(name, value, 1.0, "<")
    return SuiteReport(suite, {"size": 8}, trials=[{"x": value}, {"x": 2.0}],
                       aggregate={"max": value, "sizes": [8, 16]}, checks=[c], passed=c["pass"])


def write_reports(path, *reports):
    path.mkdir()
    for rep in reports:
        rep.to_json(path / f"{rep.suite}.json")
    dump_json({"pass": True}, path / "summary.json")  # verify-all's summary is skipped
    return str(path)


def test_compare_a_directory_with_itself_prints_no_change(tmp_path, capsys):
    d = write_reports(tmp_path / "a", demo_report("one"), demo_report("two"))
    assert main(["compare", d, d]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["one: equal comparison_bytes", "two: equal comparison_bytes",
                   "2 suites: 2 equal, 0 differ, 0 missing, 0 verdict changes"]


def test_compare_ignores_wall_time(tmp_path, capsys):
    a, b = demo_report(), demo_report()
    b.wall_time_s = 3.0
    assert main(["compare", write_reports(tmp_path / "a", a), write_reports(tmp_path / "b", b)]) == 0
    assert "demo: equal comparison_bytes" in capsys.readouterr().out


def test_compare_prints_roundoff_in_ulps_and_exits_0(tmp_path, capsys):
    """A value two ulps up moves the check's value and margin, the aggregate
    and one trial value; the verdict holds, so the exit status is 0."""
    bumped = np.nextafter(np.nextafter(0.5, 1.0), 1.0)
    old = write_reports(tmp_path / "a", demo_report())
    new = write_reports(tmp_path / "b", demo_report(value=float(bumped)))
    assert main(["compare", old, new]) == 0
    out = capsys.readouterr().out
    assert "demo: comparison_bytes differ" in out
    assert f"  check max: value 0.5 -> {float(bumped)!r} (+2 ulp), margin 0.5 -> " in out
    assert f"  aggregate max: 0.5 -> {float(bumped)!r} (+2 ulp)" in out
    assert "  trials: 1 of 2 values differ" in out
    assert "sizes" not in out and "param" not in out


def test_compare_gives_a_far_change_relative_and_names_a_renamed_check(tmp_path, capsys):
    old = write_reports(tmp_path / "a", demo_report())
    new = write_reports(tmp_path / "b", demo_report(value=0.6, name="top"))
    assert main(["compare", old, new]) == 0
    out = capsys.readouterr().out
    assert "  check max -> top: value 0.5 -> 0.6 (+1.67e-01 rel)" in out


def test_compare_fails_on_a_verdict_change(tmp_path, capsys):
    old = write_reports(tmp_path / "a", demo_report())
    new = write_reports(tmp_path / "b", demo_report(value=2.0))
    assert main(["compare", old, new]) == 1
    out = capsys.readouterr().out
    assert "  VERDICT PASS -> FAIL" in out
    assert "  check max: VERDICT PASS -> FAIL, value 0.5 -> 2.0" in out
    assert out.splitlines()[-1] == "1 suites: 0 equal, 1 differ, 0 missing, 2 verdict changes"


@pytest.mark.parametrize("side", ["old", "new"])
def test_compare_fails_on_a_missing_suite(tmp_path, capsys, side):
    both = write_reports(tmp_path / "both", demo_report("one"), demo_report("two"))
    one = write_reports(tmp_path / "one", demo_report("one"))
    args = [one, both] if side == "old" else [both, one]
    assert main(["compare", *args]) == 1
    assert f"two: missing from {side.upper()}" in capsys.readouterr().out


def test_compare_reads_reports_strictly(tmp_path, capsys):
    """A directory with no report, or a report with an unknown key, fails with
    error: and exit status 1, like every other malformed input."""
    good = write_reports(tmp_path / "a", demo_report())
    (tmp_path / "empty").mkdir()
    assert main(["compare", good, str(tmp_path / "empty")]) == 1
    assert "error: no suite reports" in capsys.readouterr().err
    bad = write_reports(tmp_path / "b", demo_report())
    payload = json.loads((tmp_path / "b" / "demo.json").read_text())
    write_json(tmp_path / "b" / "demo.json", {**payload, "extra": 1})
    assert main(["compare", good, bad]) == 1
    assert "'extra'" in capsys.readouterr().err

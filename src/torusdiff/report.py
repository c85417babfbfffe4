"""Structured verification reports and JSON serialization.

Every certificate and probe produces a SuiteReport; its JSON form is the
external contract of the package.  Serialization is canonical (sorted keys,
plain Python floats), so identical configurations and seeds reproduce
byte-identical payloads except for the wall-time field, which comparison
helpers strip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .diffeo import Diffeo, make_diffeo
from .grid import GridSpec, Spectrum

SCHEMA_VERSION = "1.0"
TIMING_FIELDS = ("wall_time_s",)


def _jsonable(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def _object(value, what: str) -> dict:
    """`value` if it is a JSON object; otherwise ValueError naming `what`."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _check_keys(payload: dict, keys, what: str, prefix: str = ""):
    """Raise ValueError for a non-object `payload`, naming every unknown or missing
    key, or a schema_version other than SCHEMA_VERSION where `keys` holds one."""
    _object(payload, f"{what} {prefix[:-1]!r}" if prefix else f"{what} payload")
    unknown, missing = set(payload) - set(keys), set(keys) - set(payload)
    for problem, names in (("unknown", unknown), ("missing", missing)):
        if names:
            listed = ", ".join(repr(prefix + k) for k in sorted(names))
            raise ValueError(f"{problem} {what} key(s): {listed}")
    if "schema_version" in keys and payload["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {payload['schema_version']!r}")


def dump_json(payload: dict, path=None) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_jsonable,
                      allow_nan=False) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def check(name: str, value, bound, sense: str) -> dict:
    """`value` `sense` `bound` as a named record, sense being "<", "<=", ">=" or "in"
    (an inclusive [lo, hi]).  It holds when its headroom is >= 0 (> 0 under "<"); its
    margin is the headroom over |bound| (over hi - lo), raw where that scale is 0."""
    if sense == "in":
        headroom, scale = min(value - bound[0], bound[1] - value), bound[1] - bound[0]
    else:
        headroom, scale = (value - bound if sense == ">=" else bound - value), abs(bound)
    return {"name": name, "value": value, "bound": bound, "sense": sense,
            "pass": bool(headroom > 0 if sense == "<" else headroom >= 0),
            "margin": headroom / scale if scale else headroom}


@dataclass
class SuiteReport:
    """Pass/fail record of one suite: its measured quantities and `check`s."""

    suite: str
    params: dict
    trials: list = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    passed: bool = False
    wall_time_s: float = 0.0
    schema_version: str = SCHEMA_VERSION

    def to_dict(self) -> dict:
        """Every field under its own name, but `passed` under "pass"."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["pass"] = payload.pop("passed")
        return payload

    def to_json(self, path=None) -> str:
        return dump_json(self.to_dict(), path)

    def comparison_bytes(self) -> bytes:
        """Canonical payload with timing fields removed."""
        payload = self.to_dict()
        for key in TIMING_FIELDS:
            payload.pop(key, None)
        return dump_json(payload).encode()

    @classmethod
    def from_dict(cls, payload: dict) -> "SuiteReport":
        """Inverse of to_dict; a missing or unknown key, or a schema version
        other than SCHEMA_VERSION, raises ValueError."""
        _check_keys(payload, cls("", {}).to_dict(), "report")
        return cls(**{"passed" if key == "pass" else key: value for key, value in payload.items()})


_CERTIFICATE_KEYS = (
    "min_det", "max_grad", "min_det_floor", "contraction_certified", "mean_displacement"
)


def spectrum_to_dict(F: Spectrum) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "spectrum",
        "grid": {"dim": F.spec.dim, "size": F.spec.size},
        "components": F.num_components,
        "coeffs_re": F.coeffs.real.tolist(),
        "coeffs_im": F.coeffs.imag.tolist(),
    }


def _numbers(payload: dict, key: str) -> np.ndarray:
    """payload[key] as a float64 array; ValueError naming `key` unless it is a
    (nested) list of numbers.  Ragged nesting raises in np.asarray."""
    arr = np.asarray(payload[key])
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{key!r} must hold numbers only, got {payload[key]!r:.60}")
    return arr.astype(np.float64)


def _stored_spectrum(payload: dict, kind: str, keys: tuple, coeffs: str) -> Spectrum:
    """The Spectrum a `kind` payload holds as <coeffs>_re/_im, once its kind
    and keys (the grid's too) check out; see _check_keys."""
    if _object(payload, f"{kind} payload").get("kind") != kind:
        raise ValueError(f"expected a {kind} payload, got kind={payload.get('kind')!r}")
    _check_keys(payload, ("schema_version", "kind", "grid") + keys, kind)
    _check_keys(payload["grid"], ("dim", "size"), kind, "grid.")
    spec = GridSpec(payload["grid"]["dim"], payload["grid"]["size"])
    parts = [_numbers(payload, f"{coeffs}_{p}") for p in ("re", "im")]
    # (re, im) pairs viewed as complex: re + 1j * im would turn -0.0 into 0.0
    return Spectrum(spec, np.stack(parts, axis=-1).view(np.complex128)[..., 0])


def spectrum_from_dict(payload: dict) -> Spectrum:
    """Inverse of spectrum_to_dict; also rejects a `components` that the
    stored coefficients do not have."""
    F = _stored_spectrum(payload, "spectrum", ("components", "coeffs_re", "coeffs_im"), "coeffs")
    if F.num_components != payload["components"]:
        raise ValueError(f"components {payload['components']!r} != {F.num_components} stored")
    return F


def diffeo_to_dict(phi: Diffeo) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "diffeo",
        "grid": {"dim": phi.dim, "size": phi.spec.size},
        "displacement_re": phi.displacement.coeffs.real.tolist(),
        "displacement_im": phi.displacement.coeffs.imag.tolist(),
        "certificate": {
            "min_det": phi.min_det,
            "max_grad": phi.max_grad,
            "min_det_floor": phi.min_det_floor,
            "contraction_certified": phi.contraction_certified,
            "mean_displacement": phi.mean_displacement.tolist(),
        },
    }


def diffeo_from_dict(payload: dict) -> Diffeo:
    """Rebuild and re-certify under the stored floor and contraction flag; the
    stored min_det and max_grad are advisory only.  Every key is required."""
    top = {k: v for k, v in _object(payload, "diffeo payload").items() if k != "certificate"}
    u = _stored_spectrum(top, "diffeo", ("displacement_re", "displacement_im"), "displacement")
    cert = payload.get("certificate", {})
    _check_keys(cert, _CERTIFICATE_KEYS, "diffeo", "certificate.")
    for key in ("min_det", "max_grad", "min_det_floor", "contraction_certified"):
        flag = key == "contraction_certified"  # the one boolean; a bool is no number
        if isinstance(cert[key], bool) != flag or not isinstance(cert[key], (int, float)):
            want = "true or false" if flag else "a number"
            raise ValueError(f"'certificate.{key}' must be {want}, got {cert[key]!r:.60}")
    _numbers(cert, "mean_displacement")
    return make_diffeo(
        u,
        min_det_floor=cert["min_det_floor"],
        check_contraction=cert["contraction_certified"],
    )


def load_field(path) -> Spectrum:
    with open(path) as fh:
        return spectrum_from_dict(json.load(fh))


def load_diffeo(path) -> Diffeo:
    with open(path) as fh:
        return diffeo_from_dict(json.load(fh))

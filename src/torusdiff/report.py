"""Structured verification reports and JSON serialization.

Every certificate and probe produces a SuiteReport; its JSON form is the
external contract of the package.  Serialization is canonical (sorted keys,
plain Python floats), so identical configurations and seeds reproduce
byte-identical payloads except for the wall-time field, which comparison
helpers strip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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


def dump_json(payload: dict, path=None) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_jsonable) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


@dataclass
class SuiteReport:
    """Pass/fail record of one suite with its measured quantities."""

    suite: str
    params: dict
    trials: list = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)
    passed: bool = False
    wall_time_s: float = 0.0
    schema_version: str = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "suite": self.suite,
            "params": self.params,
            "trials": self.trials,
            "aggregate": self.aggregate,
            "pass": self.passed,
            "wall_time_s": self.wall_time_s,
        }

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
        keys = set(cls("", {}).to_dict())
        unknown = sorted(set(payload) - keys)
        if unknown:
            raise ValueError(f"unknown report key(s): {', '.join(map(repr, unknown))}")
        missing = sorted(keys - set(payload))
        if missing:
            raise ValueError(f"missing report key(s): {', '.join(map(repr, missing))}")
        if payload["schema_version"] != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {payload['schema_version']!r}")
        return cls(
            suite=payload["suite"],
            params=payload["params"],
            trials=payload["trials"],
            aggregate=payload["aggregate"],
            passed=payload["pass"],
            wall_time_s=payload["wall_time_s"],
            schema_version=payload["schema_version"],
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


def spectrum_from_dict(payload: dict) -> Spectrum:
    if payload.get("kind") != "spectrum":
        raise ValueError(f"expected a spectrum payload, got kind={payload.get('kind')!r}")
    spec = GridSpec(payload["grid"]["dim"], payload["grid"]["size"])
    coeffs = np.asarray(payload["coeffs_re"], dtype=np.float64) + 1j * np.asarray(
        payload["coeffs_im"], dtype=np.float64
    )
    return Spectrum(spec, coeffs)


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
    """Rebuild and re-certify under the stored floor and contraction flag,
    both required; the stored min_det and max_grad are advisory only."""
    if payload.get("kind") != "diffeo":
        raise ValueError(f"expected a diffeo payload, got kind={payload.get('kind')!r}")
    spec = GridSpec(payload["grid"]["dim"], payload["grid"]["size"])
    coeffs = np.asarray(payload["displacement_re"], dtype=np.float64) + 1j * np.asarray(
        payload["displacement_im"], dtype=np.float64
    )
    cert = payload.get("certificate", {})
    missing = [k for k in ("min_det_floor", "contraction_certified") if k not in cert]
    if missing:
        names = ", ".join(f"'certificate.{k}'" for k in missing)
        raise ValueError(f"missing diffeo key(s): {names}")
    return make_diffeo(
        Spectrum(spec, coeffs),
        min_det_floor=cert["min_det_floor"],
        check_contraction=cert["contraction_certified"],
    )


def load_field(path) -> Spectrum:
    with open(path) as fh:
        return spectrum_from_dict(json.load(fh))


def load_diffeo(path) -> Diffeo:
    with open(path) as fh:
        return diffeo_from_dict(json.load(fh))

"""Named verification suites and the configuration-driven runner.

Each suite exercises one certified statement of the torus calculus at desk
scale and returns its named checks (`report.check`); `run_suite` names, times
and reports it, passing it when every check holds.  Suites draw every random
object from seeds recorded in their parameters, so reports are reproducible
bit for bit.  The norm and algebra suites draw their trials as the rows of one
field and take one norm per size; the others run trials one after another.
"""

from __future__ import annotations

import numbers
import sys
import time

import numpy as np

from . import calculus, geodesic
from .algebra import divide, multiply, one_plus, quotient_rule_residual, uset_membership
from .diffeo import (
    chain_rule_residual,
    compose_diffeo,
    compose_function,
    gradient_sup,
    inverse_derivative_residual,
    invert,
    make_diffeo,
)
from .grid import (
    GridFunction,
    GridSpec,
    Spectrum,
    differentiate,
    forward_transform,
    fourier_truncate,
    inverse_transform,
    random_field,
    refine,
)
from .norms import (
    cr_norm_rows,
    embedding_constant,
    hs_norm,
    hs_norm_derivative_rows,
    hs_norm_rows,
    norm_equivalence_constant,
    slobodeckij_seminorm,
)
from .report import SCHEMA_VERSION, SuiteReport, check

TWO_PI = 2.0 * np.pi

# what a suite returns: (params, trials, aggregate, checks); only run_suite makes a verdict
SuiteResult = tuple[dict, list, dict, list]


_PAIRS = ("eps", "ratio_band", "d0_band", "rk4_band")  # exactly two numbers
# integer keys and their least values; an _INTEGER_LISTS key holds a list of them
_INTEGERS = {"trials": 1, "pairs": 1, "seed": 0, "octaves": 2}
_INTEGER_LISTS = {"seeds": 0, "r_values": 1}


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(value, low: int) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


def _apply_params(p: dict, params: dict, *tolerances: str, **least: int):
    """Override a suite's defaults `p` in place; a key it lacks raises, and so do an
    empty list, an _INTEGERS or `least` key that is no integer >= its least value,
    an _INTEGER_LISTS entry that is no such integer, a non-null `k_max` or
    `tolerances` entry that is no real number (or is not positive), a _PAIRS entry
    that is no two real numbers and a band (a _PAIRS key but eps) high to low."""
    unknown = sorted(set(params) - set(p))
    if unknown:
        names = ", ".join(repr(key) for key in unknown)
        raise ValueError(f"unknown parameter {names}; known: {sorted(p)}")
    p.update(params)
    empty = [key for key, value in p.items() if isinstance(value, (list, tuple)) and not value]
    if empty:
        raise ValueError(f"parameter {empty[0]!r} must not be an empty list")
    for key, low in {**_INTEGERS, **least}.items():
        value = p.get(key, low)  # a suite without the key passes
        if not _integer(value, low):
            raise ValueError(f"parameter {key!r} must be an integer >= {low}, got {value!r}")
    for key, low in _INTEGER_LISTS.items():
        values = p.get(key, [])
        if not isinstance(values, (list, tuple)) or not all(_integer(v, low) for v in values):
            raise ValueError(
                f"parameter {key!r} must be a list of integers >= {low}, got {values!r}")
    if p.get("k_max") is not None and not _real(p["k_max"]):
        raise ValueError(f"parameter 'k_max' must be a real number or null, got {p['k_max']!r}")
    _require_positive(p, tolerances)
    for key in (k for k in _PAIRS if k in params):
        if not isinstance(p[key], (list, tuple)) or len(p[key]) != 2:
            raise ValueError(f"parameter {key!r} must have exactly 2 entries, got {p[key]}")
        if not all(map(_real, p[key])):
            raise ValueError(f"parameter {key!r} must hold two real numbers, got {p[key]!r}")
        if key != "eps" and p[key][0] > p[key][1]:
            raise ValueError(f"parameter {key!r} must be [lo, hi] with lo <= hi, got {p[key]}")


def _require_positive(params: dict, keys: tuple[str, ...]):
    for key in keys:
        value = params[key]
        entries = value if key in _PAIRS and isinstance(value, (list, tuple)) else [value]
        if not all(map(_real, entries)):
            kind = "real numbers" if entries is value else "a real number"
            raise ValueError(f"tolerance {key!r} must be {kind}, got {value!r}")
        if not all(entry > 0 for entry in entries):
            raise ValueError(f"tolerance {key!r} must be positive, got {value}")
        if not all(entry >= sys.float_info.min for entry in entries):  # margins divide by it
            raise ValueError(f"tolerance {key!r} must be a normal float, got {value}")


def _sine_displacement(spec: GridSpec, amplitude: float) -> Spectrum:
    """u(x) = amplitude * sin(2 pi x) as a displacement spectrum (dim 1)."""
    coeffs = np.zeros((1,) + spec.shape, dtype=np.complex128)
    coeffs[0, 1] = amplitude / (2.0 * 1j)
    coeffs[0, -1] = -amplitude / (2.0 * 1j)
    return Spectrum(spec, coeffs)


def _cosine_field(spec: GridSpec, k: int, amplitude: float = 1.0) -> GridFunction:
    x = spec.axis_coordinates()
    return GridFunction(spec, amplitude * np.cos(TWO_PI * k * x)[None])


def random_certified_displacement(
    spec: GridSpec, seed: int, modes: int, amplitude: float
) -> Spectrum:
    """Band-limited random H^3 displacement scaled to sup|du|_op = amplitude."""
    w = random_field(spec, 3.0, seed, components=spec.dim)
    w = fourier_truncate(w, modes)
    top = gradient_sup(w)
    if top == 0.0:
        raise ValueError("degenerate random displacement")
    return Spectrum(spec, (amplitude / top) * w.coeffs)


# ---------------------------------------------------------------------------
# norm suites


def run_norm_equivalence(params: dict) -> SuiteResult:
    p = {
        "s_values": [1, 2],
        "size": 64,
        "dim": 1,
        "trials": 100,
        "seed": 1,
        "tol_identity": 1e-10,
        "tol_bracket": 1e-12,
    }
    _apply_params(p, params, "tol_identity", "tol_bracket")
    spec = GridSpec(p["dim"], p["size"])
    seeds = [p["seed"] + i for i in range(p["trials"])]
    trials, aggregate, checks = [], {}, []
    for s in p["s_values"]:
        bound = norm_equivalence_constant(s, spec.dim)
        F = random_field(spec, float(s), seeds)  # one row per trial
        ratios = (hs_norm_rows(F, float(s), len(seeds))
                  / hs_norm_derivative_rows(inverse_transform(F), s, len(seeds)))
        records = [{"s": s, "seed": seed, "ratio": float(r)} for seed, r in zip(seeds, ratios)]
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        if s <= 1:
            ours = [check(f"s={s} identity", float(np.max(np.abs(ratios - 1.0))),
                          p["tol_identity"], "<")]
        else:
            ours = [check(f"s={s} lower", lo, 1.0 - p["tol_bracket"], ">="),
                    check(f"s={s} upper", hi, bound * (1.0 + p["tol_bracket"]), "<=")]
        aggregate[f"s={s}"] = {"min_ratio": lo, "max_ratio": hi, "bound": bound,
                               "pass": all(c["pass"] for c in ours)}
        trials.extend(records)
        checks += ours
    return p, trials, aggregate, checks


def run_embedding(params: dict) -> SuiteResult:
    p = {
        "s": 1.0,
        "r": 0,
        "size": 64,
        "dim": 1,
        "trials": 100,
        "seed": 3,
    }
    _apply_params(p, params)
    spec = GridSpec(p["dim"], p["size"])
    bound = embedding_constant(spec, p["s"])
    seeds = [p["seed"] + i for i in range(p["trials"])]
    F = random_field(spec, p["s"] + p["r"], seeds)  # one row per trial
    ratios = [float(r) for r in cr_norm_rows(inverse_transform(F), p["r"], len(seeds))
              / hs_norm_rows(F, p["s"] + p["r"], len(seeds))]
    records = [{"seed": seed, "ratio": ratio} for seed, ratio in zip(seeds, ratios)]
    aggregate = {
        "max_ratio": max(ratios),
        "min_ratio": min(ratios),
        "bound": bound,
        "violations": int(sum(r > bound for r in ratios)),
    }
    return p, records, aggregate, [check("max_ratio", max(ratios), bound, "<=")]


def run_algebra(params: dict) -> SuiteResult:
    p = {
        "s": 2.0,
        "s_prime": 1.0,
        "sizes": [64, 128, 256],
        "dim": 1,
        "trials": 200,
        "seed": 9,
        "stability": 0.10,
        "k_max": None,
    }
    _apply_params(p, params, "stability")
    if len(set(p["sizes"])) < 2:
        raise ValueError(f"parameter 'sizes' needs two distinct sizes, got {p['sizes']}")
    envelopes = {}
    trials = []
    n, seeds = p["trials"], [p["seed"] + i for i in range(2 * p["trials"])]
    for size in p["sizes"]:
        spec = GridSpec(p["dim"], size)
        f = random_field(spec, p["s"], seeds[0::2])  # trial i: rows i of f and g
        g = random_field(spec, p["s_prime"], seeds[1::2])
        fg = multiply(inverse_transform(f), inverse_transform(g))
        ratios = (hs_norm_rows(forward_transform(fg), p["s_prime"], n)
                  / (hs_norm_rows(f, p["s"], n) * hs_norm_rows(g, p["s_prime"], n)))
        envelopes[size] = float(np.max(ratios))
        trials.append({"size": size, "envelope": envelopes[size]})
    values = np.array(list(envelopes.values()))
    mean = float(np.mean(values))
    spread = float(np.max(np.abs(values - mean)) / mean)
    checks = [check("relative_spread", spread, p["stability"], "<=")]
    if p["k_max"] is not None:
        checks.append(check("max_envelope", float(np.max(values)), p["k_max"], "<="))
    aggregate = {
        "envelopes": {str(k): v for k, v in envelopes.items()},
        "mean": mean,
        "relative_spread": spread,
        "stability": p["stability"],
        "k_max": p["k_max"],
    }
    return p, trials, aggregate, checks


def run_quotient_rule(params: dict) -> SuiteResult:
    p = {
        "size": 128,
        "epsilon": 0.5,
        "seed": 21,
        "tol_bundled": 1e-8,
        "tol_closure": 1e-8,
        "tol_random_scale": 1e-6,
    }
    _apply_params(p, params, "tol_bundled", "tol_closure", "tol_random_scale")
    spec = GridSpec(1, p["size"])
    x = spec.axis_coordinates()
    bundled = GridFunction(spec, (0.2 * np.sin(TWO_PI * x))[None])
    res_bundled = quotient_rule_residual(bundled, bundled, p["epsilon"])

    f_rand = inverse_transform(
        fourier_truncate(random_field(spec, 2.0, p["seed"]), spec.size // 4)
    )
    g_raw = inverse_transform(
        fourier_truncate(random_field(spec, 2.0, p["seed"] + 1), spec.size // 4)
    )
    g_rand = GridFunction(spec, 0.3 * g_raw.values / np.max(np.abs(g_raw.values)))
    res_random = quotient_rule_residual(f_rand, g_rand, p["epsilon"])
    fb = forward_transform(f_rand)
    gb = forward_transform(g_rand)
    scale = (
        (1.0 + hs_norm(fb, 2.0)) * (1.0 + hs_norm(gb, 2.0)) ** 2 * p["tol_random_scale"]
    )

    closure = divide(multiply(f_rand, one_plus(g_rand)), g_rand, p["epsilon"])
    res_closure = float(np.max(np.abs(closure.values - f_rand.values)))

    trials = [
        {"case": "bundled", "residual": res_bundled, "tol": p["tol_bundled"]},
        {"case": "random", "residual": res_random, "tol": scale},
        {"case": "closure", "residual": res_closure, "tol": p["tol_closure"]},
    ]
    aggregate = {
        "max_residual": max(t["residual"] for t in trials),
        "inf_one_plus_g": uset_membership(g_rand, p["epsilon"]).inf_value,
    }
    return p, trials, aggregate, [check(f"{t['case']} residual", t["residual"], t["tol"], "<")
                                  for t in trials]


# ---------------------------------------------------------------------------
# group and calculus suites


def run_group(params: dict) -> SuiteResult:
    p = {
        "size": 256,
        "dim": 1,
        "trials": 20,
        "seed": 13,
        "amplitude": 0.2,
        "tol_identity": 1e-10,
        "tol_residual": 1e-7,
    }
    _apply_params(p, params, "tol_identity", "tol_residual")
    spec = GridSpec(p["dim"], p["size"])
    u_modes = spec.size // 16
    f_modes = spec.size // 8
    records = []
    for i in range(p["trials"]):
        u = random_certified_displacement(
            spec, p["seed"] + i, u_modes, p["amplitude"]
        )
        phi = make_diffeo(u)
        psi = invert(phi)
        id_defect = float(np.max(np.abs(compose_diffeo(phi, psi).disp_values)))
        f = fourier_truncate(
            random_field(spec, 3.0, p["seed"] + 500 + i), f_modes
        )
        chain = chain_rule_residual(f, phi)
        inv_res = inverse_derivative_residual(phi, psi=psi)
        records.append(
            {
                "trial": i,
                "min_det": phi.min_det,
                "identity_defect": id_defect,
                "chain_rule_residual": chain,
                "inverse_derivative_residual": inv_res,
            }
        )
    keys = ("identity_defect", "chain_rule_residual", "inverse_derivative_residual")
    aggregate = {f"max_{key}": max(rec[key] for rec in records) for key in keys}
    tols = (p["tol_identity"], p["tol_residual"], p["tol_residual"])
    return p, records, aggregate, [check(name, aggregate[name], tol, "<")
                                   for name, tol in zip(aggregate, tols)]


def _bundled_calculus_data(spec: GridSpec):
    """Analytic base data for the Taylor suites: u, phi, du, dphi."""
    x = spec.axis_coordinates()
    u = forward_transform(GridFunction(spec, np.sin(TWO_PI * x)[None]))
    phi = make_diffeo(_sine_displacement(spec, 0.05))
    du = forward_transform(GridFunction(spec, (0.02 * np.cos(2 * TWO_PI * x))[None]))
    dphi = _cosine_field(spec, 1, 0.01)
    return u, phi, du, dphi


def run_taylor_identity(params: dict) -> SuiteResult:
    p = {
        "size": 256,
        "r_values": [1, 2],
        "s": 2.0,
        "tol_scale": 1e-7,
    }
    _apply_params(p, params, "tol_scale")
    spec = GridSpec(1, p["size"])
    u, phi, du, dphi = _bundled_calculus_data(spec)
    defects = calculus.taylor_defect(u, phi, du, dphi, p["r_values"])
    trials = [{"r": r, "defect": defect, "tol": p["tol_scale"] * (1.0 + hs_norm(u, p["s"] + r))}
              for r, defect in zip(p["r_values"], defects)]
    aggregate = {"max_defect": max(t["defect"] for t in trials)}
    return p, trials, aggregate, [check(f"r={t['r']} defect", t["defect"], t["tol"], "<")
                                  for t in trials]


def run_taylor_order(params: dict) -> SuiteResult:
    p = {
        "size": 256,
        "r_values": [1, 2],
        "seeds": [101, 102, 103],
        "s": 2.0,
        "slope_margin": 0.9,
    }
    _apply_params(p, params, "slope_margin")
    spec = GridSpec(1, p["size"])
    u, phi, _, _ = _bundled_calculus_data(spec)
    by_seed = []  # per seed, a record per r: the orders share the seed's path maps
    for seed in p["seeds"]:
        orders = []
        for r in p["r_values"]:
            du_dir = fourier_truncate(random_field(spec, p["s"] + r, seed), 8)
            orders.append((r, Spectrum(spec, du_dir.coeffs / hs_norm(du_dir, p["s"] + r))))
        dphi_dir = inverse_transform(random_certified_displacement(spec, seed + 7, 8, 0.5))
        by_seed.append(calculus.remainder_order_probe(u, phi, dphi_dir, orders, s=p["s"]))
    records = [{"r": rec["order"], "direction": i, "seed": seed, **rec}  # in (r, seed) order
               for per_r in zip(*by_seed) for i, (seed, rec) in enumerate(zip(p["seeds"], per_r))]
    aggregate = {  # named by direction, not seed, so a check keeps its name at every seed
        "slopes": {f"r={rec['r']},direction={rec['direction']}": rec["slope"] for rec in records}
    }
    checks = []
    for name, rec in zip(aggregate["slopes"], records):
        if not rec["degenerate"]:  # an identically zero direction is vacuous
            decay = max(b / a for a, b in zip(rec["norms"], rec["norms"][1:]))
            checks += [check(f"{name} monotone", decay, 1.0, "<"),
                       check(f"{name} slope", rec["slope"], rec["r"] + p["slope_margin"], ">=")]
    return p, records, aggregate, checks


def run_inverse_differential(params: dict) -> SuiteResult:
    p = {
        "size": 256,
        "amplitude": 0.1,
        "eps": [1e-3, 5e-4],
        "ratio_band": [3.5, 4.5],
    }
    _apply_params(p, params, "eps", "ratio_band")
    spec = GridSpec(1, p["size"])
    phi = make_diffeo(_sine_displacement(spec, p["amplitude"]))
    psi = invert(phi)
    dphi = _cosine_field(spec, 1)
    errors = [
        calculus.inv_differential_fd_error(phi, dphi, eps, psi=psi) for eps in p["eps"]
    ]
    ratio = errors[0] / errors[1]
    trials = [
        {"eps": eps, "fd_error": err} for eps, err in zip(p["eps"], errors)
    ]
    aggregate = {"richardson_ratio": ratio, "band": list(p["ratio_band"])}
    return p, trials, aggregate, [check("richardson_ratio", ratio, aggregate["band"], "in")]


def run_lipschitz(params: dict) -> SuiteResult:
    p = {
        "size": 128,
        "s": 2.0,
        "trials": 50,
        "seed": 31,
        "radius": 0.05,
        "stability": 0.15,
    }
    _apply_params(p, params, "radius", "stability")
    spec = GridSpec(1, p["size"])
    x = spec.axis_coordinates()
    f = forward_transform(
        GridFunction(spec, (np.sin(TWO_PI * x) + 0.3 * np.cos(2 * TWO_PI * x))[None])
    )
    phi0 = make_diffeo(_sine_displacement(spec, 0.05))
    radii = (p["radius"], p["radius"] / 2.0)
    quots = calculus.right_translation_quotients(f, phi0, radii, p["trials"], p["seed"], p["s"])
    maxima = {radius: max(q) for radius, q in zip(radii, quots)}
    vals = list(maxima.values())
    change = abs(vals[0] - vals[1]) / vals[0]
    trials = [{"radius": r, "max_quotient": v} for r, v in maxima.items()]
    aggregate = {"relative_change": change, "stability": p["stability"]}
    return p, trials, aggregate, [check("relative_change", change, p["stability"], "<=")]


def run_loss_of_derivative(params: dict) -> SuiteResult:
    p = {
        "size": 256,
        "s": 2.0,
        "octaves": 5,
        "base_amplitude": 0.09,
        "growth_min": 1.5,
        "right_band": 0.20,
    }
    _apply_params(p, params, "growth_min", "right_band")
    spec = GridSpec(1, p["size"])
    phi = make_diffeo(_sine_displacement(spec, p["base_amplitude"]))
    dphi_dir = _cosine_field(spec, 1)
    data = calculus.loss_of_derivative_probe(
        phi, dphi_dir, p["s"], octaves=p["octaves"]
    )
    right = np.array(data["right_quotients"])
    median = float(np.median(right))
    checks = [
        check("min_growth_factor", min(data["growth_factors"]), p["growth_min"], ">="),
        check("right_deviation", float(np.max(np.abs(right - median))),
              p["right_band"] * median, "<="),
    ]
    aggregate = {
        "growth_factors": data["growth_factors"],
        "right_quotients": data["right_quotients"],
        "right_median": median,
    }
    return p, [data], aggregate, checks


# ---------------------------------------------------------------------------
# geodesic and fractional suites


def run_geodesic(params: dict) -> SuiteResult:
    p = {
        "size": 64,
        "seed": 19,
        "steps": 256,
        "scaling_steps": 512,
        "tol_flat": 1e-12,
        "tol_scaling": 1e-8,
        "tol_energy": 1e-8,
        "d0_band": [1.7, 2.3],
        "rk4_band": [3.7, 4.3],
    }
    # N >= 16 for the |k| <= 8 velocity fields; RK4 takes at least MIN_STEPS
    _apply_params(p, params, "tol_flat", "tol_scaling", "tol_energy",
                  size=16, steps=geodesic.MIN_STEPS, scaling_steps=geodesic.MIN_STEPS)
    spec = GridSpec(1, p["size"])
    x = spec.axis_coordinates()
    trials = []

    # Flat metric: exp is literal translation.
    flat = geodesic.flat_metric(1)
    f1 = GridFunction(spec, x[None])
    y1 = inverse_transform(
        fourier_truncate(random_field(spec, 3.0, p["seed"]), 8)
    )
    moved = geodesic.exp_field(flat, f1, y1, steps=p["steps"])
    flat_defect = float(np.max(np.abs(moved.values - (f1.values + y1.values))))
    trials.append({"check": "flat_exactness", "defect": flat_defect})

    # Conformal plane: points along a closed curve, small random velocities.
    conf = geodesic.conformal_metric_2d()
    curve = GridFunction(
        spec,
        np.stack([x, 0.3 + 0.2 * np.sin(TWO_PI * x)]),
    )
    vel_raw = inverse_transform(
        fourier_truncate(
            random_field(spec, 3.0, p["seed"] + 4, components=2), 8
        )
    )
    vel = GridFunction(spec, 0.3 * vel_raw.values / np.max(np.abs(vel_raw.values)))

    lams = (0.5, 0.3)
    scaling_defects = dict(
        zip(lams, geodesic.scaling_defect(conf, curve, vel, lams, steps=p["scaling_steps"]))
    )
    trials.append({"check": "scaling", "defects": scaling_defects})

    eps_ladder = (1e-2, 5e-3, 2.5e-3)
    d0_errors = geodesic.d0_exp_error(conf, curve, vel, eps_ladder, steps=p["steps"])
    d0_ratios = [a / b for a, b in zip(d0_errors, d0_errors[1:])]
    trials.append({"check": "d0_exp", "errors": d0_errors, "ratios": d0_ratios})

    probe_points = curve.flat_points_values()[:: max(1, spec.size // 8)]
    probe_vels = vel.flat_points_values()[:: max(1, spec.size // 8)]
    traj = geodesic.geodesic_flow(conf, probe_points, probe_vels, T=1.0, steps=p["steps"])
    e = traj.energies(conf)  # (steps + 1, probes)
    energy_drift = float(np.max(np.max(np.abs(e - e[0]), axis=0) / np.abs(e[0])))
    trials.append({"check": "energy", "max_relative_drift": energy_drift})

    _, rk4_slope = geodesic.rk4_order_errors(conf, probe_points[1], probe_vels[1])
    trials.append({"check": "rk4_order", "slope": rk4_slope})

    checks = [
        check("flat_defect", flat_defect, p["tol_flat"], "<"),
        *(check(f"scaling_defect lam={lam}", v, p["tol_scaling"], "<")
          for lam, v in scaling_defects.items()),
        *(check(f"d0_ratio {i}", r, p["d0_band"], "in") for i, r in enumerate(d0_ratios)),
        check("energy_drift", energy_drift, p["tol_energy"], "<"),
        check("rk4_slope", rk4_slope, p["rk4_band"], "in"),
    ]
    aggregate = {
        "flat_defect": flat_defect,
        "scaling_defects": {str(k): v for k, v in scaling_defects.items()},
        "d0_ratios": d0_ratios,
        "energy_drift": energy_drift,
        "rk4_slope": rk4_slope,
    }
    return p, trials, aggregate, checks


def run_fractional(params: dict) -> SuiteResult:
    p = {
        "size": 256,
        "oracle_size": 2048,
        "lam": 0.5,
        "pairs": 20,
        "seed": 5,
        "oracle_rel_tol": 0.02,
        "slack": 1.05,
    }
    _apply_params(p, params, "oracle_rel_tol", "slack")
    spec = GridSpec(1, p["size"])
    fine_spec = GridSpec(1, p["oracle_size"])
    lam = p["lam"]

    x = spec.axis_coordinates()
    base = np.sin(TWO_PI * x)
    xf = fine_spec.axis_coordinates()
    value = slobodeckij_seminorm(GridFunction(spec, base[None]), lam)
    oracle = slobodeckij_seminorm(
        GridFunction(fine_spec, np.sin(TWO_PI * xf)[None]), lam
    )
    oracle_rel = abs(value - oracle) / oracle
    records = []
    for i in range(p["pairs"]):
        f = inverse_transform(
            fourier_truncate(
                random_field(spec, 2.0, p["seed"] + 2 * i), spec.size // 8
            )
        )
        u = random_certified_displacement(spec, p["seed"] + 2 * i + 1, 8, 0.25)
        phi = make_diffeo(u)
        lhs = slobodeckij_seminorm(compose_function(forward_transform(f), phi), lam)
        dphi_fine = 1.0 + refine(differentiate(phi.displacement, 0), 4).values
        M = float(np.min(dphi_fine))
        L = float(np.max(np.abs(dphi_fine)))
        rhs = (1.0 / M) * L ** (0.5 + lam) * slobodeckij_seminorm(f, lam)
        records.append({"pair": i, "lhs": lhs, "bound": rhs, "ratio": lhs / rhs})
    worst = max(rec["ratio"] for rec in records)
    checks = [check("oracle_relative_error", oracle_rel, p["oracle_rel_tol"], "<="),
              check("max_bound_ratio", worst, p["slack"], "<=")]
    aggregate = {
        "oracle_relative_error": oracle_rel,
        "max_bound_ratio": worst,
        "slack": p["slack"],
    }
    trials = [{"check": "oracle", "relative_error": oracle_rel}] + records
    return p, trials, aggregate, checks


# ---------------------------------------------------------------------------
# registry and runner

SUITES = {
    "norm-equivalence": run_norm_equivalence,
    "embedding": run_embedding,
    "algebra": run_algebra,
    "quotient-rule": run_quotient_rule,
    "group": run_group,
    "taylor-identity": run_taylor_identity,
    "taylor-order": run_taylor_order,
    "inverse-differential": run_inverse_differential,
    "lipschitz": run_lipschitz,
    "loss-of-derivative": run_loss_of_derivative,
    "geodesic": run_geodesic,
    "fractional": run_fractional,
}

_PARAM_ALIASES = {"N": "size", "grid": "size"}


def normalize_params(raw: dict) -> dict:
    out = {_PARAM_ALIASES.get(key, key): value for key, value in raw.items()}
    if len(out) < len(raw):  # an alias and `size`, or two aliases, were both given
        keys = [key for key in raw if _PARAM_ALIASES.get(key, key) == "size"]
        raise ValueError(f"params {', '.join(map(repr, keys))} all name 'size'")
    return out


def parse_config(payload: dict) -> list[dict]:
    """Validate a config payload and return the suite entries."""
    if not isinstance(payload, dict) or not isinstance(payload.get("suites"), list):
        raise ValueError(f"config must be a JSON object with a 'suites' list, got {payload!r}")
    entries = []
    for entry in payload["suites"]:
        if not isinstance(entry, dict):
            raise ValueError(f"config entry must be a JSON object, got {entry!r}")
        if "suite" not in entry:
            raise ValueError(f"config entry missing 'suite': {entry}")
        name = entry["suite"]
        if not isinstance(name, str) or name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        params = {k: v for k, v in entry.items() if k != "suite"}  # run_suite checks these
        entries.append({"suite": name, "params": params})
    return entries


def default_config() -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "suites": [{"suite": name} for name in SUITES],
    }


def run_suite(name: str, params: dict | None = None) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    params = normalize_params(params or {})
    start = time.perf_counter()
    p, trials, aggregate, checks = SUITES[name](params)
    passed = all(c["pass"] for c in checks)
    return SuiteReport(name, p, trials, aggregate, checks, passed, time.perf_counter() - start)


def run_all(config: dict) -> tuple[list[SuiteReport], dict]:
    """Run every configured suite; errors fail the aggregate but not the run."""
    entries = parse_config(config)
    reports = []
    summary = {"schema_version": SCHEMA_VERSION, "suites": []}
    if not entries:
        summary["warning"] = "empty suite list: vacuous pass"
    for entry in entries:
        try:
            reports.append(run_suite(entry["suite"], entry["params"]))
            summary["suites"].append({"suite": entry["suite"], "pass": reports[-1].passed})
        except Exception as exc:  # noqa: BLE001 - surfaced in the summary
            summary["suites"].append({"suite": entry["suite"], "pass": False, "error": str(exc)})
    summary["pass"] = all(entry["pass"] for entry in summary["suites"])
    return reports, summary

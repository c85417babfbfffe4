"""Micro-timings of torusdiff's primitives, one process, single-threaded.

    python3 bench/run.py --out BENCH_16.json
    python3 bench/run.py --only evaluate/2d-    # a subset of the rows, by name prefix

Times `grid.evaluate`, `grid.refine`, the forward and inverse transforms,
Newton `invert`, `certify_stack`, RK4 geodesic stepping, the dealiased
`multiply`, the Taylor-expansion calls `taylor_defect` and
`remainder_order_probe`, `slobodeckij_seminorm`, a one-seed `random_field`
and thirteen suite runs on fixed seeded inputs (the rows below) and writes one JSON record: machine info, then per row the
median and quartiles of the seconds per call over RUNS runs (each run
times enough calls to last about 0.2 s); RK4 rows also give them per step.  BLAS and OpenMP are pinned
to one thread before numpy is imported, so rows measure the code, not the
thread pool.  It imports torusdiff from the `src/` next to this directory;
to measure another checkout, copy this file into that checkout's `bench/`
and run it there.
Not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import timeit
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from torusdiff.algebra import multiply  # noqa: E402
from torusdiff.calculus import remainder_order_probe, taylor_defect  # noqa: E402
from torusdiff.diffeo import certify_stack, invert, make_diffeo  # noqa: E402
from torusdiff.geodesic import conformal_metric_2d, exp_field, geodesic_flow  # noqa: E402
from torusdiff.grid import (  # noqa: E402
    GridFunction,
    GridSpec,
    Spectrum,
    evaluate,
    forward_transform,
    fourier_truncate,
    inverse_transform,
    random_field,
    refine,
)
from torusdiff.norms import hs_norm, slobodeckij_seminorm  # noqa: E402
from torusdiff.suites import (  # noqa: E402
    _bundled_calculus_data,
    random_certified_displacement,
    run_suite,
)

RUNS = 9  # timed runs per row

# (row name, dim, grid size N, number of points, band cutoff or None for full
# band, components): d = 4 is the four Jacobian entries that
# inverse_derivative_residual pulls back
EVALUATE_ROWS = [
    ("evaluate/1d-N256-P256", 1, 256, 256, None, 1),
    ("evaluate/2d-N64-P4096", 2, 64, 4096, None, 2),
    ("evaluate/2d-N64-P4096-d4", 2, 64, 4096, None, 4),
    ("evaluate/2d-N64-P4096-band4", 2, 64, 4096, 4, 2),
    ("evaluate/2d-N128-P16384", 2, 128, 16384, None, 2),
]

# (row name, dim, grid size N, refinement factor, components): `refine` of a
# full-band field, as the certificate refines a map's gradient
REFINE_ROWS = [
    ("refine/1d-N256-x4", 1, 256, 4, 1),
    ("refine/2d-N64-x4-d4", 2, 64, 4, 4),
]

# (row name, dim, grid size N): `forward_transform` of, or `inverse_transform`
# back to, a two-component field
TRANSFORM_ROWS = [
    ("forward_transform/1d-N256", 1, 256),
    ("forward_transform/2d-N64", 2, 64),
    ("inverse_transform/1d-N256", 1, 256),
    ("inverse_transform/2d-N64", 2, 64),
]

# (row name, dim, grid size N): Newton `invert` of, or `certify_stack` on, the
# group suite's map at its seed 13 (|k| <= N/16, sup|du|_op = 0.2)
MAP_ROWS = [
    ("invert/1d-N256", 1, 256),
    ("invert/2d-N64", 2, 64),
    ("invert/2d-N128", 2, 128),
    ("certify_stack/2d-N64", 2, 64),
]

# (row name, dim, grid size N, maps): `certify_stack` on the group suite's
# maps at seeds 13, 14, ... stacked: 8 is the group-t2 trial count, 17 the
# Taylor path's (16 Gauss-Legendre nodes and t = 1)
STACK_ROWS = [
    ("certify_stack/2d-N64x8", 2, 64, 8),
    ("certify_stack/1d-N256x17", 1, 256, 17),
]

# (row name, points, steps): RK4 on conformal_metric_2d, one geodesic through
# `geodesic_flow` (the suite's reference) or a 64 x 64 field through `exp_field`
RK4_ROWS = [
    ("rk4/geodesic_flow-P1-steps8192", 1, 8192),
    ("rk4/exp_field-P4096-steps64", 4096, 64),
]

# 1D rows at N = 256: `multiply` of two random H^2 fields; the taylor-identity
# suite's expansion (orders 1 and 2) on its bundled data; two scales (0.5 and
# 0.25) of the taylor-order suite's probe on that suite's seed-101 directions
CALCULUS_ROWS = [
    "multiply/1d-N256",
    "taylor_defect/1d-N256-r12",
    "remainder_order_probe/1d-N256-r12-two-scales",
]

# (row name, grid size N): `slobodeckij_seminorm` at lam = 0.5 of sin(2 pi x),
# the fractional suite's field and oracle sizes
SEMINORM_ROWS = [
    ("slobodeckij_seminorm/1d-N256", 256),
    ("slobodeckij_seminorm/1d-N2048", 2048),
]

# (row name, dim, grid size N): `random_field` at s = 2 with one seed
FIELD_ROWS = [
    ("random_field/1d-N256", 1, 256),
]

# (row name, suite, params): suites timed through `run_suite`, at their
# defaults but for `group-t2`, perfbench's group-t2 workload entry
SUITE_ROWS = [
    ("suite/algebra", "algebra", {}),
    ("suite/norm-equivalence", "norm-equivalence", {}),
    ("suite/embedding", "embedding", {}),
    ("suite/lipschitz", "lipschitz", {}),
    ("suite/fractional", "fractional", {}),
    ("suite/taylor-order", "taylor-order", {}),
    ("suite/taylor-identity", "taylor-identity", {}),
    ("suite/inverse-differential", "inverse-differential", {}),
    ("suite/loss-of-derivative", "loss-of-derivative", {}),
    ("suite/quotient-rule", "quotient-rule", {}),
    ("suite/geodesic", "geodesic", {}),
    ("suite/group", "group", {}),
    ("suite/group-t2", "group", {"dim": 2, "size": 64, "trials": 8}),
]


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu_model": model or platform.processor(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def time_row(fn, runs: int) -> dict:
    fn()  # warm-up: first-call allocations and imports
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    per_call = sorted(t / number for t in timer.repeat(repeat=runs, number=number))
    q1, median, q3 = statistics.quantiles(per_call, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "runs": runs, "calls_per_run": number}


def print_ms(name: str, row: dict):
    print(f"{name:32s} median {row['median_s'] * 1e3:9.3f} ms  "
          f"(q1 {row['q1_s'] * 1e3:.3f}, q3 {row['q3_s'] * 1e3:.3f}, n={row['runs']})")


def evaluate_rows(runs: int = RUNS) -> dict:
    out = {}
    for name, dim, size, num_points, band, components in EVALUATE_ROWS:
        spec = GridSpec(dim, size)
        F = random_field(spec, 2.0, 1, components=components)
        if band is not None:
            F = fourier_truncate(F, band)
        pts = np.random.default_rng(1).uniform(0.0, 1.0, (num_points, dim))
        row = time_row(lambda: evaluate(F, pts), runs)
        row.update(dim=dim, size=size, points=num_points, components=components, band=band)
        out[name] = row
        print_ms(name, row)
    return out


def refine_rows(runs: int = RUNS) -> dict:
    out = {}
    for name, dim, size, factor, components in REFINE_ROWS:
        F = random_field(GridSpec(dim, size), 2.0, 1, components=components)
        row = time_row(lambda: refine(F, factor), runs)
        row.update(dim=dim, size=size, factor=factor, components=components)
        out[name] = row
        print_ms(name, row)
    return out


def transform_rows(runs: int = RUNS) -> dict:
    out = {}
    for name, dim, size in TRANSFORM_ROWS:
        F = random_field(GridSpec(dim, size), 2.0, 1, components=2)
        if name.startswith("forward_transform/"):
            f = inverse_transform(F)
            row = time_row(lambda: forward_transform(f), runs)
        else:
            row = time_row(lambda: inverse_transform(F), runs)
        row.update(dim=dim, size=size, components=2)
        out[name] = row
        print_ms(name, row)
    return out


def map_rows(runs: int = RUNS) -> dict:
    out = {}
    for name, dim, size in MAP_ROWS:
        u = random_certified_displacement(GridSpec(dim, size), 13, size // 16, 0.2)
        if name.startswith("invert/"):
            phi = make_diffeo(u)
            row = time_row(lambda: invert(phi), runs)
        else:
            row = time_row(lambda: certify_stack(u), runs)
        row.update(dim=dim, size=size, seed=13, modes=size // 16)
        out[name] = row
        print_ms(name, row)
    return out


def stack_rows(runs: int = RUNS) -> dict:
    out = {}
    for name, dim, size, count in STACK_ROWS:
        spec = GridSpec(dim, size)
        disps = [random_certified_displacement(spec, 13 + i, size // 16, 0.2) for i in range(count)]
        u = Spectrum(spec, np.concatenate([d.coeffs for d in disps]))
        row = time_row(lambda: certify_stack(u), runs)
        row.update(dim=dim, size=size, maps=count, seeds=[13, 13 + count - 1], modes=size // 16)
        out[name] = row
        print_ms(name, row)
    return out


def rk4_call(num_points: int, steps: int):
    """The timed call of an RK4 row, on conformal_metric_2d."""
    m = conformal_metric_2d()
    if num_points == 1:
        y0, v0 = np.array([0.15, 0.35]), np.array([0.3, 0.2])
        return lambda: geodesic_flow(m, y0, v0, T=1.0, steps=steps)
    spec = GridSpec(2, 64)
    assert spec.num_points == num_points
    f = GridFunction(spec, spec.points().T.reshape((2,) + spec.shape))
    Y = GridFunction(spec, np.random.default_rng(1).uniform(-0.3, 0.3, (2,) + spec.shape))
    return lambda: exp_field(m, f, Y, t=1.0, steps=steps)


def rk4_rows(runs: int = RUNS) -> dict:
    out = {}
    for name, num_points, steps in RK4_ROWS:
        row = time_row(rk4_call(num_points, steps), runs)
        row.update({f"per_step_{key}": row[key] / steps for key in ("median_s", "q1_s", "q3_s")})
        row.update(points=num_points, steps=steps)
        out[name] = row
        print(f"{name:32s} median {row['per_step_median_s'] * 1e6:9.3f} us/step  "
              f"(q1 {row['per_step_q1_s'] * 1e6:.3f}, q3 {row['per_step_q3_s'] * 1e6:.3f}, n={runs})")
    return out


def calculus_call(name: str):
    """The timed call of a CALCULUS_ROWS row."""
    spec = GridSpec(1, 256)
    if name.startswith("multiply/"):
        f, g = (inverse_transform(random_field(spec, 2.0, seed)) for seed in (1, 2))
        return lambda: multiply(f, g)
    u, phi, du, dphi = _bundled_calculus_data(spec)
    if name.startswith("taylor_defect/"):
        return lambda: taylor_defect(u, phi, du, dphi, [1, 2])
    orders = []  # as run_taylor_order builds them at seed 101, s = 2
    for r in (1, 2):
        du_dir = fourier_truncate(random_field(spec, 2.0 + r, 101), 8)
        orders.append((r, Spectrum(spec, du_dir.coeffs / hs_norm(du_dir, 2.0 + r))))
    dphi_dir = inverse_transform(random_certified_displacement(spec, 108, 8, 0.5))
    return lambda: remainder_order_probe(u, phi, dphi_dir, orders, s=2.0, scales=(0.5, 0.25))


def calculus_rows(runs: int = RUNS) -> dict:
    out = {}
    for name in CALCULUS_ROWS:
        row = time_row(calculus_call(name), runs)
        row.update(dim=1, size=256)
        out[name] = row
        print_ms(name, row)
    return out


def seminorm_rows(runs: int = RUNS) -> dict:
    out = {}
    for name, size in SEMINORM_ROWS:
        spec = GridSpec(1, size)
        f = GridFunction(spec, np.sin(2.0 * np.pi * spec.axis_coordinates())[None])
        row = time_row(lambda: slobodeckij_seminorm(f, 0.5), runs)
        row.update(dim=1, size=size, lam=0.5)
        out[name] = row
        print_ms(name, row)
    return out


def field_rows(runs: int = RUNS) -> dict:
    out = {}
    for name, dim, size in FIELD_ROWS:
        spec = GridSpec(dim, size)
        row = time_row(lambda: random_field(spec, 2.0, 1), runs)
        row.update(dim=dim, size=size, s=2.0, seeds=1)
        out[name] = row
        print_ms(name, row)
    return out


def suite_rows(runs: int = RUNS) -> dict:
    out = {}
    for name, suite, params in SUITE_ROWS:
        out[name] = time_row(lambda: run_suite(suite, params), runs)
        print_ms(name, out[name])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="JSON record path")
    parser.add_argument("--only", default="", help="time only the rows whose name starts with this")
    args = parser.parse_args(argv)
    for table in (EVALUATE_ROWS, REFINE_ROWS, TRANSFORM_ROWS, MAP_ROWS, STACK_ROWS, RK4_ROWS,
                  CALCULUS_ROWS, SEMINORM_ROWS, FIELD_ROWS, SUITE_ROWS):
        table[:] = [row for row in table if (row if isinstance(row, str) else row[0]).startswith(args.only)]
    rows = {**evaluate_rows(), **refine_rows(), **transform_rows(), **map_rows(),
            **stack_rows(), **rk4_rows(), **calculus_rows(), **seminorm_rows(),
            **field_rows(), **suite_rows()}
    record = {"machine": machine(), "rows": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

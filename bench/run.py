"""Micro-timings of torusdiff's primitives, single-threaded.

    python3 bench/run.py --out BENCH_16.json
    python3 bench/run.py --only evaluate/2d-    # a subset of the rows, by name prefix

Times the layer primitives (`evaluate`, `refine`, the transforms, Newton
`invert`, `certify_stack`, RK4 stepping, `multiply`, the Taylor-expansion
calls, `slobodeckij_seminorm`, `random_field`) and thirteen suite runs on
fixed seeded inputs.  Each row of ROWS is (name, builder, arguments): the
builder does the setup and returns the call to time, and the arguments are
written with the row.  The JSON record holds machine info, then per row the
median and quartiles of the seconds per call over RUNS runs (each run times
enough calls to last about 0.2 s); rows with a `steps` argument (RK4) also
give them per step.  BLAS and OpenMP are pinned to one thread before numpy
is imported, so rows measure the code, not the thread pool.  It imports
torusdiff from the `src/` next to this directory; to measure another
checkout, copy this file into that checkout's `bench/` and run it there.

The 2D `evaluate` rows (names starting with FRESH_PREFIX) read up to ~25%
apart from one process to the next with no code change, more than within a
process, so each is timed in FRESH fresh interpreters, taken in turn with the
other such rows so that a slow spell of the machine falls on all of them
alike; the row reports the process with the lowest median and lists every
process's median as `process_medians_s`.  Every other row runs in this
process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import timeit
from functools import partial
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
FRESH = 5  # fresh processes per row named FRESH_PREFIX*
FRESH_PREFIX = "evaluate/2d-"


def field(dim: int, size: int, seed=1, s: float = 2.0, components: int = 1, band=None) -> Spectrum:
    """A seeded `random_field` in H^s, truncated to |k| <= band when one is given."""
    F = random_field(GridSpec(dim, size), s, seed, components=components)
    return F if band is None else fourier_truncate(F, band)


def group_map(dim: int, size: int, seed: int, modes: int) -> Spectrum:
    """The group suite's map at a seed: |k| <= modes, sup|du|_op = 0.2."""
    return random_certified_displacement(GridSpec(dim, size), seed, modes, 0.2)


def evaluate_call(dim, size, points, components, band):
    F = field(dim, size, components=components, band=band)
    pts = np.random.default_rng(1).uniform(0.0, 1.0, (points, dim))
    return lambda: evaluate(F, pts)


def refine_call(dim, size, factor, components):
    F = field(dim, size, components=components)
    return lambda: refine(F, factor)


def forward_call(dim, size, components):
    f = inverse_transform(field(dim, size, components=components))
    return lambda: forward_transform(f)


def inverse_call(dim, size, components):
    F = field(dim, size, components=components)
    return lambda: inverse_transform(F)


def invert_call(dim, size, seed, modes):
    phi = make_diffeo(group_map(dim, size, seed, modes))
    return lambda: invert(phi)


def certify_call(dim, size, modes, seed=None, maps=1, seeds=None):
    """`certify_stack` on `maps` group maps stacked, at seeds from `seed` or `seeds[0]` on."""
    first = seed if seeds is None else seeds[0]
    disps = [group_map(dim, size, first + i, modes) for i in range(maps)]
    u = Spectrum(GridSpec(dim, size), np.concatenate([d.coeffs for d in disps]))
    return lambda: certify_stack(u)


def rk4_call(points, steps):
    """RK4 on conformal_metric_2d: one geodesic, or a 64 x 64 field through `exp_field`."""
    m = conformal_metric_2d()
    if points == 1:
        y0, v0 = np.array([0.15, 0.35]), np.array([0.3, 0.2])
        return lambda: geodesic_flow(m, y0, v0, T=1.0, steps=steps)
    spec = GridSpec(2, int(points ** 0.5))  # points = N * N
    f = GridFunction(spec, spec.points().T.reshape((2,) + spec.shape))
    Y = GridFunction(spec, np.random.default_rng(1).uniform(-0.3, 0.3, (2,) + spec.shape))
    return lambda: exp_field(m, f, Y, t=1.0, steps=steps)


def multiply_call(dim, size):
    f, g = (inverse_transform(field(dim, size, seed)) for seed in (1, 2))
    return lambda: multiply(f, g)


def taylor_defect_call(dim, size):
    u, phi, du, dphi = _bundled_calculus_data(GridSpec(dim, size))
    return lambda: taylor_defect(u, phi, du, dphi, [1, 2])


def probe_call(dim, size):
    """The taylor-order suite's probe at scales 0.5 and 0.25, on its seed-101 directions."""
    spec = GridSpec(dim, size)
    u, phi, _, _ = _bundled_calculus_data(spec)
    orders = []  # as run_taylor_order builds them at s = 2
    for r in (1, 2):
        du_dir = field(dim, size, 101, s=2.0 + r, band=8)
        orders.append((r, Spectrum(spec, du_dir.coeffs / hs_norm(du_dir, 2.0 + r))))
    dphi_dir = inverse_transform(random_certified_displacement(spec, 108, 8, 0.5))
    return lambda: remainder_order_probe(u, phi, dphi_dir, orders, s=2.0, scales=(0.5, 0.25))


def seminorm_call(dim, size, lam):
    spec = GridSpec(dim, size)
    f = GridFunction(spec, np.sin(2.0 * np.pi * spec.axis_coordinates())[None])
    return lambda: slobodeckij_seminorm(f, lam)


def random_field_call(dim, size, s, seeds):
    """One integer seed, or seeds 1..seeds as one sequence (the form the trial suites draw)."""
    spec, seed = GridSpec(dim, size), (1 if seeds == 1 else list(range(1, seeds + 1)))
    return lambda: random_field(spec, s, seed)


def suite_call(suite, params):
    return lambda: run_suite(suite, params)


# (row name, builder, arguments).  d = 4 is the four Jacobian entries that
# inverse_derivative_residual pulls back; invert and certify_stack take the
# group suite's maps at seeds 13, 14, ..., where 8 maps is the group-t2 trial
# count and 17 the Taylor path's (16 Gauss-Legendre nodes and t = 1); the
# calculus rows run on the taylor suites' inputs; slobodeckij_seminorm takes
# sin(2 pi x) at the fractional suite's field and oracle sizes; suites run at
# their defaults but for `group-t2`, perfbench's group-t2 workload entry.
ROWS = [
    ("evaluate/1d-N256-P256", evaluate_call,
     dict(dim=1, size=256, points=256, components=1, band=None)),
    ("evaluate/2d-N64-P4096", evaluate_call,
     dict(dim=2, size=64, points=4096, components=2, band=None)),
    ("evaluate/2d-N64-P4096-d4", evaluate_call,
     dict(dim=2, size=64, points=4096, components=4, band=None)),
    ("evaluate/2d-N64-P4096-band4", evaluate_call,
     dict(dim=2, size=64, points=4096, components=2, band=4)),
    ("evaluate/2d-N128-P16384", evaluate_call,
     dict(dim=2, size=128, points=16384, components=2, band=None)),
    ("refine/1d-N256-x4", refine_call, dict(dim=1, size=256, factor=4, components=1)),
    ("refine/2d-N64-x4-d4", refine_call, dict(dim=2, size=64, factor=4, components=4)),
    ("forward_transform/1d-N256", forward_call, dict(dim=1, size=256, components=2)),
    ("forward_transform/2d-N64", forward_call, dict(dim=2, size=64, components=2)),
    ("inverse_transform/1d-N256", inverse_call, dict(dim=1, size=256, components=2)),
    ("inverse_transform/2d-N64", inverse_call, dict(dim=2, size=64, components=2)),
    ("invert/1d-N256", invert_call, dict(dim=1, size=256, seed=13, modes=16)),
    ("invert/2d-N64", invert_call, dict(dim=2, size=64, seed=13, modes=4)),
    ("invert/2d-N128", invert_call, dict(dim=2, size=128, seed=13, modes=8)),
    ("certify_stack/2d-N64", certify_call, dict(dim=2, size=64, seed=13, modes=4)),
    ("certify_stack/2d-N64x8", certify_call,
     dict(dim=2, size=64, maps=8, seeds=[13, 20], modes=4)),
    ("certify_stack/1d-N256x17", certify_call,
     dict(dim=1, size=256, maps=17, seeds=[13, 29], modes=16)),
    ("rk4/geodesic_flow-P1-steps8192", rk4_call, dict(points=1, steps=8192)),
    ("rk4/exp_field-P4096-steps64", rk4_call, dict(points=4096, steps=64)),
    ("multiply/1d-N256", multiply_call, dict(dim=1, size=256)),
    ("taylor_defect/1d-N256-r12", taylor_defect_call, dict(dim=1, size=256)),
    ("remainder_order_probe/1d-N256-r12-two-scales", probe_call, dict(dim=1, size=256)),
    ("slobodeckij_seminorm/1d-N256", seminorm_call, dict(dim=1, size=256, lam=0.5)),
    ("slobodeckij_seminorm/1d-N2048", seminorm_call, dict(dim=1, size=2048, lam=0.5)),
    ("random_field/1d-N256", random_field_call, dict(dim=1, size=256, s=2.0, seeds=1)),
    ("random_field/1d-N256-seeds200", random_field_call,
     dict(dim=1, size=256, s=2.0, seeds=200)),
    ("suite/algebra", partial(suite_call, "algebra", {}), {}),
    ("suite/norm-equivalence", partial(suite_call, "norm-equivalence", {}), {}),
    ("suite/embedding", partial(suite_call, "embedding", {}), {}),
    ("suite/lipschitz", partial(suite_call, "lipschitz", {}), {}),
    ("suite/fractional", partial(suite_call, "fractional", {}), {}),
    ("suite/taylor-order", partial(suite_call, "taylor-order", {}), {}),
    ("suite/taylor-identity", partial(suite_call, "taylor-identity", {}), {}),
    ("suite/inverse-differential", partial(suite_call, "inverse-differential", {}), {}),
    ("suite/loss-of-derivative", partial(suite_call, "loss-of-derivative", {}), {}),
    ("suite/quotient-rule", partial(suite_call, "quotient-rule", {}), {}),
    ("suite/geodesic", partial(suite_call, "geodesic", {}), {}),
    ("suite/group", partial(suite_call, "group", {}), {}),
    ("suite/group-t2", partial(suite_call, "group", {"dim": 2, "size": 64, "trials": 8}), {}),
]


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), None)
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


# Loads this script without running `main`, times the row named argv[2] and
# prints its record.
TIME_ONE_ROW = """
import json, runpy, sys
script = runpy.run_path(sys.argv[1])
build, kwargs = next((b, k) for name, b, k in script["ROWS"] if name == sys.argv[2])
print(json.dumps(script["time_row"](build(**kwargs), script["RUNS"])))
"""


def time_rows_fresh(names: list[str]) -> dict:
    """Each named row timed in FRESH new interpreters, the rows taken in turn:
    per row the record with the lowest median, and every process's median."""
    records = {name: [] for name in names}
    for _ in range(FRESH):
        for name in names:
            proc = subprocess.run([sys.executable, "-c", TIME_ONE_ROW, __file__, name],
                                  check=True, capture_output=True, text=True)
            records[name].append(json.loads(proc.stdout.splitlines()[-1]))
    return {name: {**min(runs, key=lambda run: run["median_s"]),
                   "process_medians_s": [run["median_s"] for run in runs]}
            for name, runs in records.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="JSON record path")
    parser.add_argument("--only", default="", help="time only the rows whose name starts with this")
    args = parser.parse_args(argv)
    selected = [row for row in ROWS if row[0].startswith(args.only)]
    fresh = time_rows_fresh([name for name, _, _ in selected if name.startswith(FRESH_PREFIX)])
    rows = {}
    for name, build, kwargs in selected:
        row = fresh[name] if name in fresh else time_row(build(**kwargs), RUNS)
        per, scale, unit = "", 1e3, "ms"
        if "steps" in kwargs:
            row.update({f"per_step_{key}": row[key] / kwargs["steps"]
                        for key in ("median_s", "q1_s", "q3_s")})
            per, scale, unit = "per_step_", 1e6, "us/step"
        row.update(kwargs)
        rows[name] = row
        print(f"{name:32s} median {row[per + 'median_s'] * scale:9.3f} {unit}  "
              f"(q1 {row[per + 'q1_s'] * scale:.3f}, q3 {row[per + 'q3_s'] * scale:.3f}, n={RUNS})")
    record = {"machine": machine(), "rows": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

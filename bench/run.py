"""Micro-timings of torusdiff's primitives, single-threaded.

    python3 bench/run.py --out BENCH_19.json
    python3 bench/run.py --only evaluate/2d-    # a subset of the rows, by name prefix

Times the layer primitives (`evaluate`, `refine`, the transforms, Newton
`invert`, `certify_stack`, `inverse_derivative_residual`, RK4 stepping,
`multiply`, the Taylor-expansion calls, `slobodeckij_seminorm`,
`random_field`) and thirteen suite runs on
fixed seeded inputs.  Each row of ROWS is (name, builder, arguments): the
builder does the setup and returns the call to time, and the arguments are
written with the row.  The JSON record holds machine info, then per row the
median and quartiles of the seconds per call over RUNS runs (each run times
enough calls to last about 0.2 s); rows with a `steps` argument (RK4) also
give them per step.  BLAS and OpenMP are pinned to one thread before numpy
is imported, so rows measure the code, not the thread pool.  It imports
torusdiff from the `src/` next to this directory; to measure another
checkout, copy this file into that checkout's `bench/` and run it there.

Where the core keeps a second path, the builder returns the kept call and
the alternative it beat, which must first agree: bit for bit, or for
`evaluate` within its precision contract.  Each run times the two in turn,
and the row adds the alternative's figures (`alt_*`), `ratio`, the median
over runs of alternative / kept (> 1: the kept path pays for itself), and
`kept_faster`, the runs where it was faster.  An alternative inside a larger
call (`_exp_points`, `_trusted`) is swapped in as a module attribute.
`check()` runs only the agreement check, untimed.

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
import inspect
import json
import os
import platform
import statistics
import subprocess
import sys
import timeit
from contextlib import ExitStack, contextmanager
from functools import partial
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from torusdiff import diffeo, geodesic, grid  # noqa: E402
from torusdiff.algebra import multiply  # noqa: E402
from torusdiff.calculus import remainder_order_probe, taylor_defect  # noqa: E402
from torusdiff.diffeo import (  # noqa: E402
    certify_stack,
    inverse_derivative_residual,
    invert,
    make_diffeo,
)
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
from torusdiff.report import SuiteReport  # noqa: E402
from torusdiff.suites import (  # noqa: E402
    _bundled_calculus_data,
    default_config,
    random_certified_displacement,
    run_all,
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


@contextmanager
def swapped(module, name, value):
    """`module.name` set to `value` inside the block, restored after it."""
    old = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, old)


def variant(fn, *edits):
    """`fn` recompiled in a copy of its module's namespace with each (old, new)
    source edit applied; an edit whose `old` text is gone raises."""
    src = inspect.getsource(fn)
    for old, new in edits:
        if old not in src:
            raise ValueError(f"{fn.__name__} no longer contains {old!r}")
        src = src.replace(old, new)
    namespace = dict(vars(sys.modules[fn.__module__]))
    exec(compile(src, f"<{fn.__name__} variant>", "exec"), namespace)
    return namespace[fn.__name__]


def points_call(dim, size):
    """`GridSpec.points`' 1D branch against the meshgrid of every axis."""
    spec = GridSpec(dim, size)

    def generic():
        x = spec.axis_coordinates()
        return np.stack(np.meshgrid(*[x] * spec.dim, indexing="ij"), axis=-1).reshape(-1, spec.dim)

    return spec.points, generic


def _exp_points_by_trajectory(m, y, v, t, steps):
    ys, _ = geodesic._trajectory(m, geodesic._chart(y, m.dim), geodesic._chart(v, m.dim),
                                 t / steps, steps)
    return geodesic._real(ys[-1])


def geodesic_law_call(law):
    """The geodesic suite's scaling or d0 law at its defaults (N = 64), with
    `_exp_points`' endpoint-only RK4 loop or the endpoints of `_trajectory`."""
    spec = GridSpec(1, 64)
    x = spec.axis_coordinates()
    curve = GridFunction(spec, np.stack([x, 0.3 + 0.2 * np.sin(2.0 * np.pi * x)]))
    raw = inverse_transform(fourier_truncate(random_field(spec, 3.0, 23, 2), 8))
    vel = GridFunction(spec, 0.3 * raw.values / np.max(np.abs(raw.values)))
    m = conformal_metric_2d()
    call = (partial(geodesic.scaling_defect, m, curve, vel, (0.5, 0.3), steps=512)
            if law == "scaling" else
            partial(geodesic.d0_exp_error, m, curve, vel, (1e-2, 5e-3, 2.5e-3), steps=256))

    def alternative():
        with swapped(geodesic, "_exp_points", _exp_points_by_trajectory):
            return call()

    return call, alternative


def _evaluate_1d_by_phase_table(F, points):
    """1D evaluate as the 2D path contracts its axis 1: one real GEMM of the
    (P, M+2) float64 view of the phase table with (Re c_k, -Im c_k) rows."""
    size = grid._band_size(F.coeffs, F.spec.size)
    half = size // 2
    ext = grid._extend_axis(F.coeffs, 1, size)
    fold = (ext + np.conj(ext[:, ::-1]))[:, half:]
    fold[:, 0] /= 2.0
    rows = np.stack([fold.real, -fold.imag], axis=-1).reshape(len(fold), -1).T
    pts = np.asarray(points, dtype=np.float64).reshape(-1)
    out = np.empty((len(fold), len(pts)))
    for start in range(0, len(pts), grid._BLOCK_POINTS):
        block = pts[start : start + grid._BLOCK_POINTS]
        out[:, start : start + len(block)] = (grid._phase_table(block, size).view(np.float64)
                                              @ rows).T
    return out


def evaluate_call(dim, size, points, components, band):
    """`evaluate`; in 1D, its factored path against 2D's real GEMM on the phase table."""
    F = field(dim, size, components=components, band=band)
    pts = np.random.default_rng(1).uniform(0.0, 1.0, (points, dim))
    calls = (lambda: evaluate(F, pts)), (lambda: _evaluate_1d_by_phase_table(F, pts))
    return calls if dim == 1 else calls[0]


def _refine_by_irfftn(F, factor):
    spec, fine = F.spec, F.spec.refined(factor)
    half = spec.size // 2
    ext = F.coeffs[..., : half + 1].copy()
    ext[..., half] *= 0.5
    cols = np.zeros((len(ext), fine.size, half + 1), complex)
    cols[:, np.arange(-half, half + 1) % fine.size] = grid._extend_axis(ext, 1, spec.size)
    vals = np.fft.irfftn(cols, s=fine.shape, axes=fine.spatial_axes())
    return GridFunction(fine, vals * fine.num_points)


def refine_call(dim, size, factor, components):
    """`refine`; in 2D, its column-wise inverse FFT against `irfftn` of the zero-padded half."""
    F = field(dim, size, components=components)
    calls = (lambda: refine(F, factor)), (lambda: _refine_by_irfftn(F, factor))
    return calls if dim == 2 else calls[0]


def forward_call(dim, size, components):
    f = inverse_transform(field(dim, size, components=components))
    return lambda: forward_transform(f)


def inverse_call(dim, size, components):
    F = field(dim, size, components=components)
    return lambda: inverse_transform(F)


def invert_call(dim, size, seed, modes, alternative=True):
    """Newton `invert`; its slice fork against index arrays at every sweep and halving."""
    phi = make_diffeo(group_map(dim, size, seed, modes))
    if not alternative:
        return lambda: invert(phi)
    indexed = variant(
        invert,
        ("act = slice(None) if len(active) == y.shape[1] else active", "act = active"),
        ("each, at = (slice(None), act) if len(todo) == len(active) else (todo, active[todo])",
         "each, at = todo, active[todo]"),
    )
    return (lambda: invert(phi)), (lambda: indexed(phi))


def stacked_maps(dim, size, modes, seed=None, maps=1, seeds=None) -> Spectrum:
    """`maps` group maps stacked, at seeds from `seed` or `seeds[0]` on."""
    first = seed if seeds is None else seeds[0]
    disps = [group_map(dim, size, first + i, modes) for i in range(maps)]
    return Spectrum(GridSpec(dim, size), np.concatenate([d.coeffs for d in disps]))


def certify_call(**maps):
    u = stacked_maps(**maps)
    return lambda: certify_stack(u)


def _det_and_opnorm_plain(grad_vals):
    a, b, c, d = grad_vals
    det_du = a * d - b * c
    frob2 = a * a + b * b + c * c + d * d
    gap = np.maximum(frob2 * frob2 - 4.0 * (det_du * det_du), 0.0)
    return (1.0 + a) * (1.0 + d) - b * c, frob2 + np.sqrt(gap)


def det_opnorm_call(**maps):
    """`gradient_sup`'s 2D input, the maps' gradients refined to 4N (it is the last
    user of the 4N grid; certification samples each map at its band): the in-place
    `_det_and_opnorm` against plain expressions."""
    fine = refine(diffeo._displacement_gradient(stacked_maps(**maps)), diffeo.CERT_REFINE)
    vals = fine.values.reshape(maps["maps"], 4, -1).swapaxes(0, 1)
    return (lambda: diffeo._det_and_opnorm(vals, 2)), (lambda: _det_and_opnorm_plain(vals))


def inverse_residual_call(dim, size, seed, modes):
    """`inverse_derivative_residual` of a group map and its Newton inverse."""
    phi = make_diffeo(group_map(dim, size, seed, modes))
    psi = invert(phi)
    return lambda: inverse_derivative_residual(phi, psi)


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


def trusted_call():
    """The twelve default suites and perfbench's group-t2 entry in one `run_all`,
    with `_trusted` construction or the public constructors and their checks."""
    config = default_config()
    config["suites"].append({"suite": "group", "dim": 2, "size": 64, "trials": 8})
    holders = [mod for name, mod in sys.modules.items()
               if name.startswith("torusdiff.") and getattr(mod, "_trusted", None) is grid._trusted]

    def alternative():
        with ExitStack() as stack:
            for mod in holders:
                stack.enter_context(swapped(mod, "_trusted", lambda cls, spec, arr: cls(spec, arr)))
            return run_all(config)[0]

    return (lambda: run_all(config)[0]), alternative


# (row name, builder, arguments).  d = 4 is the four Jacobian entries that
# inverse_derivative_residual pulls back; invert and certify_stack take the
# group suite's maps at seeds 13, 14, ..., where 8 maps is the group-t2 trial
# count and 17 the Taylor path's (16 Gauss-Legendre nodes and t = 1); the
# calculus rows run on the taylor suites' inputs; slobodeckij_seminorm takes
# sin(2 pi x) at the fractional suite's field and oracle sizes; suites run at
# their defaults but for `group-t2`, perfbench's group-t2 workload entry.
# 4352 points are 17 x 256, the Taylor path's, and 4 components at |k| <= 8 its jet stack
# in taylor-order; 32 components are 8 maps' 4 gradient entries.
ROWS = [
    ("points/1d-N256", points_call, dict(dim=1, size=256)),
    ("exp_points/scaling_defect", geodesic_law_call, dict(law="scaling")),
    ("exp_points/d0_exp_error", geodesic_law_call, dict(law="d0")),
    ("evaluate/1d-N256-P256", evaluate_call,
     dict(dim=1, size=256, points=256, components=1, band=None)),
    ("evaluate/1d-N256-P256-d6", evaluate_call,
     dict(dim=1, size=256, points=256, components=6, band=None)),
    ("evaluate/1d-N256-P4352-d1", evaluate_call,
     dict(dim=1, size=256, points=4352, components=1, band=None)),
    ("evaluate/1d-N256-P4352-d4-band8", evaluate_call,
     dict(dim=1, size=256, points=4352, components=4, band=8)),
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
    ("refine/2d-N64-x4-d32", refine_call, dict(dim=2, size=64, factor=4, components=32)),
    ("forward_transform/1d-N256", forward_call, dict(dim=1, size=256, components=2)),
    ("forward_transform/2d-N64", forward_call, dict(dim=2, size=64, components=2)),
    ("inverse_transform/1d-N256", inverse_call, dict(dim=1, size=256, components=2)),
    ("inverse_transform/2d-N64", inverse_call, dict(dim=2, size=64, components=2)),
    ("invert/1d-N256", invert_call, dict(dim=1, size=256, seed=13, modes=16)),
    ("invert/2d-N64", invert_call, dict(dim=2, size=64, seed=13, modes=4)),
    ("invert/2d-N128", partial(invert_call, alternative=False),
     dict(dim=2, size=128, seed=13, modes=8)),
    ("certify_stack/2d-N64", certify_call, dict(dim=2, size=64, seed=13, modes=4)),
    ("certify_stack/2d-N64x8", certify_call,
     dict(dim=2, size=64, maps=8, seeds=[13, 20], modes=4)),
    ("det_and_opnorm/2d-N64x8", det_opnorm_call,
     dict(dim=2, size=64, maps=8, seeds=[13, 20], modes=4)),
    ("certify_stack/1d-N256", certify_call, dict(dim=1, size=256, seed=13, modes=16)),
    ("certify_stack/1d-N256x17", certify_call,
     dict(dim=1, size=256, maps=17, seeds=[13, 29], modes=16)),
    ("inverse_derivative_residual/2d-N64", inverse_residual_call,
     dict(dim=2, size=64, seed=13, modes=4)),
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
    ("trusted/twelve-suites+group-t2", trusted_call, {}),
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


def quartiles(per_call: list, prefix: str = "") -> dict:
    q1, median, q3 = statistics.quantiles(per_call, n=4, method="inclusive")
    return {f"{prefix}median_s": median, f"{prefix}q1_s": q1, f"{prefix}q3_s": q3}


def time_row(calls, runs: int) -> dict:
    """Seconds per call of `calls`, one call or a (kept, alternative) pair: each
    of `runs` runs times `number` calls of each in turn, `number` set by
    `autorange` on the kept call; a pair adds the alternative's figures."""
    calls = calls if isinstance(calls, tuple) else (calls,)
    for fn in calls:
        fn()  # warm-up: first-call allocations and imports
    timers = [timeit.Timer(fn) for fn in calls]
    number, _ = timers[0].autorange()
    times = [[timer.timeit(number) / number for timer in timers] for _ in range(runs)]
    row = {**quartiles([kept for kept, *_ in times]), "runs": runs, "calls_per_run": number}
    if len(calls) == 2:
        ratios = [alt / kept for kept, alt in times]
        row.update(quartiles([alt for _, alt in times], "alt_"), ratio=statistics.median(ratios),
                   kept_faster=sum(ratio > 1.0 for ratio in ratios))
    return row


def agree(kept, alt) -> bool:
    """Outputs equal bit for bit: arrays in shape and bytes, reports in
    comparison_bytes, maps and fields in their arrays."""
    if isinstance(kept, (list, tuple)):
        return len(kept) == len(alt) and all(map(agree, kept, alt))
    if isinstance(kept, SuiteReport):
        return kept.comparison_bytes() == alt.comparison_bytes()
    if isinstance(kept, diffeo.Diffeo):
        return agree([kept.displacement.coeffs, kept.disp_values], [alt.displacement.coeffs,
                                                                    alt.disp_values])
    if isinstance(kept, GridFunction):
        return agree(kept.values, alt.values)
    if isinstance(kept, np.ndarray):
        return kept.shape == alt.shape and kept.tobytes() == alt.tobytes()
    return kept == alt


def agree_evaluate(kept, alt) -> bool:
    """evaluate's contract: 1e-13 * sum_k |fhat_k| per component (the fields here
    have sum_k |fhat_k| < 10, so 1e-12 covers both sides' error)."""
    return kept.shape == alt.shape and float(np.max(np.abs(kept - alt))) <= 1e-12


def agrees(name, kept, alt) -> bool:
    """The row's two calls, run once each, give the same output."""
    same = agree_evaluate if name.startswith("evaluate/") else agree
    return same(kept(), alt())


def check() -> list:
    """Names of the pair rows whose two calls disagree; every row is built once."""
    built = ((name, build(**kwargs)) for name, build, kwargs in ROWS)
    return [name for name, calls in built if isinstance(calls, tuple) and not agrees(name, *calls)]


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
    rows, differ = {}, 0
    for name, build, kwargs in selected:
        calls = None if name in fresh else build(**kwargs)
        if isinstance(calls, tuple) and not agrees(name, *calls):
            print(f"{name:32s} outputs DIFFER")
            differ += 1
            continue
        row = time_row(calls, RUNS) if calls else fresh[name]
        per, scale, unit = "", 1e3, "ms"
        if "steps" in kwargs:
            row.update({f"per_step_{key}": row[key] / kwargs["steps"]
                        for key in ("median_s", "q1_s", "q3_s")})
            per, scale, unit = "per_step_", 1e6, "us/step"
        row.update(kwargs)
        rows[name] = row
        line = (f"{name:32s} median {row[per + 'median_s'] * scale:9.4f} {unit}  (q1 "
                f"{row[per + 'q1_s'] * scale:.4f}, q3 {row[per + 'q3_s'] * scale:.4f}, n={RUNS})")
        if "ratio" in row:
            line += f"  ratio {row['ratio']:.2f}, kept faster {row['kept_faster']}/{RUNS}"
        print(line)
    record = {"machine": machine(), "rows": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

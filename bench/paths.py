"""The core's second code paths, each timed against the generic form it beat.

    python3 bench/paths.py

Each row of PATHS is (name, builder, workload): the builder returns the kept
call and the alternative call on the same inputs, and `workload` names the
suites or perfbench workload the kept path serves.  Before timing, both calls
run once and their outputs must agree: bit for bit, or for `evaluate` within
its precision contract.  The two are then timed in alternation, ROUNDS
times, each timing repeating its call about 0.1 s (the count is fixed per row
from the kept call).  Printed per row: the median seconds per call of each,
the median over rounds of alternative / kept (> 1: the kept path pays for
itself), and in how many rounds the kept path was faster.  `check()` runs
only the agreement check, untimed.

Alternatives that sit inside a larger call (`_exp_points` in the geodesic
laws, `_trusted` everywhere) are swapped in as module attributes for the
duration of the alternative call.  BLAS and OpenMP are pinned to one thread
before numpy is imported, as in `bench/run.py`.
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
import timeit
from contextlib import ExitStack, contextmanager
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import torusdiff  # noqa: E402
from torusdiff import diffeo, geodesic, grid  # noqa: E402
from torusdiff.grid import GridFunction, GridSpec, Spectrum, random_field  # noqa: E402
from torusdiff.report import SuiteReport  # noqa: E402
from torusdiff.suites import default_config, random_certified_displacement, run_all  # noqa: E402

TARGET_S = 0.1  # seconds per timing
ROUNDS = 15  # interleaved timings of each call per row


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


def group_maps(dim, size, maps):
    """The group suite's maps at seeds 13, 14, ...: |k| <= size/16, sup|du|_op = 0.2."""
    disps = [random_certified_displacement(GridSpec(dim, size), 13 + i, size // 16, 0.2)
             for i in range(maps)]
    return Spectrum(GridSpec(dim, size), np.concatenate([u.coeffs for u in disps]))


# --- 1. GridSpec.points: the 1D branch, or the meshgrid of every axis


def points_call(size):
    spec = GridSpec(1, size)

    def generic():
        x = spec.axis_coordinates()
        return np.stack(np.meshgrid(*[x] * spec.dim, indexing="ij"), axis=-1).reshape(-1, spec.dim)

    return spec.points, generic


# --- 2. _exp_points' endpoint-only RK4 loop, or the endpoints of _trajectory


def _exp_points_by_trajectory(m, y, v, t, steps):
    ys, _ = geodesic._trajectory(m, geodesic._chart(y, m.dim), geodesic._chart(v, m.dim),
                                 t / steps, steps)
    return geodesic._real(ys[-1])


def geodesic_law_call(law):
    """The geodesic suite's scaling or d0 law at its defaults (N = 64)."""
    spec = GridSpec(1, 64)
    x = spec.axis_coordinates()
    curve = GridFunction(spec, np.stack([x, 0.3 + 0.2 * np.sin(2.0 * np.pi * x)]))
    raw = grid.inverse_transform(grid.fourier_truncate(random_field(spec, 3.0, 23, 2), 8))
    vel = GridFunction(spec, 0.3 * raw.values / np.max(np.abs(raw.values)))
    m = geodesic.conformal_metric_2d()
    if law == "scaling":
        def call():
            return geodesic.scaling_defect(m, curve, vel, (0.5, 0.3), steps=512)
    else:
        def call():
            return geodesic.d0_exp_error(m, curve, vel, (1e-2, 5e-3, 2.5e-3), steps=256)

    def alternative():
        with swapped(geodesic, "_exp_points", _exp_points_by_trajectory):
            return call()

    return call, alternative


# --- 3. evaluate's factored 1D path, or 2D's real GEMM with the phase table


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


def evaluate_call(components, points):
    F = random_field(GridSpec(1, 256), 2.0, 1, components)  # full band: M = N
    pts = np.random.default_rng(1).uniform(0.0, 1.0, (points, 1))
    return (lambda: grid.evaluate(F, pts)), (lambda: _evaluate_1d_by_phase_table(F, pts))


# --- 4. invert's slice fork, or index arrays at every sweep and halving


def invert_call(dim, size):
    phi = diffeo.make_diffeo(group_maps(dim, size, 1))
    indexed = variant(
        diffeo.invert,
        ("act = slice(None) if len(active) == y.shape[1] else active", "act = active"),
        ("each, at = (slice(None), act) if len(todo) == len(active) else (todo, active[todo])",
         "each, at = todo, active[todo]"),
    )
    return (lambda: diffeo.invert(phi)), (lambda: indexed(phi))


# --- 5. _det_and_opnorm's in-place buffers, or plain expressions


def _det_and_opnorm_plain(grad_vals, dim):
    a, b, c, d = grad_vals
    det_du = a * d - b * c
    frob2 = a * a + b * b + c * c + d * d
    gap = np.maximum(frob2 * frob2 - 4.0 * (det_du * det_du), 0.0)
    return (1.0 + a) * (1.0 + d) - b * c, frob2 + np.sqrt(gap)


def det_opnorm_call(maps):
    """The group-t2 certification input: `maps` maps' gradients refined to 4N."""
    fine = grid.refine(diffeo._displacement_gradient(group_maps(2, 64, maps)), diffeo.CERT_REFINE)
    vals = fine.values.reshape(maps, 4, -1).swapaxes(0, 1)
    return (lambda: diffeo._det_and_opnorm(vals, 2)), (lambda: _det_and_opnorm_plain(vals, 2))


# --- 6. refine's 2D column-wise inverse FFT, or irfftn of the zero-padded half


def _refine_by_irfftn(F, factor):
    spec, fine = F.spec, F.spec.refined(factor)
    half = spec.size // 2
    ext = F.coeffs[..., : half + 1].copy()
    ext[..., half] *= 0.5
    cols = np.zeros((len(ext), fine.size, half + 1), complex)
    cols[:, np.arange(-half, half + 1) % fine.size] = grid._extend_axis(ext, 1, spec.size)
    vals = np.fft.irfftn(cols, s=fine.shape, axes=fine.spatial_axes())
    return GridFunction(fine, vals * fine.num_points)


def refine_call(components):
    F = random_field(GridSpec(2, 64), 2.0, 1, components)
    return (lambda: grid.refine(F, 4)), (lambda: _refine_by_irfftn(F, 4))


# --- 7. _trusted construction, or the public constructors and their checks


def _public(cls, spec, arr):
    return cls(spec, arr)


def suites_call():
    """The twelve default suites and perfbench's group-t2 entry, in one run_all."""
    config = default_config()
    config["suites"].append({"suite": "group", "dim": 2, "size": 64, "trials": 8})
    holders = [mod for name, mod in sys.modules.items()
               if name.startswith("torusdiff.") and getattr(mod, "_trusted", None) is grid._trusted]

    def call():
        return run_all(config)[0]

    def alternative():
        with ExitStack() as stack:
            for mod in holders:
                stack.enter_context(swapped(mod, "_trusted", _public))
            return call()

    return call, alternative


# (row name, builder with its arguments, what the kept path serves)
PATHS = [
    ("points/1d-N256", lambda: points_call(256), "every compose and invert on T^1"),
    ("exp_points/scaling_defect", lambda: geodesic_law_call("scaling"), "geodesic"),
    ("exp_points/d0_exp_error", lambda: geodesic_law_call("d0"), "geodesic"),
    ("evaluate/1d-N256-P256-d1", lambda: evaluate_call(1, 256), "calculus-t1"),
    ("evaluate/1d-N256-P256-d6", lambda: evaluate_call(6, 256), "calculus-t1"),
    ("evaluate/1d-N256-P4352-d1", lambda: evaluate_call(1, 17 * 256), "calculus-t1 (Taylor path)"),
    ("invert/1d-N256", lambda: invert_call(1, 256), "group, inverse-differential"),
    ("invert/2d-N64", lambda: invert_call(2, 64), "group-t2"),
    ("det_and_opnorm/2d-N64x8", lambda: det_opnorm_call(8), "group-t2"),
    ("refine/2d-N64-x4-d4", lambda: refine_call(4), "group-t2"),
    ("refine/2d-N64-x4-d32", lambda: refine_call(32), "group-t2"),
    ("trusted/twelve-suites+group-t2", suites_call, "every suite"),
]


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
    """Names of the rows whose two calls disagree; every row is built and run once."""
    return [name for name, build, _ in PATHS if not agrees(name, *build())]


def time_row(kept, alt) -> dict:
    kept(), alt()  # warm-up
    number = max(1, round(TARGET_S / timeit.Timer(kept).timeit(1)))
    times = {"kept": [], "alt": []}
    for _ in range(ROUNDS):
        for key, fn in (("kept", kept), ("alt", alt)):
            times[key].append(timeit.Timer(fn).timeit(number) / number)
    ratios = [a / k for k, a in zip(times["kept"], times["alt"])]
    return {
        "kept_s": statistics.median(times["kept"]),
        "alt_s": statistics.median(times["alt"]),
        "ratio": statistics.median(ratios),
        "kept_faster": sum(r > 1.0 for r in ratios),
    }


def main() -> int:
    print(f"torusdiff {torusdiff.__version__}, numpy {np.__version__}, one BLAS thread")
    failed = 0
    for name, build, serves in PATHS:
        kept, alt = build()
        if not agrees(name, kept, alt):
            print(f"{name:32s} outputs DIFFER")
            failed += 1
            continue
        row = time_row(kept, alt)
        print(f"{name:32s} kept {row['kept_s'] * 1e3:9.4f} ms  alternative "
              f"{row['alt_s'] * 1e3:9.4f} ms  ratio {row['ratio']:5.2f}  "
              f"kept faster {row['kept_faster']}/{ROUNDS}  ({serves})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark pass in a fresh interpreter; prints a JSON record last.

    python3 perfbench/pass_child.py setup CONFIG
    python3 perfbench/pass_child.py pass  CONFIG OUT_DIR
    python3 perfbench/pass_child.py trace CONFIG OUT_DIR SPANS_FILE
    python3 perfbench/pass_child.py env

`setup` stops once torusdiff is imported and the config parsed.  `pass`
then runs `torusdiff.cli.main(["verify-all", ...])` in its default
(threaded) mode and reports its wall time, process CPU time and peak RSS,
and each suite's verdict and report digest.  `trace` does the same with the
outside-in tracer installed and writes the spans to SPANS_FILE.
"""

import time

READY_CLOCK = time.CLOCK_MONOTONIC
T_START = time.clock_gettime(READY_CLOCK)

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _read_reports(out_dir: Path, suites: list[str]) -> dict:
    from torusdiff.report import SuiteReport

    summary_path = out_dir / "summary.json"
    errors = {}
    if summary_path.exists():
        for entry in json.loads(summary_path.read_text())["suites"]:
            if "error" in entry:
                errors[entry["suite"]] = entry["error"]
    out = {}
    for suite in suites:
        path = out_dir / f"{suite}.json"
        if not path.exists():
            out[suite] = {"pass": False, "error": errors.get(suite, "no report")}
            continue
        payload = json.loads(path.read_text())
        report = SuiteReport.from_dict(payload)
        out[suite] = {
            "pass": payload.get("pass") is True,
            "wall_time_s": report.wall_time_s,
            "digest": hashlib.sha256(report.comparison_bytes()).hexdigest(),
        }
    return out


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment() -> dict:
    import platform
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    cpu_model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with ThreadPoolExecutor() as pool:
        pool_size = pool._max_workers
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "trial_pool_size": pool_size,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "env":
        print(json.dumps(environment()))
        return 0
    config_path = argv[1]
    import torusdiff.cli
    from torusdiff.suites import parse_config

    with open(config_path, encoding="utf-8") as fh:
        suites = [entry["suite"] for entry in parse_config(json.load(fh))]
    ready = time.clock_gettime(READY_CLOCK)
    record = {"start": T_START, "ready": ready}
    if mode == "setup":
        print(json.dumps(record))
        return 0

    out_dir = Path(argv[2])
    cli_args = ["verify-all", "--config", config_path, "--out-dir", str(out_dir)]
    tracer = None
    verify = torusdiff.cli.main
    if mode == "trace":
        sys.path.insert(0, str(HERE))
        from tracer import Tracer, all_restored

        tracer = Tracer()
        tracer.install()
        verify = tracer.wrap("cli.main", verify)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    rc = verify(cli_args)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record.update(
        {
            "rc": rc,
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mib": peak_kib / 1024.0,
        }
    )
    if tracer is not None:
        record["restored"] = all_restored(tracer.uninstall())
        with open(argv[3], "w") as fh:
            json.dump(tracer.spans, fh)
    record["suites"] = _read_reports(out_dir, suites)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

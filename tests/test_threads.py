"""`import torusdiff` pins BLAS to one thread unless the user or an earlier
numpy import already decided.  Each case runs in a fresh interpreter, since
OpenBLAS reads its thread variables only when numpy loads it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Imports the modules named in argv[1] (comma-separated) in order, then prints
# the four variables and the thread count of the OpenBLAS numpy loaded (None
# when no OpenBLAS library or symbol is found).
PROBE = """
import ctypes, importlib, json, os, sys

def blas_threads():
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None

for name in sys.argv[1].split(","):
    importlib.import_module(name)
print(json.dumps({"env": {var: os.environ.get(var) for var in sys.argv[2:]},
                  "threads": blas_threads()}))
"""


def probe(modules: str, **preset: str) -> dict:
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARS}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, modules, *THREAD_VARS],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def expect_threads(found, wanted: int) -> None:
    """OpenBLAS caps its thread count at the CPUs it may run on."""
    if found is None:
        pytest.skip("no OpenBLAS thread-count symbol in this numpy")
    assert found == min(wanted, len(os.sched_getaffinity(0)))


def test_unset_variables_become_one_thread():
    out = probe("torusdiff")
    assert out["env"] == dict.fromkeys(THREAD_VARS, "1")
    expect_threads(out["threads"], 1)


def test_preset_openblas_threads_win():
    out = probe("torusdiff", OPENBLAS_NUM_THREADS="2")
    assert out["env"] == {**dict.fromkeys(THREAD_VARS), "OPENBLAS_NUM_THREADS": "2"}
    expect_threads(out["threads"], 2)


def test_preset_omp_threads_alone_win():
    # a per-variable default would set OPENBLAS_NUM_THREADS=1, which OpenBLAS
    # ranks above OMP_NUM_THREADS
    out = probe("torusdiff", OMP_NUM_THREADS="2")
    assert out["env"] == {**dict.fromkeys(THREAD_VARS), "OMP_NUM_THREADS": "2"}
    expect_threads(out["threads"], 2)


def test_numpy_imported_first_keeps_its_threads():
    plain = probe("numpy")
    out = probe("numpy,torusdiff")
    assert out["env"] == dict.fromkeys(THREAD_VARS)
    if plain["threads"] is None:
        pytest.skip("no OpenBLAS thread-count symbol in this numpy")
    assert out["threads"] == plain["threads"]

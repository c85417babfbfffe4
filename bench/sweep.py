"""Every suite of the benchmark workloads at benchmark seeds 0-40, in one process.

    python3 bench/sweep.py

For each workload under `perfbench/workloads/` and each benchmark seed,
builds the config with perfbench's `seeded_config` (seed n shifts every
suite seed by n * SEED_STRIDE, as the benchmark does) and runs each of its
suites with `run_suite`.  Prints, per workload, suite and check, the
tightest margin over the seeds and the seed where it occurred, then one
line per failure; check names hold no seed, so a check keeps its name
across seeds.  Exits 1 if any suite raised or any check failed at any
seed.  BLAS and OpenMP are pinned to one thread.  It imports torusdiff
from the `src/` next to this directory and reads perfbench's files
without changing them.  Not part of the test suite.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from torusdiff.suites import parse_config, run_suite  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
perfbench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench)

SEEDS = range(41)  # benchmark seeds 0..40


def sweep(workload: str) -> tuple[dict, list[str]]:
    """(tightest {(suite, check name): (margin, seed)}, failure lines) over SEEDS."""
    config = json.loads(perfbench.WORKLOADS[workload].read_text())
    tightest, failures = {}, []
    for seed in SEEDS:
        for entry in parse_config(perfbench.seeded_config(config, seed)):
            suite = entry["suite"]
            try:
                report = run_suite(suite, entry["params"])
            except Exception as exc:  # noqa: BLE001 - any raise is a failure to report
                failures.append(f"{workload} seed {seed} {suite}: raised {exc!r}")
                continue
            for rec in report.checks:
                key = (suite, rec["name"])
                if key not in tightest or rec["margin"] < tightest[key][0]:
                    tightest[key] = (rec["margin"], seed)
                if not rec["pass"]:
                    failures.append(f"{workload} seed {seed} {suite}: {rec['name']} "
                                    f"{rec['value']!r} {rec['sense']} {rec['bound']!r} fails")
    return tightest, failures


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    failures = []
    print(f"{'workload':16s} {'suite':22s} {'check':34s} {'tightest margin':>16s}  seed")
    for workload in perfbench.WORKLOADS:
        began = time.perf_counter()
        tightest, failed = sweep(workload)
        for (suite, name), (margin, seed) in tightest.items():
            print(f"{workload:16s} {suite:22s} {name:34s} {margin:16.6g}  {seed}")
        print(f"{workload}: {len(SEEDS)} seeds in {time.perf_counter() - began:.1f} s, "
              f"{len(failed)} failures")
        failures += failed
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark harnesses: every `bench/run.py` row builds its call, and
every `bench/paths.py` kept path agrees with its alternative."""

import json
import subprocess
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"
PATHS_PY = RUN_PY.with_name("paths.py")

# Loads the script without running `main`, builds every row's call untimed and
# prints the row names.
BUILD_ROWS = """
import json, runpy, sys
rows = runpy.run_path(sys.argv[1])["ROWS"]
for name, build, kwargs in rows:
    assert callable(build(**kwargs)), name
print(json.dumps([name for name, _, _ in rows]))
"""


def test_every_bench_row_builds_its_call():
    # a child process, since importing the script sets BLAS environment variables
    proc = subprocess.run([sys.executable, "-c", BUILD_ROWS, str(RUN_PY)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    names = json.loads(proc.stdout.splitlines()[-1])
    assert len(set(names)) == len(names)
    assert {"evaluate/2d-N64-P4096", "random_field/1d-N256-seeds200", "suite/group-t2"} <= set(names)


# Loads the script without running `main` and prints the rows whose kept and
# alternative calls disagree.
CHECK_PATHS = """
import json, runpy, sys
script = runpy.run_path(sys.argv[1])
print(json.dumps([len(script["PATHS"]), script["check"]()]))
"""


def test_every_kept_path_agrees_with_its_alternative():
    """Each timed pair computes the same thing, so its ratio compares like with
    like; an alternative whose source edit no longer applies fails here too."""
    proc = subprocess.run([sys.executable, "-c", CHECK_PATHS, str(PATHS_PY)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows, differ = json.loads(proc.stdout.splitlines()[-1])
    assert rows >= 12 and differ == []

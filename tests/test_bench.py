"""The benchmark harness: every `bench/run.py` row builds its call, and every
kept path agrees with the alternative it is timed against."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"

# Loads the script without running `main`, builds every row's calls untimed and
# prints the row names, the pair count and the pair rows whose calls disagree.
BUILD_ROWS = """
import json, runpy, sys
script = runpy.run_path(sys.argv[1])
built = [build(**kwargs) for _, build, kwargs in script["ROWS"]]
calls = [call for row in built for call in (row if isinstance(row, tuple) else [row])]
assert all(map(callable, calls)), "a builder returned no call"
names = [name for name, _, _ in script["ROWS"]]
print(json.dumps([names, len(calls) - len(built), script["check"]()]))
"""


@pytest.fixture(scope="module")
def built_rows():
    # a child process, since importing the script sets BLAS environment variables
    proc = subprocess.run([sys.executable, "-c", BUILD_ROWS, str(RUN_PY)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_bench_row_builds_its_call(built_rows):
    names, _, _ = built_rows
    assert len(set(names)) == len(names)
    assert {"evaluate/2d-N64-P4096", "suite/group-t2", "invert/2d-N64"} <= set(names)


def test_every_kept_path_agrees_with_its_alternative(built_rows):
    """Each pair computes the same thing, so its ratio compares like with like;
    an alternative whose source edit no longer applies fails here too."""
    _, pairs, differ = built_rows
    assert pairs == 13 and differ == []

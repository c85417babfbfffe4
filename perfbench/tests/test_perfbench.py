"""Tests of the benchmark harness itself (not part of the tier-1 run).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

SMOKE = HERE / "smoke.json"


def _span(sid, name, start, end, parent, thread, info=None, failed=False):
    # thread CPU time is taken to be 80% of wall time inside every span
    return (sid, name, start, end, parent, thread, info, failed, 0.8 * start, 0.8 * end)


def test_self_times_with_nesting_and_cross_thread_parents():
    main, worker = 1, 2
    spans = [
        _span(1, "suites.group", 0.0, 10.0, None, main),
        _span(2, "diffeo.invert", 1.0, 4.0, 1, main),
        _span(3, "grid.evaluate", 1.5, 2.0, 2, main),
        _span(4, "grid.evaluate", 2.5, 3.5, 2, main),
        # pool-thread root: parent is the suite span, on another thread
        _span(5, "diffeo.make_diffeo", 2.0, 9.0, 1, worker),
        _span(6, "grid.refine", 3.0, 5.0, 5, worker),
    ]
    selfs = tracer.self_times(spans)
    wall = {1: 7.0, 2: 1.5, 3: 0.5, 4: 1.0, 5: 5.0, 6: 2.0}
    assert {k: w for k, (w, _) in selfs.items()} == pytest.approx(wall)
    assert {k: c for k, (_, c) in selfs.items()} == pytest.approx(
        {k: 0.8 * w for k, w in wall.items()}
    )


def test_layer_metrics_counts_and_shares():
    spans = [
        _span(1, "diffeo.invert", 0.0, 5.0, None, 1),
        _span(2, "grid.evaluate", 1.0, 2.0, 1, 1, (4, 40, "a")),
        _span(3, "grid.evaluate", 2.0, 3.0, 1, 1, (4, 40, "a")),
        _span(4, "grid.evaluate", 6.0, 7.0, None, 1, (2, 20, "b")),
        _span(5, "diffeo.make_diffeo", 8.0, 9.0, None, 1, ("x",), True),
        _span(6, "geodesic.geodesic_flow", 9.0, 9.5, None, 1, (256,)),
        _span(7, "geodesic.exp_field", 9.5, 9.8, None, 1, (512,)),
    ]
    m = tracer.layer_metrics(spans)
    assert m["grid.evaluate.calls"] == 3
    assert m["grid.evaluate.points"] == 10
    assert m["grid.evaluate.point_modes"] == 100
    assert m["grid.evaluate.repeat_point_share"] == pytest.approx(1 / 3)
    assert m["diffeo.invert.evaluate_calls_per_call"] == 2.0
    assert m["diffeo.invert.self_s"] == pytest.approx(3.0)
    assert m["diffeo.make_diffeo.errors"] == 1
    assert m["geodesic.point_steps"] == 768
    assert set(run.per_layer_units()) >= set(m)


def test_tracer_wraps_every_binding_and_restores_originals():
    from torusdiff import calculus, diffeo, grid
    from torusdiff.suites import run_suite

    original = grid.evaluate
    t = tracer.Tracer()
    t.install()
    try:
        assert grid.evaluate is not original
        assert diffeo.evaluate is grid.evaluate
        assert calculus.evaluate is grid.evaluate
        # run_suite is looked up again so the wrapped binding is used
        from torusdiff import suites

        suites.run_suite("group", {"size": 16, "trials": 3})
    finally:
        patches = t.uninstall()
    assert patches and tracer.all_restored(patches)
    assert grid.evaluate is original and diffeo.evaluate is original
    assert run_suite is suites.run_suite
    names = {s[1] for s in t.spans}
    assert {"suites.group", "grid.evaluate", "diffeo.invert"} <= names
    main = threading.get_ident()
    suite_id = next(s[0] for s in t.spans if s[1] == "suites.group")
    pool_roots = [s for s in t.spans if s[5] != main and s[4] == suite_id]
    assert pool_roots, "pool-thread spans should hang under the suite span"
    assert min(min(v) for v in tracer.self_times(t.spans).values()) >= 0.0


def test_seeded_config_shifts_every_suite_seed():
    config = {"suites": [{"suite": s} for s in run.ALL_SUITES]}
    assert run.seeded_config(config, 0) is config
    shifted = {e["suite"]: e for e in run.seeded_config(config, 2)["suites"]}
    assert shifted["algebra"]["seed"] == 9 + 2 * run.SEED_STRIDE
    assert shifted["taylor-order"]["seeds"] == [s + 2 * run.SEED_STRIDE for s in (101, 102, 103)]
    assert "seed" not in shifted["taylor-identity"]
    # lipschitz draws seed + 1000 * trial for 50 trials: the widest span
    span = lambda base: set(range(base, base + 1000 * 50, 1000))  # noqa: E731
    one = run.seeded_config(config, 1)["suites"]
    two = run.seeded_config(config, 2)["suites"]
    lip = [next(e["seed"] for e in c if e["suite"] == "lipschitz") for c in (one, two)]
    assert not span(lip[0]) & span(lip[1])


@pytest.mark.xfail(
    strict=True,
    reason="algebra's ±10% envelope-stability verdict depends on the seed: it fails "
    "at benchmark seeds 8, 9, 10, 12, 13, 19, 23, 24, 32 and 37 of 1-40, so "
    "geodesic-fields leaves algebra out",
)
def test_algebra_passes_at_a_shifted_seed():
    from torusdiff.suites import parse_config, run_suite

    [entry] = parse_config(run.seeded_config({"suites": [{"suite": "algebra"}]}, 8))
    assert run_suite("algebra", entry["params"]).passed


def test_default_seed_table_matches_the_suites():
    source = (ROOT / "src" / "torusdiff" / "suites.py").read_text()
    found = {}
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef) or not fn.name.startswith("run_"):
            continue
        for node in ast.walk(fn):
            # the defaults literal: p = {...}
            if (
                isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["p"]
                and isinstance(node.value, ast.Dict)
            ):
                defaults = ast.literal_eval(node.value)
                for key in ("seed", "seeds"):
                    if key in defaults:
                        found[(fn.name, key)] = defaults[key]
    table = {(f"run_{n.replace('-', '_')}", "seed"): v for n, v in run.DEFAULT_SEED.items()}
    table.update(
        {(f"run_{n.replace('-', '_')}", "seeds"): v for n, v in run.DEFAULT_SEEDS.items()}
    )
    assert found == table


def _record(digest="d", passed=True, rc=0, **extra):
    return {"rc": rc, "suites": {"group": {"pass": passed, "digest": digest}}, **extra}


def test_gate_counts_every_kind_of_failure():
    gate = run.Gate(["group"])
    gate.check("p0", _record())
    gate.check("p1", _record())
    assert (gate.attempted, gate.failed) == (2, 0)
    gate.check("p2", _record(digest="other"))
    gate.check("p3", _record(passed=False, rc=1))
    gate.check("p4", _record(rc=1))
    gate.check("p5", _record(restored=False))
    gate.check("p6", {"rc": 1, "suites": {"group": {"pass": False, "error": "boom"}}})
    assert (gate.attempted, gate.failed) == (7, 5)
    assert gate.fail_ratio == pytest.approx(5 / 7)


def test_smoke_config_through_the_harness():
    gate, metrics, record = run.measure(SMOKE, 0, 1.0, False, "test-smoke")
    assert gate.failed == 0 and gate.attempted == run.MIN_PASSES
    assert set(metrics) == set(run.END_TO_END)
    assert all(value > 0 for value, _ in metrics.values())

    counts = []
    for i in range(2):
        gate, metrics, record = run.measure(SMOKE, 0, 1.0, True, f"test-smoke-trace{i}")
        assert gate.failed == 0
        assert record["traced_pass"]["restored"] is True
        assert set(metrics) == set(run.per_layer_units())
        selfs = [v for k, (v, _) in metrics.items() if k.endswith(("self_s", "self_cpu_s"))]
        assert min(selfs) >= 0.0
        # bytes_written includes the wall_time_s field, whose digit count varies
        counts.append(
            {k: v for k, (v, _) in metrics.items() if not k.endswith("_s")
             and k not in ("trace.overhead_ratio", "report.bytes_written")}
        )
    assert counts[0] == counts[1]
    assert counts[0]["grid.evaluate.calls"] > 0


def test_benchmark_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "group-t2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()

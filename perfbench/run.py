"""End-to-end benchmark of `torusdiff verify-all`, with a traced per-layer run.

    python3 perfbench/run.py --workload calculus-t1 --seed 1 --seconds 40 --trace 0

Each pass runs `torusdiff.cli.main(["verify-all", "--config", <workload
config>, "--out-dir", <dir>])` in a fresh interpreter, in the CLI's default
(threaded) mode, one pass at a time.  Passes repeat until `--seconds` is
spent (with `--trace 0` at least two).
`--trace 0` reports the end-to-end metrics as medians over passes;
`--trace 1` runs untraced passes for the suite wall times and then one
traced pass for the per-layer metrics.

Every pass feeds the correctness gate: a suite run fails if it raises,
reports `pass: false`, exits verify-all non-zero, or its report digest
(`SuiteReport.comparison_bytes()`) differs from the first pass of this
invocation.  Any failure prints `"correct": false` and exits with status 1.

Seed 0 runs every suite at its default seed.  Seed n shifts every suite's
`seed`/`seeds` parameter by n * SEED_STRIDE, which exceeds the widest trial
seed span of any suite (`seed + 1000 * trial` in lipschitz reaches +49 000),
so the trial seeds of two benchmark seeds never overlap.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it list
every metric with its unit, median and sample count.  Run records and spans
are written under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "pass_child.py"

sys.path.insert(0, str(HERE))
from tracer import TRACED, layer_metrics  # noqa: E402

WORKLOADS = {
    name: HERE / "workloads" / f"{name}.json"
    for name in ("calculus-t1", "group-t2", "geodesic-fields")
}
ALL_SUITES = (
    "norm-equivalence", "embedding", "algebra", "quotient-rule", "group",
    "taylor-identity", "taylor-order", "inverse-differential", "lipschitz",
    "loss-of-derivative", "geodesic", "fractional",
)
# suites some workload runs, in workload order: each gets a suites.<name>.wall_s
BENCHED_SUITES = tuple(dict.fromkeys(
    entry["suite"]
    for path in WORKLOADS.values()
    for entry in json.loads(path.read_text())["suites"]
))
# the suites' default `seed` / `seeds` parameters (src/torusdiff/suites.py)
DEFAULT_SEED = {
    "norm-equivalence": 1, "embedding": 3, "algebra": 9, "quotient-rule": 21,
    "group": 13, "lipschitz": 31, "geodesic": 19, "fractional": 5,
}
DEFAULT_SEEDS = {"taylor-order": [101, 102, 103]}
SEED_STRIDE = 100_000

SETUP_PROBES = 5
MIN_PASSES = 2
TRACED_PASS_COST = 1.5
CHILD_TIMEOUT_S = 170.0
MONOTONIC = time.CLOCK_MONOTONIC

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(RuntimeError):
    """The harness could not complete a pass; no result is printed."""


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.self_cpu_s"] = "s"
    units.update(
        {
            "grid.evaluate.points": "count",
            "grid.evaluate.point_modes": "count",
            "grid.evaluate.repeat_point_share": "ratio",
            "diffeo.make_diffeo.repeat_input_share": "ratio",
            "diffeo.make_diffeo.errors": "count",
            "diffeo.invert.evaluate_calls_per_call": "count",
            "geodesic.christoffel.points": "count",
            "geodesic.point_steps": "count",
            "report.bytes_written": "bytes",
        }
    )
    for suite in BENCHED_SUITES:
        units[f"suites.{suite}.wall_s"] = "s"
    units.update(
        {
            "cli.overhead_s": "s",
            "trace.overhead_ratio": "ratio",
            "suite_fail_ratio": "ratio",
        }
    )
    return units


def seeded_config(config: dict, seed: int) -> dict:
    """The workload config with every suite seed shifted by seed * SEED_STRIDE."""
    if seed == 0:
        return config
    offset = seed * SEED_STRIDE
    entries = []
    for entry in config["suites"]:
        entry = dict(entry)
        name = entry["suite"]
        if name in DEFAULT_SEED:
            entry["seed"] = entry.get("seed", DEFAULT_SEED[name]) + offset
        if name in DEFAULT_SEEDS:
            entry["seeds"] = [s + offset for s in entry.get("seeds", DEFAULT_SEEDS[name])]
        entries.append(entry)
    return {**config, "suites": entries}


def run_child(*args: str) -> tuple[dict, float]:
    """Run pass_child.py; return its JSON record and the spawn time."""
    spawned = time.clock_gettime(MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {args[0]} timed out after {exc.timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"pass {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1]), spawned


def _median(values):
    return statistics.median(values) if values else 0.0


class Gate:
    """Suite-run failure accounting across every pass of one invocation."""

    def __init__(self, suites: list[str]):
        self.suites = suites
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, label: str, record: dict):
        problems = {}
        if self.reference is None:
            self.reference = {
                s: r.get("digest") for s, r in record["suites"].items()
            }
        for suite in self.suites:
            rep = record["suites"].get(suite, {"pass": False, "error": "missing"})
            if "error" in rep:
                problems[suite] = f"raised: {rep['error']}"
            elif not rep["pass"]:
                problems[suite] = "pass: false"
            elif rep["digest"] != self.reference.get(suite):
                problems[suite] = "report digest differs from the first pass"
        if not problems and record["rc"] != 0:
            problems = {s: f"verify-all exited {record['rc']}" for s in self.suites}
        if not problems and record.get("restored") is False:
            problems = {s: "tracer left a patched name behind" for s in self.suites}
        self.attempted += len(self.suites)
        self.failed += len(problems)
        self.reasons += [f"{label} {s}: {why}" for s, why in problems.items()]

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def measure(config_path: Path, seed: int, seconds: float, trace: bool, tag: str):
    """Run one benchmark invocation; returns (gate, metrics, record)."""
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))
    try:
        config = seeded_config(json.loads(config_path.read_text()), seed)
        cfg = work / "config.json"
        cfg.write_text(json.dumps(config, indent=2))
        suites = [entry["suite"] for entry in config["suites"]]
        gate = Gate(suites)
        began = time.perf_counter()

        setups = []
        for _ in range(SETUP_PROBES):
            rec, spawned = run_child("setup", str(cfg))
            setups.append(rec["ready"] - spawned)

        # start a pass only while it (and, when tracing, the traced pass,
        # allowed TRACED_PASS_COST times the longest untraced one) should
        # end within `seconds`
        passes = []
        longest = 0.0
        reserve = TRACED_PASS_COST if trace else 0.0
        least = 1 if trace else MIN_PASSES
        while True:
            elapsed = time.perf_counter() - began
            if len(passes) >= least and elapsed + longest * (1 + reserve) > seconds:
                break
            t0 = time.perf_counter()
            rec, spawned = run_child("pass", str(cfg), str(work / f"pass-{len(passes)}"))
            longest = max(longest, time.perf_counter() - t0)
            setups.append(rec["ready"] - spawned)
            gate.check(f"pass {len(passes)}", rec)
            passes.append(rec)

        record = {
            "seed": seed,
            "seed_offset": seed * SEED_STRIDE,
            "seconds": seconds,
            "config": config,
            "setup_samples_s": setups,
            "passes": passes,
        }
        walls = [p["wall_s"] for p in passes]
        if not trace:
            metrics = {
                "wall_s": (_median(walls), len(walls)),
                "cpu_s": (_median([p["cpu_s"] for p in passes]), len(passes)),
                "setup_s": (_median(setups), len(setups)),
                "peak_rss_mib": (
                    _median([p["peak_rss_mib"] for p in passes]), len(passes)
                ),
            }
            return gate, metrics, record

        spans_file = OUT / f"{tag}-spans.json"
        rec, _ = run_child("trace", str(cfg), str(work / "traced"), str(spans_file))
        gate.check("traced pass", rec)
        record["traced_pass"] = rec
        spans = [tuple(s) for s in json.loads(spans_file.read_text())]
        layers = layer_metrics(spans)
        metrics = {name: (value, 1) for name, value in layers.items()}
        suite_walls = {s: [] for s in BENCHED_SUITES}
        overheads = []
        for p in passes:
            for s, rep in p["suites"].items():
                if "wall_time_s" in rep:
                    suite_walls[s].append(rep["wall_time_s"])
            overheads.append(
                p["wall_s"] - sum(r.get("wall_time_s", 0.0) for r in p["suites"].values())
            )
        for s, vals in suite_walls.items():
            metrics[f"suites.{s}.wall_s"] = (_median(vals), len(vals))
        metrics["cli.overhead_s"] = (_median(overheads), len(overheads))
        metrics["trace.overhead_ratio"] = (rec["wall_s"] / _median(walls), len(walls))
        metrics["suite_fail_ratio"] = (gate.fail_ratio, gate.attempted)
        return gate, metrics, record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "torusdiff").is_dir():
        print("error: no torusdiff sources under src/", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        gate, metrics, record = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), tag
        )
        env, _ = run_child("env")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    units = per_layer_units() if args.trace else END_TO_END
    record.update({"workload": args.workload, "environment": env, "metrics": {
        name: {"value": value, "unit": units[name], "samples": n}
        for name, (value, n) in metrics.items()
    }})
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed} "
          f"(suite seeds +{args.seed * SEED_STRIDE})  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"suite runs {gate.attempted}  failed {gate.failed}  "
          f"suite_fail_ratio {gate.fail_ratio:.4f}")
    for reason in gate.reasons:
        print(f"  FAIL {reason}")
    for name in units:
        value, n = metrics[name]
        print(f"{name:48s} {units[name]:6s} median {value:.6g}  n={n}")
    correct = gate.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": units[name]} for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""`torusdiff compare OLD NEW`: how the suite reports of two `verify-all
--out-dir` directories differ, without hashing them by hand.

Kept out of `report` so that the commands which only run suites do not
load it (without cached bytecode, compiling it would add about 1 ms to
every start): the CLI imports it when `compare` runs.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from pathlib import Path

from .report import SuiteReport


def load_report_dir(path) -> dict[str, SuiteReport]:
    """Every suite report of a `verify-all --out-dir` directory, by suite name,
    read through the strict SuiteReport.from_dict."""
    reports = {}
    for file in sorted(Path(path).glob("*.json")):
        if file.name != "summary.json":
            with open(file) as fh:
                rep = SuiteReport.from_dict(json.load(fh))
            reports[rep.suite] = rep
    if not reports:
        raise ValueError(f"no suite reports in {str(path)!r}")
    return reports


def _leaves(obj, path: str = ""):
    """(path, value) for every scalar of a JSON-like value, in document order."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else str(key))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def _ordered_bits(x: float) -> int:
    """An integer that counts the floats below x, so that two floats of equal
    sign differ by their ulp distance."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & (2**63 - 1))


def _delta(a, b) -> str:
    """'a -> b' with the change in ulps, or relative where they are far apart."""
    text = f"{a!r} -> {b!r}"
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in (a, b)):
        return text
    if isinstance(a, int) and isinstance(b, int):
        return f"{text} ({b - a:+d})"
    if not (math.isfinite(a) and math.isfinite(b)):
        return text
    ulps = _ordered_bits(float(b)) - _ordered_bits(float(a))
    if abs(ulps) <= 1_000_000:
        return f"{text} ({ulps:+d} ulp)"
    return f"{text} ({(b - a) / max(abs(a), abs(b)):+.2e} rel)"


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _renamed(old: str, new: str) -> str:
    return old if old == new else f"{old} -> {new}"


def _leaf_lines(label: str, old, new) -> list[str]:
    """One line per leaf of `old`/`new` that changed value or path, leaves paired
    by position (a report's layout is fixed by its suite and params)."""
    lines = []
    for a, b in itertools.zip_longest(_leaves(old), _leaves(new)):
        if a is None or b is None:
            (path, value), side = (b, "NEW") if a is None else (a, "OLD")
            lines.append(f"  {label} {path}: {value!r} only in {side}")
        elif a != b:
            change = _delta(a[1], b[1]) if a[1] != b[1] else f"{a[1]!r} (equal)"
            lines.append(f"  {label} {_renamed(a[0], b[0])}: {change}")
    return lines


def compare_reports(old: dict, new: dict) -> tuple[list[str], bool]:
    """Lines describing how each suite's report in `new` differs from `old`
    (both name -> SuiteReport), and whether any verdict changed or a suite is
    missing from one side.  Per suite: "equal comparison_bytes", or each
    verdict change, each check's value, bound and margin delta (checks paired
    by position), each aggregate and param delta, and a count of trial
    values that differ or exist on one side only (paired by path)."""
    lines, verdicts, equal = [], 0, 0
    for suite in sorted(set(old) | set(new)):
        if suite not in old or suite not in new:
            lines.append(f"{suite}: missing from {'OLD' if suite not in old else 'NEW'}")
            continue
        a, b = old[suite], new[suite]
        if a.comparison_bytes() == b.comparison_bytes():
            lines.append(f"{suite}: equal comparison_bytes")
            equal += 1
            continue
        lines.append(f"{suite}: comparison_bytes differ")
        if a.passed != b.passed:
            lines.append(f"  VERDICT {_verdict(a.passed)} -> {_verdict(b.passed)}")
            verdicts += 1
        lines += _leaf_lines("param", a.params, b.params)
        for ca, cb in itertools.zip_longest(a.checks, b.checks):
            if ca is None or cb is None:
                c, side = (cb, "NEW") if ca is None else (ca, "OLD")
                lines.append(f"  check {c['name']}: only in {side}")
                continue
            parts = [f"{key} {_delta(ca[key], cb[key])}" for key in ("value", "bound", "margin")
                     if ca[key] != cb[key]]
            if ca["pass"] != cb["pass"]:
                parts.insert(0, f"VERDICT {_verdict(ca['pass'])} -> {_verdict(cb['pass'])}")
                verdicts += 1
            if parts or ca["name"] != cb["name"]:
                lines.append(f"  check {_renamed(ca['name'], cb['name'])}: {', '.join(parts) or 'equal'}")
        lines += _leaf_lines("aggregate", a.aggregate, b.aggregate)
        ta, tb = dict(_leaves(a.trials)), dict(_leaves(b.trials))
        changed = sum(path not in ta or path not in tb or ta[path] != tb[path]
                      for path in ta.keys() | tb.keys())
        if changed:
            lines.append(f"  trials: {changed} of {len(ta.keys() | tb.keys())} values differ")
    missing = len(set(old) ^ set(new))
    lines.append(f"{len(set(old) | set(new))} suites: {equal} equal, "
                 f"{len(set(old) & set(new)) - equal} differ, {missing} missing, "
                 f"{verdicts} verdict changes")
    return lines, bool(verdicts or missing)

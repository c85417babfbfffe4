"""Outside-in span tracing of torusdiff's public layer functions.

`Tracer.install()` replaces each traced function with a timing wrapper in
every loaded torusdiff module that holds it, so calls bound by
`from .grid import evaluate` are caught as well as `grid.evaluate(...)`.
`Spectrum.__post_init__` and `SuiteReport.to_json` are wrapped on their
classes.  `uninstall()` puts every original back.

Spans are kept in memory as tuples and written out by the caller.  Each
thread keeps its own span stack; a span opened on an empty stack in a
thread-pool worker gets the open suite span as its parent, so work done in
`_map_trials` workers is attributed to the suite that scheduled it.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict

# layer metric name -> (defining module, attribute); "Class.attr" wraps a method
TRACED = {
    "grid.evaluate": ("torusdiff.grid", "evaluate"),
    "grid.forward_transform": ("torusdiff.grid", "forward_transform"),
    "grid.inverse_transform": ("torusdiff.grid", "inverse_transform"),
    "grid.refine": ("torusdiff.grid", "refine"),
    "grid.band_project": ("torusdiff.grid", "band_project"),
    "grid.random_field": ("torusdiff.grid", "random_field"),
    "grid.spectrum_init": ("torusdiff.grid", "Spectrum.__post_init__"),
    "algebra.multiply": ("torusdiff.algebra", "multiply"),
    "algebra.divide": ("torusdiff.algebra", "divide"),
    "norms.hs_norm": ("torusdiff.norms", "hs_norm"),
    "norms.hs_norm_derivative": ("torusdiff.norms", "hs_norm_derivative"),
    "norms.cr_norm": ("torusdiff.norms", "cr_norm"),
    "norms.slobodeckij_seminorm": ("torusdiff.norms", "slobodeckij_seminorm"),
    "diffeo.make_diffeo": ("torusdiff.diffeo", "make_diffeo"),
    "diffeo.invert": ("torusdiff.diffeo", "invert"),
    "diffeo.compose_function": ("torusdiff.diffeo", "compose_function"),
    "diffeo.compose_diffeo": ("torusdiff.diffeo", "compose_diffeo"),
    "calculus.remainder_r1": ("torusdiff.calculus", "remainder_r1"),
    "calculus.remainder_r2": ("torusdiff.calculus", "remainder_r2"),
    "calculus.path_diffeo": ("torusdiff.calculus", "path_diffeo"),
    "calculus.eta_k": ("torusdiff.calculus", "eta_k"),
    "calculus.remainder_order_probe": ("torusdiff.calculus", "remainder_order_probe"),
    "geodesic.christoffel": ("torusdiff.geodesic", "christoffel"),
    "geodesic.geodesic_flow": ("torusdiff.geodesic", "geodesic_flow"),
    "geodesic.exp_field": ("torusdiff.geodesic", "exp_field"),
    "report.to_json": ("torusdiff.report", "SuiteReport.to_json"),
}
# the suite span: its name is "suites.<suite name>", taken from the call
SUITE_SPAN = ("torusdiff.suites", "run_suite")


def _digest(a) -> str:
    h = hashlib.blake2b(str((a.dtype, a.shape)).encode(), digest_size=16)
    h.update(a.tobytes())
    return h.hexdigest()


def _arg_getter(fn):
    """get(args, kwargs, name): a call's argument by name, default filled in."""
    params = list(inspect.signature(fn).parameters.values())
    index = {p.name: i for i, p in enumerate(params)}
    defaults = {p.name: p.default for p in params}

    def get(args, kwargs, name):
        i = index[name]
        return args[i] if i < len(args) else kwargs.get(name, defaults[name])

    return get


def _evaluate_info(get, args, kwargs):
    import numpy as np

    F = get(args, kwargs, "F")
    pts = np.asarray(get(args, kwargs, "points"), dtype=np.float64)
    P = pts.shape[0]
    modes = (F.spec.size + 1) ** F.spec.dim * F.coeffs.shape[0]
    return (P, P * modes, _digest(pts))


def _make_diffeo_info(get, args, kwargs):
    u = get(args, kwargs, "displacement")
    rest = [get(args, kwargs, k) for k in ("min_det_floor", "refine_factor", "check_contraction")]
    return (_digest(u.coeffs) + repr(rest),)


def _christoffel_info(get, args, kwargs):
    return (math.prod(getattr(get(args, kwargs, "z"), "shape", ())[:-1]),)


def _geodesic_flow_info(get, args, kwargs):
    return (int(get(args, kwargs, "steps")),)


def _exp_field_info(get, args, kwargs):
    f = get(args, kwargs, "f")
    return (int(get(args, kwargs, "steps")) * f.spec.num_points,)


# per-call inputs recorded next to the span, computed before the call starts
INFO = {
    "grid.evaluate": _evaluate_info,
    "diffeo.make_diffeo": _make_diffeo_info,
    "geodesic.christoffel": _christoffel_info,
    "geodesic.geodesic_flow": _geodesic_flow_info,
    "geodesic.exp_field": _exp_field_info,
}


class Tracer:
    """Records one span per traced call: (id, name, start, end, parent,
    thread, info, failed, cpu_start, cpu_end).

    start/end are `perf_counter` times; cpu_start/cpu_end are the calling
    thread's CPU clock (`thread_time`), which excludes time spent waiting
    for the interpreter lock or a core.
    """

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._suite_span = None
        self._patches = []  # (owner, attribute, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, suite=False):
        """`fn` recording a span per call.  With `suite=True` the span is
        named `suites.<first argument>` and is the parent of root spans
        opened in other threads while it is open."""
        info_of = INFO.get(name)
        get = _arg_getter(fn) if info_of else None
        spans = self.spans
        result_bytes = name == "report.to_json"

        def traced(*args, **kwargs):
            info = info_of(get, args, kwargs) if info_of else None
            stack = self._stack()
            parent = stack[-1] if stack else self._suite_span
            sid = next(self._ids)
            stack.append(sid)
            if suite:
                self._suite_span = sid
            failed = True
            start, cpu_start = time.perf_counter(), time.thread_time()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                end, cpu_end = time.perf_counter(), time.thread_time()
                stack.pop()
                if suite:
                    self._suite_span = None
                if result_bytes and not failed:
                    info = (len(out.encode()),)
                spans.append(
                    (sid, f"suites.{args[0]}" if suite else name, start, end,
                     parent, threading.get_ident(), info, failed, cpu_start, cpu_end)
                )

        return traced

    def _patch_everywhere(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "torusdiff" and not mod_name.startswith("torusdiff."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, (mod_name, attr) in TRACED.items():
            module = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original))
            else:
                original = getattr(module, attr)
                self._patch_everywhere(original, self.wrap(name, original))
        mod_name, attr = SUITE_SPAN
        original = getattr(sys.modules[mod_name], attr)
        self._patch_everywhere(original, self.wrap("suites", original, suite=True))

    def uninstall(self) -> list:
        """Put every original back; returns the (owner, name, original) list."""
        restored = []
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            restored.append((owner, attr, original))
        return restored


def all_restored(patches) -> bool:
    """True when every patched name `is` its original object again."""
    return all(vars(owner)[attr] is original for owner, attr, original in patches)


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans) -> dict:
    """span id -> (self wall seconds, self CPU seconds).

    Self wall time is the span's duration minus the union of its
    same-thread children's intervals.  Children on another thread (pool
    workers under a suite span) run concurrently and do not cover their
    parent's time.  Child intervals are clipped to the parent, so a self
    time is never negative.  Self CPU time subtracts the children's
    thread-CPU time the same way.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        parent = by_id.get(s[4])
        if parent is not None and parent[5] == s[5]:
            children[s[4]].append(s)
    out = {}
    for s in spans:
        sid, start, end = s[0], s[2], s[3]
        covered = cpu_covered = 0.0
        cursor = start
        for c in sorted(children.get(sid, ()), key=lambda c: c[2]):
            c0, c1 = max(c[2], cursor), min(c[3], end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
            cpu_covered += c[9] - c[8]
        out[sid] = ((end - start) - covered, max(0.0, (s[9] - s[8]) - cpu_covered))
    return out


def _has_ancestor(span, name, by_id) -> bool:
    parent = by_id.get(span[4])
    while parent is not None:
        if parent[1] == name:
            return True
        parent = by_id.get(parent[4])
    return False


def _repeat_share(keys) -> float:
    if not keys:
        return 0.0
    return 1.0 - len(set(keys)) / len(keys)


def layer_metrics(spans) -> dict:
    """Per-layer counts and self times from one traced pass."""
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
    out = {}
    for name in TRACED:
        calls = by_name.get(name, [])
        out[f"{name}.calls"] = len(calls)
        out[f"{name}.self_s"] = sum(selfs[s[0]][0] for s in calls)
        out[f"{name}.self_cpu_s"] = sum(selfs[s[0]][1] for s in calls)
    ev = by_name.get("grid.evaluate", [])
    out["grid.evaluate.points"] = sum(s[6][0] for s in ev)
    out["grid.evaluate.point_modes"] = sum(s[6][1] for s in ev)
    out["grid.evaluate.repeat_point_share"] = _repeat_share([s[6][2] for s in ev])
    md = by_name.get("diffeo.make_diffeo", [])
    out["diffeo.make_diffeo.repeat_input_share"] = _repeat_share([s[6][0] for s in md])
    out["diffeo.make_diffeo.errors"] = sum(1 for s in md if s[7])
    inv_calls = len(by_name.get("diffeo.invert", []))
    in_invert = sum(1 for s in ev if _has_ancestor(s, "diffeo.invert", by_id))
    out["diffeo.invert.evaluate_calls_per_call"] = (
        in_invert / inv_calls if inv_calls else 0.0
    )
    out["geodesic.christoffel.points"] = sum(
        s[6][0] for s in by_name.get("geodesic.christoffel", [])
    )
    out["geodesic.point_steps"] = sum(
        s[6][0]
        for key in ("geodesic.geodesic_flow", "geodesic.exp_field")
        for s in by_name.get(key, [])
    )
    out["report.bytes_written"] = sum(
        s[6][0] for s in by_name.get("report.to_json", []) if s[6] is not None
    )
    return out

"""Command-line front end.

`torusdiff verify <suite>` runs one named verification suite and writes a
JSON report; `verify-all` runs a whole config.  The `norm`, `compose`, and
`invert` subcommands operate on serialized fields and diffeomorphisms so
results can be scripted without touching Python.  Exit status is 0 exactly
when every requested check passed.  `compare OLD NEW` diffs two
`verify-all --out-dir` directories and fails only on a verdict change or a
suite missing from one side.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .diffeo import InversionError, compose_function, invert
from .grid import forward_transform, inverse_transform
from .norms import (
    cr_norm,
    hs_norm,
    hs_norm_derivative,
    slobodeckij_seminorm,
)
from .report import (
    SuiteReport,
    diffeo_to_dict,
    dump_json,
    load_diffeo,
    load_field,
    spectrum_to_dict,
)
from .suites import SUITES, default_config, normalize_params, parse_config, run_all


def _read_config(path: str | None) -> dict:
    if path is None:
        return default_config()
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _suite_params(config: dict, suite: str) -> dict:
    """Params for `suite`: its entry in a config's `suites` list, or a flat object."""
    if not isinstance(config, dict) or "suites" in config:
        entries = parse_config(config)
        return next((e["params"] for e in entries if e["suite"] == suite), {})
    if "suite" in config:  # only a `suites` entry names its suite
        raise ValueError("unknown parameter 'suite' in a flat config")
    return dict(config)


def _describe(c: dict) -> str:
    bound = "[{:.6g}, {:.6g}]".format(*c["bound"]) if c["sense"] == "in" else f"{c['bound']:.6g}"
    return f"{c['name']} {c['value']:.6g} {c['sense']} {bound}, margin {c['margin']:.2g}"


def _print_report_line(rep: SuiteReport):
    line = f"{rep.suite}: {'PASS' if rep.passed else 'FAIL'} ({rep.wall_time_s:.2f}s)"
    if rep.checks:
        line += f"; tightest {_describe(min(rep.checks, key=lambda c: c['margin']))}"
    print(line)


def cmd_verify(args) -> int:
    config = _read_config(args.config)
    params = normalize_params(_suite_params(config, args.suite))  # so --grid wins over N
    if args.seed is not None:
        params["seed"] = args.seed
    if args.grid is not None:
        params["size"] = args.grid
    reports, summary = run_all({"suites": [{"suite": args.suite, **params}]})
    if not reports:
        print(f"error: {summary['suites'][0]['error']}", file=sys.stderr)
        return 1
    [report] = reports
    _print_report_line(report)
    for c in (c for c in report.checks if not c["pass"]):
        print(f"  failed {_describe(c)}", file=sys.stderr)
    if args.out:
        report.to_json(args.out)
    return 0 if report.passed else 1


def cmd_verify_all(args) -> int:
    config = _read_config(args.config)
    try:
        parse_config(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports, summary = run_all(config)
    if "warning" in summary:
        print(f"warning: {summary['warning']}", file=sys.stderr)
    ran = iter(reports)  # a report for each entry without an error, in order
    for entry in summary["suites"]:
        _print_report_line(SuiteReport(entry["suite"], {}) if "error" in entry else next(ran))
        if "error" in entry:
            print(f"  error: {entry['error']}", file=sys.stderr)
    print(f"overall: {'PASS' if summary['pass'] else 'FAIL'}")
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for rep in reports:
            rep.to_json(out / f"{rep.suite}.json")
        dump_json(summary, out / "summary.json")
    return 0 if summary["pass"] else 1


def cmd_compare(args) -> int:
    from .compare import compare_reports, load_report_dir  # only this command needs it

    lines, broken = compare_reports(load_report_dir(args.old), load_report_dir(args.new))
    print("\n".join(lines))
    return 1 if broken else 0


def cmd_norm(args) -> int:
    F = load_field(args.infile)
    s = args.s
    if args.kind == "sobolev":
        value, method, params = hs_norm(F, s), "fourier", {"s": s}
    elif args.kind == "derivative":  # this kind and cr raise on a non-integer s
        value, method = hs_norm_derivative(inverse_transform(F), s), "derivative"
        params = {"s": int(s)}
    elif args.kind == "cr":
        value, method, params = cr_norm(inverse_transform(F), s), "grid-sup", {"r": int(s)}
    else:
        value = slobodeckij_seminorm(inverse_transform(F), s)
        method, params = "double-sum", {"lam": s}
    payload = {"norm_value": value, "method": method, "params": params}
    print(dump_json(payload, args.out))
    return 0


def cmd_compose(args) -> int:
    F = load_field(args.field)
    composed = compose_function(F, load_diffeo(args.phi))
    payload = spectrum_to_dict(forward_transform(composed))
    text = dump_json(payload, args.out)
    if args.out is None:
        print(text)
    return 0


def cmd_invert(args) -> int:
    payload = diffeo_to_dict(invert(load_diffeo(args.phi)))
    text = dump_json(payload, args.out)
    if args.out is None:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusdiff",
        description="Verification suites for Sobolev calculus on torus diffeomorphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run one named suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--config", default=None, help="JSON config path")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--grid", type=int, default=None, help="grid size override")
    p_verify.add_argument("--out", default=None, help="report output path")
    p_verify.set_defaults(func=cmd_verify)

    p_all = sub.add_parser("verify-all", help="run every suite in a config")
    p_all.add_argument("--config", default=None, help="JSON config path")
    p_all.add_argument("--out-dir", default=None, help="directory for reports")
    p_all.set_defaults(func=cmd_verify_all)

    p_cmp = sub.add_parser("compare", help="diff two verify-all --out-dir directories")
    p_cmp.add_argument("old", help="directory of the old reports")
    p_cmp.add_argument("new", help="directory of the new reports")
    p_cmp.set_defaults(func=cmd_compare)

    p_norm = sub.add_parser("norm", help="norm of a serialized field")
    p_norm.add_argument("infile", help="field JSON path")
    p_norm.add_argument("--s", type=float, required=True)
    p_norm.add_argument(
        "--kind",
        choices=["sobolev", "derivative", "cr", "slobodeckij"],
        default="sobolev",
    )
    p_norm.add_argument("--out", default=None)
    p_norm.set_defaults(func=cmd_norm)

    p_comp = sub.add_parser("compose", help="compose a field with a diffeomorphism")
    p_comp.add_argument("field", help="field JSON path")
    p_comp.add_argument("phi", help="diffeo JSON path")
    p_comp.add_argument("--out", default=None)
    p_comp.set_defaults(func=cmd_compose)

    p_inv = sub.add_parser("invert", help="invert a serialized diffeomorphism")
    p_inv.add_argument("phi", help="diffeo JSON path")
    p_inv.add_argument("--out", default=None)
    p_inv.set_defaults(func=cmd_invert)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError, InversionError) as exc:
        # malformed paths/payloads and failed certification or inversion
        # should not produce a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

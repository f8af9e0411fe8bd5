"""Command-line surface: run scans, execute acceptance suites, inspect models.

Verbs
-----
run <config.json>            run the configured eps scan, write a report
suite <name>                 run an acceptance suite (exit 0 iff it passes)
list-models                  print the built-in model tags
hitting-times <config.json>  print the classical exit times for the config
report <result.json>         re-emit a saved result in another format
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (
    SUITE_NAMES,
    ExperimentConfig,
    emit_report,
    eps_scan,
    load_result,
    run_suite,
)
from .models import list_models


def _cmd_run(args):
    cfg = ExperimentConfig.from_file(args.config)
    result = eps_scan(cfg)
    out = args.output or "scan_result.json"
    emit_report(result, out, fmt=args.format, include_timing=args.timing)
    print(f"functional: {result.functional}")
    for pt in result.points:
        if pt["status"] == "ok":
            print(f"  eps={pt['eps']:<8g} t={pt['t']:<6g} error={pt['error']:.6e}")
        else:
            print(f"  eps={pt['eps']:<8g} t={pt['t']:<6g} ERROR {pt['message']}")
    slope = "n/a" if result.slope is None else f"{result.slope:.4f}"
    print(f"fitted slope: {slope}  (residual {result.fit_residual}, "
          f"dropped_largest_eps={result.dropped_largest_eps})")
    print(f"report written to {out}")
    return 0


def _cmd_suite(args):
    report = run_suite(args.name, seed=args.seed)
    for line in report.lines():
        print(line)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report.to_json())
        print(f"report written to {args.output}")
    print(f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_list_models(args):
    for tag in list_models():
        print(tag)
    return 0


def _cmd_hitting_times(args):
    cfg = ExperimentConfig.from_file(args.config)
    if cfg.window is None or cfg.region is None:
        print("configuration has no window/region; nothing to compute", file=sys.stderr)
        return 2
    t_minus, t_plus = cfg.hitting_window()
    print(f"T- = {t_minus:.6f}")
    print(f"T+ = {t_plus:.6f}")
    return 0


def _cmd_report(args):
    out = args.output or (args.result.rsplit(".", 1)[0] + "." + args.format)
    if Path(out).resolve() == Path(args.result).resolve():
        print(f"output {out} is the input result; pass another --output", file=sys.stderr)
        return 2
    result = load_result(args.result)
    emit_report(result, out, fmt=args.format)
    print(f"report written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="adiband", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("run", help="run a configured eps scan")
    p.add_argument("config")
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--timing", action="store_true", help="include wall-clock data in the report")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("suite", help="run an acceptance suite")
    p.add_argument("name", choices=SUITE_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("list-models", help="print built-in model tags")
    p.set_defaults(fn=_cmd_list_models)

    p = sub.add_parser("hitting-times", help="classical exit times for a config")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_hitting_times)

    p = sub.add_parser("report", help="re-emit a saved result")
    p.add_argument("result")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

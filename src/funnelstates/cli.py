"""Command line interface: verify, suites, demo.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 configuration
error, an unwritable report path included.  The default output directory can be overridden with the
FUNNELSTATES_OUT_DIR environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .errors import ConfigurationError
from .runner import (
    ScenarioConfig,
    emit_demo_tables,
    list_suites,
    load_config,
    run,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funnelstates",
        description="seeded verification suites for excitation states on matrix-algebra towers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites and write a report")
    verify.add_argument("--config", help="path to a JSON scenario configuration")
    verify.add_argument("--suite", action="append", default=None,
                        help="restrict to a suite id (repeatable)")
    verify.add_argument("--seed", type=int, default=None, help="override the master seed")
    verify.add_argument("--out", default=None, help="report path (default: report.json)")

    sub.add_parser("suites", help="list the registered suites")

    demo = sub.add_parser("demo", help="print worked-example tables")
    demo.add_argument("--config", help="path to a JSON scenario configuration")
    return parser


def _resolve_config(args) -> ScenarioConfig:
    config = load_config(args.config) if args.config else ScenarioConfig()
    overrides = {}
    if getattr(args, "suite", None):
        overrides["suites"] = tuple(args.suite)
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return dataclasses.replace(config, **overrides)


def _output_path(args) -> Path:
    """The report path; its directory is made, and the path checked, before any suite runs."""
    out = getattr(args, "out", None)
    path = Path(out) if out else Path(os.environ.get("FUNNELSTATES_OUT_DIR", ".")) / "report.json"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot make the report directory {path.parent}: {exc}") from exc
    if path.is_dir() or not os.access(path if path.exists() else path.parent, os.W_OK):
        raise ConfigurationError(f"report path {path} is a directory or not writable")
    return path


def _cmd_verify(args) -> int:
    config = _resolve_config(args)
    path = _output_path(args)
    report = run(config)
    path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")

    for suite in report.suites:
        if suite.error is not None:
            print(f"[fail] {suite.suite_id}: {suite.error}")
            continue
        failed = [c for c in suite.checks if c.status == "fail"]
        status = "fail" if failed else "pass"
        print(f"[{status}] {suite.suite_id} ({len(suite.checks)} checks)")
        for c in failed:
            print(f"    {c.check_id}: residual {c.residual:.3e} vs {c.comparator} {c.tolerance:.3e}")
    counts = report.counts()
    print(f"checks: {counts['pass']} pass, {counts['fail']} fail, {counts['skipped']} skipped")
    print(f"report: {path}")
    return 0 if report.passed else 1


def _cmd_suites() -> int:
    for info in list_suites():
        count = "fixed work" if info["count"] is None else f"{info['count']} samples"
        tol = "no tolerance" if info["tolerance"] is None else f"tolerance {info['tolerance']:g}"
        print(f"{info['id']:<18} {info['claim']} ({count}, {tol})")
        print(f"{'':<18} {info['description']}")
    print(f"{len(list_suites())} suites registered")
    return 0


def _cmd_demo(args) -> int:
    config = _resolve_config(args)
    print(emit_demo_tables(config))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "suites":
            return _cmd_suites()
        if args.command == "demo":
            return _cmd_demo(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())

"""``python -m repro.analysis`` -- the command-line entry point.

Two modes share the entry point:

* ``python -m repro.analysis [paths]`` -- run the lint rules (exit
  codes: 0 clean, 1 new findings -- or stale baseline entries under
  ``--strict-baseline``, stale suppressions under
  ``--strict-suppressions`` -- 2 usage/configuration error);
* ``python -m repro.analysis impact --since <rev>`` -- golden-cone
  impact analysis: which experiment suites can observe the changes
  since ``<rev>`` (exit 0 with a report; 2 when git or the arguments
  fail).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.baseline import (
    Baseline,
    DEFAULT_BASELINE_NAME,
)
from repro.analysis.registry import all_rules
from repro.analysis.reporters import render_json, render_text
from repro.analysis.runner import run_analysis

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Static determinism / unit-consistency / API-drift / "
            "worker-safety / whole-program flow checks for the repro "
            "codebase.  Use the 'impact' subcommand for golden-cone "
            "impact analysis."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help=(
            "baseline file of accepted findings (default: "
            f"./{DEFAULT_BASELINE_NAME} when it exists)"
        ),
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="record current findings into the baseline file and exit 0",
    )
    parser.add_argument(
        "--reason", default="accepted during baseline capture",
        help="justification stored with --write-baseline entries",
    )
    parser.add_argument(
        "--strict-baseline", action="store_true",
        help="fail when baseline entries no longer match anything",
    )
    parser.add_argument(
        "--strict-suppressions", action="store_true",
        help=(
            "fail when '# repro: ignore' comments no longer suppress "
            "anything"
        ),
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def build_impact_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis impact",
        description=(
            "Golden-cone impact analysis: intersect the functions "
            "changed since a git revision with the reverse-reachability "
            "cone of every experiment suite's evaluate path, and report "
            "which golden suites a change can observe."
        ),
    )
    parser.add_argument(
        "--since", required=True,
        help="git revision to diff against (e.g. origin/main, HEAD~1)",
    )
    parser.add_argument(
        "--root", type=Path, default=None, action="append",
        help="source roots to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="also write the JSON report to this file",
    )
    return parser


def impact_main(argv: Optional[List[str]] = None) -> int:
    from repro.analysis.flow.impact import run_impact

    parser = build_impact_parser()
    args = parser.parse_args(argv)

    roots: List[Path] = args.root or [Path("src/repro")]
    for root in roots:
        if not root.exists():
            print(f"error: no such path: {root}", file=sys.stderr)
            return EXIT_USAGE

    try:
        report = run_impact(args.since, roots)
    except (RuntimeError, OSError, SyntaxError, UnicodeDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE

    if args.out is not None:
        args.out.write_text(report.render_json() + "\n", encoding="utf-8")
    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "impact":
        return impact_main(argv[1:])

    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.name}")
            print(f"    {rule.description}")
        return EXIT_OK

    paths: List[Path] = args.paths or [Path("src/repro")]
    for path in paths:
        if not path.exists():
            print(f"error: no such path: {path}", file=sys.stderr)
            return EXIT_USAGE

    select: Optional[List[str]] = None
    if args.select:
        select = [part.strip().upper() for part in args.select.split(",") if part.strip()]
        if not select:
            print("error: --select given but empty", file=sys.stderr)
            return EXIT_USAGE

    baseline_path: Optional[Path] = None
    baseline: Optional[Baseline] = None
    if not args.no_baseline:
        baseline_path = args.baseline
        if baseline_path is None:
            candidate = Path(DEFAULT_BASELINE_NAME)
            if candidate.exists() or args.write_baseline:
                baseline_path = candidate
        if baseline_path is not None and baseline_path.exists():
            try:
                baseline = Baseline.load(baseline_path)
            except (ValueError, KeyError) as error:
                print(f"error: {error}", file=sys.stderr)
                return EXIT_USAGE

    try:
        report = run_analysis(
            paths,
            select=select,
            baseline=None if args.write_baseline else baseline,
        )
    except SyntaxError as error:
        print(f"error: cannot parse {error.filename}: {error}", file=sys.stderr)
        return EXIT_USAGE
    except UnicodeDecodeError as error:
        print(f"error: cannot decode source file: {error}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as error:
        print(f"error: cannot read source file: {error}", file=sys.stderr)
        return EXIT_USAGE

    if args.write_baseline:
        if baseline_path is None:
            print(
                "error: --write-baseline needs --baseline with --no-baseline",
                file=sys.stderr,
            )
            return EXIT_USAGE
        Baseline.from_findings(report.new_findings, args.reason).save(
            baseline_path
        )
        print(
            f"wrote {len(report.new_findings)} finding(s) to {baseline_path}"
        )
        return EXIT_OK

    if args.format == "json":
        output = render_json(report)
    else:
        output = render_text(report)
    print(output)

    if not report.ok:
        return EXIT_FINDINGS
    if args.strict_baseline and report.stale_baseline_entries:
        return EXIT_FINDINGS
    if args.strict_suppressions and report.stale_suppressions:
        return EXIT_FINDINGS
    return EXIT_OK


__all__ = [
    "EXIT_FINDINGS",
    "EXIT_OK",
    "EXIT_USAGE",
    "build_impact_parser",
    "build_parser",
    "impact_main",
    "main",
]

"""Command-line front end for the static-analysis subsystem.

Invoked as ``python -m repro.lint [<paths>]``; with no paths it lints
the default roots (``src``, ``tests``, ``benchmarks``, ``examples`` —
whichever exist under the working directory).  Exits 0 on a clean
tree, 1 when diagnostics at or above ``--fail-on`` (default
``warning``) remain, 2 on usage errors: a missing path, paths holding
no ``.py`` file, or an unknown or empty ``--rules`` list.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.diagnostics import parse_severity
from repro.analysis.engine import DEFAULT_ROOTS, LintEngine, default_roots, iter_python_files
from repro.analysis.registry import all_rules, get_checker
from repro.analysis.reporters import render

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Simulator-aware static analysis for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the src/tests/"
        "examples roots that exist here)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="RULE[,RULE...]",
        help="comma-separated subset of rules to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--fail-on",
        choices=("note", "warning", "error"),
        default="warning",
        help="lowest severity that makes the exit code 1 (default: warning)",
    )
    return parser


def _usage_error(message: str) -> int:
    print(f"repro.lint: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule}: {get_checker(rule).description}")
        return EXIT_CLEAN

    paths = args.paths or default_roots()
    if not paths:
        parser.print_usage(sys.stderr)
        return _usage_error(
            f"no paths given and no default roots ({'/'.join(DEFAULT_ROOTS)}) here"
        )

    rules = None
    if args.rules is not None:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        if not rules:
            return _usage_error(f"--rules {args.rules!r} names no rule")
    try:
        engine = LintEngine(rules)
        files = list(iter_python_files(paths))
    except (KeyError, FileNotFoundError) as exc:
        # str(KeyError) repr-quotes its message; unwrap the original.
        return _usage_error(exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc))
    if not files:
        return _usage_error(f"no .py files under {' '.join(paths)}")

    diags = engine.run(files)
    print(render(diags, args.format))
    threshold = parse_severity(args.fail_on)
    failing = [d for d in diags if d.severity >= threshold]
    return EXIT_FINDINGS if failing else EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

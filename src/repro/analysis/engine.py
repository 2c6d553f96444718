"""Lint engine: file discovery, parsing, checker dispatch, suppression.

One serial pass; two layers share one parse per file:

* the **per-file layer** hands every checker a
  :class:`FileContext` (path, source, parsed AST) and collects
  :class:`Diagnostic` records;
* the **project layer** builds one
  :class:`~repro.analysis.flow.project.ProjectContext` from the same
  ``FileContext`` objects and runs every registered
  :class:`~repro.analysis.registry.ProjectChecker` (the passes that
  need symbol tables or the call graph) once per run.

Both layers filter through the per-file suppression tables; suppression
comments naming a rule the registry has never heard of earn a
``suppress`` warning so typos cannot silently disable nothing.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.analysis.diagnostics import Diagnostic, Severity, sort_key
from repro.analysis.registry import BaseChecker, ProjectChecker, all_rules, make_checkers
from repro.analysis.suppress import WILDCARD, SuppressionTable, parse_suppressions

#: Directory names never descended into.  ``lint_fixtures`` holds the
#: intentionally-broken counterexamples the test suite feeds the
#: checkers file-by-file; discovery must not trip over them.
_SKIP_DIRS = frozenset(
    {
        "__pycache__",
        ".git",
        ".venv",
        "venv",
        "build",
        "dist",
        ".mypy_cache",
        ".pytest_cache",
        ".hypothesis",
        "node_modules",
        "lint_fixtures",
    }
)

#: Roots linted when the CLI is invoked with no paths: everything that
#: executes — the package, its tests, the benchmark figures and the
#: examples — not just ``src/``.
DEFAULT_ROOTS = ("src", "tests", "benchmarks", "examples")


@dataclass
class FileContext:
    """Everything a checker may inspect about one module."""

    path: str
    source: str
    tree: ast.Module
    suppressions: SuppressionTable

    @property
    def basename(self) -> str:
        return os.path.basename(self.path)

    def relpath(self, root: str | None = None) -> str:
        try:
            return os.path.relpath(self.path, root or os.getcwd())
        except ValueError:  # different drive (Windows); keep absolute
            return self.path


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a deterministic .py file list."""
    for path in paths:
        if os.path.isfile(path):
            yield path
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        yield os.path.join(dirpath, name)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")


def default_roots() -> list[str]:
    """The :data:`DEFAULT_ROOTS` that exist under the working directory."""
    return [r for r in DEFAULT_ROOTS if os.path.isdir(r)]


def _syntax_diagnostic(path: str, exc: SyntaxError) -> Diagnostic:
    return Diagnostic(
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        rule="syntax",
        message=f"syntax error: {exc.msg}",
        severity=Severity.ERROR,
    )


def _unknown_suppression_diags(ctx: FileContext) -> list[Diagnostic]:
    """``suppress`` warnings for directives naming unregistered rules."""
    known = set(all_rules()) | {WILDCARD, "syntax", "suppress"}
    diags: list[Diagnostic] = []
    for rule, line in ctx.suppressions.mentions:
        if rule not in known:
            diags.append(
                Diagnostic(
                    path=ctx.path,
                    line=line,
                    col=0,
                    rule="suppress",
                    message=(
                        f"suppression names unknown rule {rule!r}; it silences "
                        "nothing (registered rules: --list-rules)"
                    ),
                    severity=Severity.WARNING,
                    symbol=rule,
                )
            )
    return diags


def _parse(path: str, source: str) -> FileContext | Diagnostic:
    """One module's :class:`FileContext`, or its ``syntax`` diagnostic."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return _syntax_diagnostic(path, exc)
    return FileContext(
        path=path,
        source=source,
        tree=tree,
        suppressions=parse_suppressions(source),
    )


def _load(path: str) -> FileContext | Diagnostic:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        source = raw.decode("utf-8")
    except UnicodeDecodeError:
        return Diagnostic(
            path=path,
            line=1,
            col=0,
            rule="syntax",
            message="file is not valid UTF-8 Python",
            severity=Severity.ERROR,
        )
    return _parse(path, source)


class LintEngine:
    """Run per-file checkers and project passes over files."""

    def __init__(self, rules: Iterable[str] | None = None):
        self.checkers: list[BaseChecker] = make_checkers(rules)
        self.file_checkers = [c for c in self.checkers if not isinstance(c, ProjectChecker)]
        self.project_checkers = [c for c in self.checkers if isinstance(c, ProjectChecker)]

    # -- per-file layer ------------------------------------------------
    def check_source(self, source: str, path: str = "<string>") -> list[Diagnostic]:
        """Lint one module given as text (unit-test/fixture entry)."""
        return self._check_one(_parse(path, source))

    def check_file(self, path: str) -> list[Diagnostic]:
        return self._check_one(_load(path))

    def _check_one(self, parsed: FileContext | Diagnostic) -> list[Diagnostic]:
        if isinstance(parsed, Diagnostic):
            return [parsed]
        return sorted(self._check_context(parsed), key=sort_key)

    def _check_context(self, ctx: FileContext) -> list[Diagnostic]:
        found = _unknown_suppression_diags(ctx)
        for checker in self.file_checkers:
            if not checker.applies_to(ctx):
                continue
            for diag in checker.check(ctx):
                found.append(diag)
        return [
            d for d in found if not ctx.suppressions.is_suppressed(d.rule, d.line)
        ]

    # -- full runs -----------------------------------------------------
    def run(self, paths: Sequence[str]) -> list[Diagnostic]:
        """Lint every .py file reachable from ``paths``.

        Each file is parsed once; the per-file checkers and the project
        passes share the parse.
        """
        found: list[Diagnostic] = []
        contexts: list[FileContext] = []
        for path in iter_python_files(paths):
            parsed = _load(path)
            if isinstance(parsed, Diagnostic):
                found.append(parsed)
                continue
            contexts.append(parsed)
            found.extend(self._check_context(parsed))
        if self.project_checkers:
            found.extend(self._run_project(contexts))
        return sorted(found, key=sort_key)

    def _run_project(self, contexts: list[FileContext]) -> list[Diagnostic]:
        """Build the shared ProjectContext and run every project pass."""
        from repro.analysis.flow.project import ProjectContext

        project = ProjectContext(sorted(contexts, key=lambda c: c.path))
        tables = {ctx.path: ctx.suppressions for ctx in contexts}
        found: list[Diagnostic] = []
        for checker in self.project_checkers:
            for diag in checker.check_project(project):
                table = tables.get(diag.path)
                if table is not None and table.is_suppressed(diag.rule, diag.line):
                    continue
                found.append(diag)
        return found

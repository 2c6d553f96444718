"""The static-analysis subsystem: engine, suppressions, reporters, CLI,
and each checker against its fixture and against the real tree."""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import LintEngine, Severity, all_rules, get_checker
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import iter_python_files
from repro.analysis.reporters import render

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "lint_fixtures")
SRC = os.path.join(HERE, os.pardir, "src")
ROOT = os.path.dirname(os.path.abspath(HERE))

#: Every registered rule.
RULES = {
    "config-bounds",
    "determinism",
    "dimension-mismatch",
    "emit-coverage",
    "event-schema",
    "paper-fidelity",
}

#: rule -> its dedicated counterexample fixture file.
FIXTURE_OF = {
    "determinism": os.path.join(FIXTURES, "determinism_bad.py"),
    "config-bounds": os.path.join(FIXTURES, "config_bounds", "config.py"),
    "event-schema": os.path.join(FIXTURES, "event_schema_bad.py"),
}

#: A fixture every rule passes.
CLEAN_FIXTURE = os.path.join(FIXTURES, "paper_fidelity_ok.py")


def run_rule(rule, path):
    return LintEngine([rule]).check_file(path)


class TestRegistry:
    def test_all_six_rules_registered(self):
        assert set(all_rules()) == RULES

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            get_checker("no-such-rule")

    def test_descriptions_nonempty(self):
        for rule in all_rules():
            assert get_checker(rule).description


class TestCheckersFireOnFixtures:
    @pytest.mark.parametrize("rule", sorted(FIXTURE_OF))
    def test_rule_fires_on_its_fixture(self, rule):
        diags = run_rule(rule, FIXTURE_OF[rule])
        assert diags, f"{rule} stayed silent on its counterexample"
        assert all(d.rule == rule for d in diags)

    @pytest.mark.parametrize("rule", sorted(FIXTURE_OF))
    def test_other_rules_stay_silent_on_fixture(self, rule):
        """Each fixture trips exactly its own checker."""
        others = [r for r in FIXTURE_OF if r != rule]
        diags = LintEngine(others).check_file(FIXTURE_OF[rule])
        assert diags == []

    def test_determinism_finds_all_three_categories(self):
        messages = [d.message for d in run_rule("determinism", FIXTURE_OF["determinism"])]
        assert any("global-state RNG" in m for m in messages)
        assert any("wall-clock" in m for m in messages)
        assert any("set expression" in m for m in messages)

    def test_event_schema_reports_every_failure_mode(self):
        messages = [
            d.message for d in run_rule("event-schema", FIXTURE_OF["event-schema"])
        ]
        assert len(messages) == 6
        assert any("string-literal topic" in m for m in messages)
        assert any("unknown topic constant TOPIC_MADE_UP" in m for m in messages)
        assert any("positional payload" in m for m in messages)
        assert any("**kwargs splat" in m for m in messages)
        assert any("missing ['wq_ratio']" in m for m in messages)
        assert any("extra ['bogus']" in m for m in messages)

    def test_config_bounds_flags_field_and_missing_validate(self):
        diags = run_rule("config-bounds", FIXTURE_OF["config-bounds"])
        symbols = {d.symbol for d in diags}
        assert "PartiallyValidatedConfig.t_cache_miss" in symbols
        assert "UnvalidatedConfig" in symbols
        assert not any(s.startswith("FullyValidatedConfig") for s in symbols)


class TestRealTreeClean:
    def test_all_roots_are_clean(self, real_tree_diags):
        """Per-file rules and project passes find nothing on src/,
        tests/, benchmarks/ and examples/."""
        assert real_tree_diags == [], "\n".join(d.format() for d in real_tree_diags)

    def test_src_tree_is_clean_modulo_baseline(self, real_tree_diags):
        """The full engine finds nothing on src/. There is no baseline
        any more: accepted exceptions are inline suppressions."""
        src = os.path.realpath(SRC) + os.sep
        diags = [d for d in real_tree_diags if os.path.realpath(d.path).startswith(src)]
        assert diags == [], "\n".join(d.format() for d in diags)

    def test_per_file_rules_are_clean_without_baseline(self, real_tree_diags):
        """No per-file rule fires anywhere in the tree."""
        per_file = {c.rule for c in LintEngine().file_checkers}
        diags = [d for d in real_tree_diags if d.rule in per_file]
        assert per_file
        assert diags == [], "\n".join(d.format() for d in diags)


class TestSuppressions:
    def test_line_suppression(self):
        """A line directive silences its own line, not the next one."""
        src = (
            "import random\n"
            "x = random.random()  # lint: disable=determinism\n"
            "y = random.random()\n"
        )
        diags = LintEngine(["determinism"]).check_source(src)
        assert [d.line for d in diags] == [3]

    def test_line_suppression_is_rule_specific(self):
        src = "import random\nx = random.random()  # lint: disable=config-bounds\n"
        diags = LintEngine(["determinism"]).check_source(src)
        assert len(diags) == 1

    def test_file_suppression(self):
        src = (
            "# lint: disable-file=determinism\n"
            "import random\n"
            "x = random.random()\n"
            "y = random.randint(0, 3)\n"
        )
        assert LintEngine(["determinism"]).check_source(src) == []

    def test_wildcard_suppression(self):
        src = "import random\nx = random.random()  # lint: disable=all\n"
        assert LintEngine(["determinism"]).check_source(src) == []

    def test_directive_inside_string_is_ignored(self):
        src = 'import random\ns = "# lint: disable-file=all"\nx = random.random()\n'
        assert len(LintEngine(["determinism"]).check_source(src)) == 1

    def test_one_directive_suppresses_multiple_rules(self):
        src = (
            "import random\n"
            "import time\n"
            "x = (random.random(), time.time())"
            "  # lint: disable=determinism, dimension-mismatch\n"
        )
        assert LintEngine(["determinism", "dimension-mismatch"]).check_source(src) == []

    def test_unknown_rule_in_directive_warns(self):
        src = "x = 1  # lint: disable=not-a-rule\n"
        diags = LintEngine().check_source(src)
        assert len(diags) == 1
        assert diags[0].rule == "suppress"
        assert diags[0].severity == Severity.WARNING
        assert "not-a-rule" in diags[0].message

    def test_known_rule_in_directive_does_not_warn(self):
        src = "x = 1  # lint: disable=determinism,all\n"
        assert LintEngine().check_source(src) == []

    def test_file_suppression_applies_to_project_passes(self, tmp_path):
        body = "interval_cycles = 10_000\n"
        bad = tmp_path / "consts.py"
        bad.write_text(body)
        assert LintEngine(["paper-fidelity"]).run([str(tmp_path)]) != []
        bad.write_text("# lint: disable-file=paper-fidelity\n" + body)
        assert LintEngine(["paper-fidelity"]).run([str(tmp_path)]) == []

    def test_line_suppression_applies_to_project_passes(self, tmp_path):
        bad = tmp_path / "consts.py"
        bad.write_text("interval_cycles = 10_000  # lint: disable=paper-fidelity\n")
        assert LintEngine(["paper-fidelity"]).run([str(tmp_path)]) == []


class TestEngine:
    def test_syntax_error_becomes_diagnostic(self):
        diags = LintEngine().check_source("def broken(:\n")
        assert len(diags) == 1
        assert diags[0].rule == "syntax"

    def test_iter_python_files_deterministic_and_filtered(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        pycache = tmp_path / "__pycache__"
        pycache.mkdir()
        (pycache / "a.cpython-311.py").write_text("x = 1\n")
        files = list(iter_python_files([str(tmp_path)]))
        assert files == [str(tmp_path / "a.py"), str(tmp_path / "b.py")]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            LintEngine().run([os.path.join(FIXTURES, "does_not_exist.py")])


class TestReporters:
    def test_json_report_round_trips(self):
        diags = run_rule("determinism", FIXTURE_OF["determinism"])
        payload = json.loads(render(diags, "json"))
        assert payload["summary"]["total"] == len(diags)
        assert payload["diagnostics"][0]["rule"] == "determinism"

    def test_text_report_mentions_rule_and_location(self):
        diags = run_rule("determinism", FIXTURE_OF["determinism"])
        text = render(diags, "text")
        assert "[determinism]" in text
        assert "determinism_bad.py" in text

    def test_severity_str(self):
        assert str(Severity.ERROR) == "error"
        assert str(Severity.WARNING) == "warning"
        assert str(Severity.NOTE) == "note"


class TestCLI:
    def test_exit_codes(self, capsys):
        assert lint_main([CLEAN_FIXTURE]) == 0
        assert lint_main([FIXTURE_OF["determinism"]]) == 1
        capsys.readouterr()

    def test_src_is_clean(self, capsys):
        """The CLI exits 0 on src/: the tree carries no findings."""
        assert lint_main([SRC]) == 0
        assert "no problems found" in capsys.readouterr().out

    def test_no_paths_and_no_default_roots_is_usage_error(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert lint_main([]) == 2
        assert "no default roots" in capsys.readouterr().err

    def test_default_roots_discovered_from_cwd(self, capsys, tmp_path, monkeypatch):
        src = tmp_path / "src"
        src.mkdir()
        (src / "ok.py").write_text("x = 1\n")
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "bad.py").write_text("interval_cycles = 10_000\n")
        monkeypatch.chdir(tmp_path)
        assert lint_main([]) == 1
        assert "paper-fidelity" in capsys.readouterr().out

    def test_fail_on_threshold(self, capsys):
        # The emit-coverage rule produces warnings only on its fixture:
        # gating on errors passes, gating on warnings (default) fails.
        fixture = os.path.join(FIXTURES, "emit_coverage")
        base = ["--rules", "emit-coverage"]
        assert lint_main(base + ["--fail-on", "error", fixture]) == 0
        assert lint_main(base + [fixture]) == 1
        assert lint_main(base + ["--fail-on", "warning", fixture]) == 1
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert {line.split(":", 1)[0] for line in out.splitlines()} == RULES

    def test_rules_subset(self, capsys):
        # Only the event-schema rule runs: the determinism fixture stays clean.
        assert lint_main(["--rules", "event-schema", FIXTURE_OF["determinism"]]) == 0
        capsys.readouterr()

    def test_unknown_rule_is_usage_error(self, capsys):
        assert lint_main(["--rules", "bogus", SRC]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("spec", ["", ",", " , "])
    def test_empty_rule_list_is_usage_error(self, capsys, spec):
        assert lint_main(["--rules", spec, FIXTURE_OF["determinism"]]) == 2
        assert "names no rule" in capsys.readouterr().err

    def test_repeated_rule_runs_once(self, capsys):
        fixture = FIXTURE_OF["determinism"]
        assert lint_main(["--format", "json", "--rules", "determinism", fixture]) == 1
        once = json.loads(capsys.readouterr().out)["summary"]["total"]
        assert lint_main(
            ["--format", "json", "--rules", "determinism,determinism", fixture]
        ) == 1
        assert json.loads(capsys.readouterr().out)["summary"]["total"] == once

    def test_scope_without_python_files_is_usage_error(self, capsys, tmp_path):
        (tmp_path / "notes.md").write_text("no python here\n")
        assert lint_main([str(tmp_path)]) == 2
        assert "no .py files" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--format", "sarif"],
            ["--output", "report.txt"],
            ["--baseline", "baseline.json"],
            ["--no-cache"],
            ["--jobs", "2"],
            ["--changed"],
            ["--project-only"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_removed_options_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            lint_main(argv + [CLEAN_FIXTURE])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_json_format(self, capsys):
        assert lint_main(["--format", "json", FIXTURE_OF["determinism"]]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] >= 1

    def test_module_entry_point(self):
        """`python -m repro.lint` is the documented front door; its exit
        code carries the findings."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", FIXTURE_OF["determinism"]],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "[determinism]" in proc.stdout


class TestMypyGate:
    """Strict typing of the hot-path packages (CI enforces this; locally
    the test skips when mypy is not installed)."""

    def test_core_and_reliability_are_strict_clean(self):
        pytest.importorskip("mypy")
        env = dict(os.environ)
        env["MYPYPATH"] = SRC + os.pathsep + env.get("MYPYPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", "--strict", "-p", "repro.core", "-p", "repro.reliability"],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(SRC),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

"""Cache v2 behavior: project-snapshot transitive invalidation, the
recorded dependency map, and git-scoped ``repro.lint --changed``."""

import json
import os
import shutil
import subprocess
import textwrap

import pytest

from repro.analysis import LintEngine
from repro.analysis.cli import main as lint_main
from repro.analysis.flow.cache import DiagnosticCache

#: ``dvm.py`` is an emit-coverage decision module: its state-mutating
#: ``on_*`` hook must reach a ``bus.emit`` through some call path, here
#: only through the helper in ``publish.py``.
CALLER = """
from publish import publish


class DVM:
    def __init__(self, bus):
        self.bus = bus
        self.triggered = False

    def on_sample(self, estimate):
        self.triggered = estimate > 0.5
        publish(self, estimate)
"""

CALLEE_EMITS = """
def publish(dvm, estimate):
    dvm.bus.emit("dvm.sample", estimate=estimate)
"""

#: Same helper, emit dropped: the unchanged hook in ``dvm.py`` no longer
#: reaches the bus, so the finding lands on the file that was not edited.
CALLEE_SILENT = """
def publish(dvm, estimate):
    return estimate
"""


def write_tree(root, callee=CALLEE_EMITS):
    root.mkdir(exist_ok=True)
    (root / "dvm.py").write_text(textwrap.dedent(CALLER))
    (root / "publish.py").write_text(textwrap.dedent(callee))


class TestTransitiveInvalidation:
    def test_unchanged_rerun_replays_the_project_snapshot(self, tmp_path):
        tree = tmp_path / "proj"
        write_tree(tree)
        cache = str(tmp_path / "cache")
        LintEngine(["emit-coverage"], cache_dir=cache).run([str(tree)])
        engine = LintEngine(["emit-coverage"], cache_dir=cache)
        assert engine.run([str(tree)]) == []
        assert engine.cache_stats.project_hits == 1
        assert engine.cache_stats.project_misses == 0

    def test_editing_callee_invalidates_callers_project_results(self, tmp_path):
        tree = tmp_path / "proj"
        write_tree(tree)
        cache = str(tmp_path / "cache")
        first = LintEngine(["emit-coverage"], cache_dir=cache).run([str(tree)])
        assert first == []

        # Only the callee changes; the caller (which holds the hook the
        # finding is about) is untouched and cache-warm.
        write_tree(tree, callee=CALLEE_SILENT)
        engine = LintEngine(["emit-coverage"], cache_dir=cache)
        diags = engine.run([str(tree)])
        assert engine.cache_stats.project_hits == 0
        assert engine.cache_stats.project_misses == 1
        assert [d.rule for d in diags] == ["emit-coverage"]
        assert diags[0].path.endswith("dvm.py")

    def test_cached_project_diags_match_fresh_ones(self, tmp_path):
        tree = tmp_path / "proj"
        write_tree(tree, callee=CALLEE_SILENT)
        cache = str(tmp_path / "cache")
        fresh = LintEngine(["emit-coverage"], cache_dir=cache).run([str(tree)])
        cached = LintEngine(["emit-coverage"], cache_dir=cache).run([str(tree)])
        assert [d.format() for d in cached] == [d.format() for d in fresh]
        assert fresh, "scenario should produce a finding"


class TestDependencyMap:
    def test_import_edge_recorded_during_project_phase(self, tmp_path):
        tree = tmp_path / "proj"
        write_tree(tree)
        cache_dir = str(tmp_path / "cache")
        LintEngine(cache_dir=cache_dir).run([str(tree)])
        cache = DiagnosticCache(cache_dir)
        cache.open([], [])
        deps = cache.deps_map()
        caller = str(tree / "dvm.py")
        callee = str(tree / "publish.py")
        assert deps[caller] == [callee]
        assert cache.reverse_dependents({callee}) == {caller}

    def test_reverse_dependents_is_transitive(self, tmp_path):
        cache = DiagnosticCache(str(tmp_path / "cache"))
        cache.open([], [])
        cache.store_deps({"a.py": ["b.py"], "b.py": ["c.py"], "d.py": []})
        assert cache.reverse_dependents({"c.py"}) == {"a.py", "b.py"}
        assert cache.reverse_dependents({"d.py"}) == set()


needs_git = pytest.mark.skipif(
    shutil.which("git") is None, reason="git unavailable"
)


@needs_git
class TestChangedScope:
    @pytest.fixture
    def repo(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_tree(tmp_path / "src")
        (tmp_path / "src" / "unrelated.py").write_text(
            "import time\n\n\ndef now():\n    return time.perf_counter()\n"
        )
        env = {"GIT_CONFIG_GLOBAL": os.devnull, "GIT_CONFIG_SYSTEM": os.devnull}
        for cmd in (
            ["git", "init", "-q"],
            ["git", "config", "user.email", "lint@test"],
            ["git", "config", "user.name", "lint"],
            ["git", "add", "-A"],
            ["git", "commit", "-qm", "seed"],
        ):
            subprocess.run(cmd, check=True, env={**os.environ, **env})
        return tmp_path

    def test_clean_tree_lints_nothing(self, repo, capsys):
        lint_main([])  # warm the cache (also records the deps map)
        capsys.readouterr()
        assert lint_main(["--changed"]) == 0
        assert "no changed python files" in capsys.readouterr().out

    def test_changed_pulls_in_reverse_dependents_only(self, repo, capsys):
        assert lint_main([]) == 1  # unrelated.py's determinism finding
        capsys.readouterr()

        write_tree(repo / "src", callee=CALLEE_SILENT)
        assert lint_main(["--changed", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        rules = {d["rule"] for d in payload["diagnostics"]}
        paths = {os.path.basename(d["path"]) for d in payload["diagnostics"]}
        # Only publish.py changed, yet the finding is on dvm.py: the
        # reverse dependent was linted; unrelated.py was not.
        assert rules == {"emit-coverage"}
        assert paths == {"dvm.py"}

    def test_changed_rejects_explicit_paths(self, repo, capsys):
        assert lint_main(["--changed", "src"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_cold_cache_widens_to_a_full_run(self, repo, capsys):
        write_tree(repo / "src", callee=CALLEE_SILENT)
        # No warm-up run: the deps map does not exist yet.
        assert lint_main(["--changed"]) == 1
        captured = capsys.readouterr()
        assert "cold cache" in captured.err
        # Full-run fallback sees every file, including unrelated.py.
        assert "determinism" in captured.out

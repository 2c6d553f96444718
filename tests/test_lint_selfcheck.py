"""The analyzer applied to this repository itself.

The full engine — per-file rules plus the four project passes — runs
over ``src/repro`` in-process; everything it reports must already be
recorded in the committed ``lint-baseline.json``.  The same run doubles
as the check on the incremental cache: a second, unchanged run must be
nearly all cache hits, and a warm-cache parallel run must miss nothing
and report exactly what a fresh run does.
"""

import os

from repro.analysis import LintEngine, filter_new, load_baseline

HERE = os.path.dirname(__file__)
ROOT = os.path.dirname(os.path.abspath(HERE))
SRC = os.path.join(ROOT, "src")
BASELINE = os.path.join(ROOT, "lint-baseline.json")


class TestSelfCheck:
    def test_no_non_baselined_diagnostics_on_src(self):
        diags = LintEngine().run([SRC])
        new = filter_new(diags, load_baseline(BASELINE), root=ROOT)
        assert new == [], "new findings on src/:\n" + "\n".join(
            d.format() for d in new
        )

    def test_baseline_entries_still_fire(self):
        """A stale baseline (entries nothing produces any more) should be
        pruned, not carried around."""
        diags = LintEngine().run([SRC])
        produced = {(d.rule, d.symbol) for d in diags}
        import json

        with open(BASELINE, encoding="utf-8") as fh:
            entries = json.load(fh)["entries"]
        for entry in entries:
            assert (entry["rule"], entry["symbol"]) in produced, (
                f"baseline entry {entry['rule']}:{entry['symbol']} no longer "
                "fires; remove it from lint-baseline.json"
            )


class TestCachePerformance:
    def test_second_unchanged_run_is_mostly_cache_hits(self, tmp_path):
        cache = str(tmp_path / "cache")
        LintEngine(cache_dir=cache).run([SRC])
        engine = LintEngine(cache_dir=cache)
        engine.run([SRC])
        stats = engine.cache_stats
        assert stats.lookups > 0
        assert stats.hit_rate >= 0.9, f"only {stats.hit_rate:.0%} cache hits"

    def test_cached_diagnostics_match_fresh_ones(self, tmp_path):
        cache = str(tmp_path / "cache")
        fresh = LintEngine(cache_dir=cache).run([SRC])
        cached = LintEngine(cache_dir=cache).run([SRC])
        assert [d.format() for d in cached] == [d.format() for d in fresh]

    def test_warm_cache_parallel_run_misses_nothing(self, tmp_path):
        cache = str(tmp_path / "cache")
        fresh = [d.format() for d in LintEngine().run([SRC])]

        # Cold: every file goes through the jobs=2 process pool.
        cold = LintEngine(cache_dir=cache)
        assert [d.format() for d in cold.run([SRC], jobs=2)] == fresh
        assert cold.cache_stats.misses > 0

        warm = LintEngine(cache_dir=cache)
        assert [d.format() for d in warm.run([SRC], jobs=2)] == fresh
        stats = warm.cache_stats
        assert stats.misses == 0 and stats.hits == cold.cache_stats.misses
        assert stats.project_hits == 1 and stats.project_misses == 0

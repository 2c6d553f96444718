"""The ``repro perf`` command tree and ``repro timeline --trace-out``."""

import json

import pytest

from repro.cli import build_parser, main
from repro.perf.chrome_trace import read_trace, validate_trace
from repro.perf.history import KIND_PERF_SUITE, load_history

FAST = ["--bench", "dvm_interval", "--repeats", "1", "--cycles", "400"]


class TestParser:
    def test_perf_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["perf", "run"])
        assert args.perf_command == "run"
        assert args.repeats == 3
        assert args.history == "BENCH_perf.json"
        assert args.bench is None and not args.no_history

    def test_compare_defaults(self):
        args = build_parser().parse_args(["perf", "compare"])
        assert args.tolerance == pytest.approx(0.25)
        assert args.window == 5 and args.results is None

    def test_trace_defaults(self):
        args = build_parser().parse_args(["perf", "trace"])
        assert args.mix == "MEM-A" and args.traced_cycles == 2_000
        assert args.out == "repro-trace.json"

    def test_run_rejects_unknown_bench(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf", "run", "--bench", "nope"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["perf", "run", "--repeats", "0"],
            ["perf", "compare", "--repeats", "0"],
            ["perf", "compare", "--tolerance", "-1"],
            ["perf", "compare", "--tolerance", "nan"],
            ["perf", "compare", "--window", "0"],
            ["perf", "trace", "--traced-cycles", "-1"],
            ["perf", "trace", "--traced-cycles", "two"],
        ],
    )
    def test_bad_numbers_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--repeats", "0"], ["--cycles", "0"]])
    def test_overhead_bad_numbers_are_usage_errors(self, argv):
        from repro.telemetry.overhead import main as overhead_main

        with pytest.raises(SystemExit) as exc:
            overhead_main([*argv, "--no-history"])
        assert exc.value.code == 2


class TestPerfRun:
    def test_run_appends_provenance_stamped_entry(self, tmp_path, capsys):
        hist = tmp_path / "BENCH_perf.json"
        out = tmp_path / "current.json"
        rc = main(["perf", "run", *FAST, "--history", str(hist), "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "dvm_interval" in text and "appended" in text
        doc = load_history(str(hist))
        (entry,) = doc["entries"]
        assert entry["kind"] == KIND_PERF_SUITE
        assert entry["results"]["dvm_interval"]["best_s"] > 0
        # Provenance: the manifest records tool, scale and config digest.
        assert entry["manifest"]["extra"]["tool"] == "repro perf"
        assert entry["context"]["partial"] is True
        saved = json.loads(out.read_text())
        assert "dvm_interval" in saved["results"]

    def test_no_history_skips_write(self, tmp_path):
        hist = tmp_path / "BENCH_perf.json"
        assert main(["perf", "run", *FAST, "--history", str(hist), "--no-history"]) == 0
        assert not hist.exists()


class TestPerfCompare:
    def _write_history(self, path, best_s):
        path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "entries": [
                        {
                            "kind": KIND_PERF_SUITE,
                            "results": {"dvm_interval": {"best_s": best_s}},
                        }
                    ],
                }
            )
        )

    def _write_results(self, path, best_s):
        path.write_text(
            json.dumps({"results": {"dvm_interval": {"best_s": best_s, "repeats": 1}}})
        )

    def test_injected_slowdown_exits_nonzero(self, tmp_path, capsys):
        hist = tmp_path / "BENCH_perf.json"
        cur = tmp_path / "current.json"
        self._write_history(hist, 0.010)
        self._write_results(cur, 0.050)  # 5x slower than baseline
        rc = main(
            ["perf", "compare", "--history", str(hist), "--results", str(cur),
             "--tolerance", "0.25"]
        )
        assert rc == 1
        assert "regression" in capsys.readouterr().out

    def test_within_tolerance_passes(self, tmp_path, capsys):
        hist = tmp_path / "BENCH_perf.json"
        cur = tmp_path / "current.json"
        self._write_history(hist, 0.010)
        self._write_results(cur, 0.011)
        rc = main(
            ["perf", "compare", "--history", str(hist), "--results", str(cur)]
        )
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_empty_history_passes_as_new(self, tmp_path, capsys):
        cur = tmp_path / "current.json"
        self._write_results(cur, 0.010)
        rc = main(
            ["perf", "compare", "--history", str(tmp_path / "none.json"),
             "--results", str(cur)]
        )
        assert rc == 0
        assert "[new]" in capsys.readouterr().out

    def test_malformed_history_is_usage_error(self, tmp_path, capsys):
        hist = tmp_path / "BENCH_perf.json"
        hist.write_text("{broken")
        cur = tmp_path / "current.json"
        self._write_results(cur, 0.010)
        rc = main(
            ["perf", "compare", "--history", str(hist), "--results", str(cur)]
        )
        assert rc == 2

    @pytest.mark.parametrize("content", ["{broken", "[1, 2]"])
    def test_malformed_results_is_usage_error(self, tmp_path, capsys, content):
        cur = tmp_path / "current.json"
        cur.write_text(content)
        rc = main(
            ["perf", "compare", "--history", str(tmp_path / "none.json"),
             "--results", str(cur)]
        )
        assert rc == 2
        assert str(cur) in capsys.readouterr().err

    def test_fresh_measurement_against_empty_history(self, tmp_path):
        # No --results: compare measures the suite itself.
        rc = main(
            ["perf", "compare", *FAST, "--history", str(tmp_path / "none.json")]
        )
        assert rc == 0


class TestPerfTrace:
    @pytest.fixture(scope="class")
    def trace_doc(self, tmp_path_factory):
        from repro.harness.runner import clear_caches

        clear_caches()
        path = tmp_path_factory.mktemp("trace") / "trace.json"
        rc = main(
            ["perf", "trace", "--mix", "MEM-A", "--dvm", "0.5", "--cycles", "3000",
             "--traced-cycles", "200", "-o", str(path)]
        )
        clear_caches()
        assert rc == 0
        return read_trace(str(path))

    def test_emits_valid_nested_trace(self, trace_doc):
        counts = validate_trace(trace_doc)
        assert counts["X"] > 200  # cycle + stage spans at least
        assert counts["M"] >= 2

    def test_spans_are_nested_cycles_and_stages(self, trace_doc):
        evs = trace_doc["traceEvents"]
        cycles = [e for e in evs if e.get("cat") == "cycle"]
        stages = [e for e in evs if e.get("cat") == "stage"]
        assert len(cycles) == 200
        assert len(stages) == 6 * 200
        names = {e["name"] for e in stages}
        assert {"fetch", "dispatch", "issue", "writeback", "commit", "tick"} <= names

    def test_decision_instants_present(self, trace_doc):
        instants = [e for e in trace_doc["traceEvents"] if e["ph"] == "i"]
        assert instants and all(ev["s"] == "t" for ev in instants)

    def test_manifest_in_other_data(self, trace_doc):
        other = trace_doc["otherData"]
        assert other["mix"] == "MEM-A"
        assert "manifest" in other and "config_hash" in other["manifest"]


class TestTimelineTraceOut:
    def test_timeline_exports_trace(self, tmp_path, capsys):
        from repro.harness.runner import clear_caches

        clear_caches()
        path = tmp_path / "tl.json"
        rc = main(
            ["timeline", "--mix", "MEM-A", "--cycles", "3000",
             "--trace-out", str(path)]
        )
        clear_caches()
        assert rc == 0
        counts = validate_trace(read_trace(str(path)))
        assert counts.get("X", 0) + counts.get("i", 0) > 0

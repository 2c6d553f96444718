"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.mix == "CPU-A"
        assert args.scheduler == "oldest"
        assert args.dispatch is None

    def test_run_rejects_unknown_mix(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--mix", "GPU-A"])

    def test_run_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--fetch-policy", "nope"])

    def test_profile_args(self):
        args = build_parser().parse_args(["profile", "mesa", "--instructions", "500"])
        assert args.benchmark == "mesa"
        assert args.instructions == 500

    def test_reproduce_args(self):
        args = build_parser().parse_args(["figures", "fig5", "--full", "--save"])
        assert args.experiments == ["fig5"] and args.full and args.save


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "CPU-A" in out and "fig5" in out

    def test_profile(self, capsys):
        assert main(["profile", "gcc", "--instructions", "3000", "--window", "800"]) == 0
        out = capsys.readouterr().out
        assert "PC-classification acc" in out

    def test_profile_unknown_benchmark(self, capsys):
        assert main(["profile", "doom"]) == 2

    @pytest.mark.parametrize("option", ["--instructions", "--window"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_profile_nonpositive_size_is_usage_error(self, capsys, option, value):
        # Regression: both ended in a ValueError traceback (exit 1).
        with pytest.raises(SystemExit) as exc:
            main(["profile", "gcc", option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"argument {option}: must be >= 1, got {value}" in err.strip().splitlines()[-1]

    @pytest.mark.parametrize("command, doc, message", [
        ("avf", {"results": [1]}, "not a results document"),
        ("avf", {"results": {"baseline_iq_avf": "abc"}},
         "result 'baseline_iq_avf' is not a number: 'abc'"),
        ("avf", {"results": {"baseline_iq_avf": {"value": None}}},
         "result 'baseline_iq_avf' is not a number: None"),
        ("perf", {"results": [1]}, "not a results document"),
        ("avf", None, "cannot read (No such file or directory)"),
        ("perf", None, "cannot read (No such file or directory)"),
    ], ids=["avf-list", "avf-string", "avf-null", "perf-list", "avf-missing", "perf-missing"])
    def test_compare_non_results_document_is_usage_error(
        self, capsys, tmp_path, command, doc, message
    ):
        # Regression: JSON that is not a results document ended in an
        # AttributeError, ValueError, TypeError or IndexError traceback,
        # and a missing file (doc None) in a FileNotFoundError one.
        saved = tmp_path / "current.json"
        if doc is not None:
            saved.write_text(json.dumps(doc))
        rc = main([command, "compare", "--history", str(tmp_path / "none.json"),
                   "--results", str(saved)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and message in err[0], err

    def test_run_small(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CYCLES", "2500")
        from repro.harness.runner import clear_caches

        clear_caches()
        assert main(["run", "--mix", "CPU-A", "--cycles", "2500"]) == 0
        out = capsys.readouterr().out
        assert "throughput IPC" in out and "IQ AVF" in out
        clear_caches()

    def test_reproduce_unknown(self, capsys):
        assert main(["figures", "fig99"]) == 2
        assert "unknown experiment(s) ['fig99']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec",
        [["--axis", "bogus=1,2"], ["--axis", "scheduler=oldest", "--fixed", "backend=fast"]],
        ids=["axis", "fixed"],
    )
    def test_sweep_unknown_kwarg_is_usage_error(self, capsys, spec):
        argv = ["sweep", "--mix", "CPU-A", "--cycles", "1500", "--no-checkpoint", *spec]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "unknown run_sim kwarg" in err and "scheduler" in err


class TestReproduceCommand:
    """One paper table or figure is reproduced by ``repro figures NAME``."""

    def test_reproduce_with_stub(self, capsys, monkeypatch, tmp_path):
        from repro.harness import experiments

        monkeypatch.setitem(
            experiments.SUITES, "stub",
            (lambda scale: [{"a": 1.0, "b": 2.0}], "Stub experiment", lambda rows: []),
        )
        monkeypatch.chdir(tmp_path)
        assert main(["figures", "stub", "--save", "--no-checkpoint", "--quiet"]) == 0
        captured = capsys.readouterr()
        assert "Stub experiment" in captured.out
        assert "saved to reports/stub.txt and reports/stub.json" in captured.err
        assert "claim failed" not in captured.err
        assert "Stub experiment" in (tmp_path / "reports" / "stub.txt").read_text()
        doc = json.loads((tmp_path / "reports" / "stub.json").read_text())
        assert doc["data"] == {"title": "Stub experiment", "rows": [{"a": 1.0, "b": 2.0}]}
        assert doc["manifest"]["seed"] == 1

    def test_failed_claims_exit_1_after_saving(self, capsys, monkeypatch, tmp_path):
        from repro.harness import experiments

        def claims(rows):
            return [f"a {rows[0]['a']} > 2", f"b {rows[0]['b']} > 3"]

        monkeypatch.setitem(
            experiments.SUITES, "stub",
            (lambda scale: [{"a": 1.0, "b": 2.0}], "Stub experiment", claims),
        )
        monkeypatch.chdir(tmp_path)
        assert main(["figures", "stub", "--save", "--no-checkpoint", "--quiet"]) == 1
        captured = capsys.readouterr()
        assert "Stub experiment" in captured.out
        failed = [line for line in captured.err.splitlines() if "claim failed" in line]
        assert failed == ["claim failed: stub: a 1.0 > 2", "claim failed: stub: b 2.0 > 3"]
        assert (tmp_path / "reports" / "stub.txt").exists()
        assert (tmp_path / "reports" / "stub.json").exists()

    def test_repeated_experiment_is_usage_error(self, capsys, monkeypatch):
        # Regression: a repeated name ran nothing and exited 1 with
        # "task keys must be unique (dedupe before execute)".
        from repro.harness import experiments

        def no_run(scale):
            raise AssertionError("a suite ran before the usage check")

        monkeypatch.setitem(experiments.SUITES, "stub", (no_run, "S", lambda rows: []))
        assert main(["figures", "stub", "table2", "stub", "--no-checkpoint", "--quiet"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["experiment(s) named more than once: ['stub']"]

    def test_scale_overrides(self, monkeypatch):
        from repro.harness import experiments

        captured = {}
        monkeypatch.setitem(
            experiments.SUITES, "stub3",
            (lambda scale: captured.setdefault("scale", scale) and [], "S", lambda rows: []),
        )
        main(["figures", "stub3", "--cycles", "5000", "--seed", "9", "--full",
              "--no-checkpoint", "--quiet"])
        scale = captured["scale"]
        assert scale.max_cycles == 5000
        assert scale.seed == 9
        assert scale.groups == ("A", "B", "C")


class TestCyclesRule:
    """One ``--cycles`` rule and one ``--dvm`` rule for every command."""

    @pytest.mark.parametrize("n", [2000, 3500, 10000, 14000, 50000])
    def test_flag_matches_env(self, monkeypatch, n):
        from repro.cli import _scale_from_args
        from repro.harness.runner import BenchScale

        monkeypatch.setenv("REPRO_CYCLES", str(n))
        from_env = BenchScale.from_env()
        monkeypatch.delenv("REPRO_CYCLES")
        for argv in (["run"], ["timeline"], ["sweep", "--axis", "seed=1"],
                     ["figures"]):
            args = build_parser().parse_args([*argv, "--cycles", str(n)])
            assert _scale_from_args(args) == from_env

    @pytest.mark.parametrize("argv", [
        ["run"], ["timeline"], ["sweep", "--axis", "seed=1"], ["figures"],
        ["avf", "compare"], ["perf", "trace"], ["perf", "run"],
        ["avf", "report"], ["avf", "run"],
    ])
    def test_zero_cycles_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--cycles", "0"])
        assert exc.value.code == 2
        assert "argument --cycles: value must be positive, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("frac", ["0", "-0.5", "nan"])
    @pytest.mark.parametrize("argv", [
        ["run"], ["timeline"], ["perf", "trace"], ["avf", "report"],
    ])
    def test_nonpositive_dvm_is_usage_error(self, capsys, argv, frac):
        # Regression: --dvm 0 simulated the whole no-DVM baseline, then
        # died with a ValueError traceback from the DVM controller.
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--cycles", "2000", "--dvm", frac])
        assert exc.value.code == 2
        assert "argument --dvm: must be > 0" in capsys.readouterr().err

    def test_dvm_short_window_crashed_at_fixed_warmup(self, capsys, monkeypatch):
        # Regression: a 3500-cycle run kept the 3000-cycle warm-up, so
        # its baseline had no post-warm-up interval and DVM crashed.
        from repro.harness.runner import clear_caches

        monkeypatch.delenv("REPRO_CYCLES", raising=False)
        clear_caches()
        assert main(["run", "--mix", "CPU-A", "--cycles", "3500", "--dvm", "0.5"]) == 0
        assert "PVE @ 0.5*MaxAVF" in capsys.readouterr().out
        clear_caches()

    @pytest.mark.parametrize("argv", [
        ["run", "--mix", "CPU-A"],
        ["avf", "report", "--mix", "CPU-A"],
        ["perf", "trace", "--mix", "CPU-A"],
    ])
    def test_dvm_without_a_closed_interval_exits_2(self, capsys, tmp_path,
                                                   monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--cycles", "1500", "--dvm", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "--cycles 1500" in err and "2000-cycle interval" in err

    @pytest.mark.parametrize("argv", [
        ["run", "--mix", "MEM-A"],
        ["avf", "report", "--mix", "MEM-A"],
    ])
    def test_dvm_target_above_one_exits_2(self, capsys, tmp_path, monkeypatch, argv):
        # Regression: the fraction passed argparse, the baseline ran, and
        # the DVM controller then died with a ValueError traceback (exit 1).
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--cycles", "2000", "--dvm", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --dvm 3 times the baseline's maximum")
        assert "not an AVF in (0, 1]" in err

    def test_dvm_target_of_a_zero_baseline_is_usage_error(self, monkeypatch):
        from types import SimpleNamespace

        from repro.harness import runner

        monkeypatch.setattr(
            runner, "run_sim", lambda *a, **k: SimpleNamespace(max_online_estimate=0.0)
        )
        with pytest.raises(runner.DVMTargetOutOfRange, match=r"estimate 0 is 0,"):
            runner.dvm_target("CPU-A", runner.BenchScale.from_env(2000), 0.5)
        assert issubclass(runner.DVMTargetOutOfRange, runner.UsageError)
        assert issubclass(runner.WindowTooShort, runner.UsageError)


class TestEngineOptions:
    """``sweep`` and ``figures`` refuse engine options they would ignore
    and parse the engine's numbers as usage errors (exit 2)."""

    COMMANDS = {
        "sweep": ["sweep", "--mix", "CPU-A", "--axis", "scheduler=oldest"],
        "figures": ["figures", "fig1"],
    }

    @pytest.mark.parametrize("jobs", [[], ["--jobs", "1"]], ids=["default", "jobs1"])
    @pytest.mark.parametrize("option", [
        ["--serve", ":0"], ["--timeout", "30"],
    ], ids=["serve", "timeout"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_pool_only_option_without_a_pool_is_usage_error(
        self, capsys, tmp_path, monkeypatch, command, option, jobs
    ):
        # Regression: these exited 0 after simulating in-process, with
        # nothing served and no timeout applied.
        monkeypatch.chdir(tmp_path)
        argv = [*self.COMMANDS[command], "--cycles", "1500", "--no-checkpoint",
                "--quiet", *option, *jobs]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {option[0]} needs --jobs 2 or more" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option,value,rule", [
        ("--jobs", "-1", "must be >= 0"),
        ("--retries", "-1", "must be >= 0"),
        ("--timeout", "0", "must be > 0"),
        ("--timeout", "nan", "must be > 0"),
    ])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_out_of_range_engine_number_is_usage_error(
        self, capsys, command, option, value, rule
    ):
        with pytest.raises(SystemExit) as exc:
            main([*self.COMMANDS[command], option, value])
        assert exc.value.code == 2
        assert f"argument {option}: {rule}" in capsys.readouterr().err


class TestPartialExit:
    """A run that skips a point or suite after its retries exits 3, not 0;
    ``--strict`` turns the skip into a failure (exit 1)."""

    SWEEP = ["sweep", "--mix", "CPU-A", "--axis", "dispatch=opt2", "--cycles", "1500",
             "--retries", "0", "--no-checkpoint", "--quiet"]

    @pytest.fixture(autouse=True)
    def _poison(self, monkeypatch):
        from repro.harness import parallel as parallel_mod

        monkeypatch.setenv(parallel_mod.FAULT_ENV, "raise:")

    def test_sweep_with_skipped_point_exits_partial(self, capsys):
        assert main(self.SWEEP) == 3
        assert "warning: skipped dispatch=opt2" in capsys.readouterr().err

    def test_strict_sweep_exits_failure(self, capsys):
        assert main([*self.SWEEP, "--strict"]) == 1
        assert "failed after" in capsys.readouterr().err

    def test_figures_with_skipped_suite_exits_partial(self, capsys):
        argv = ["figures", "fig1", "--retries", "0", "--no-checkpoint", "--quiet"]
        assert main(argv) == 3
        assert "warning: skipped fig1" in capsys.readouterr().err

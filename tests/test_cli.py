"""Command-line interface."""

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
        args = build_parser().parse_args(["reproduce", "fig5", "--full", "--save"])
        assert args.experiment == "fig5" and args.full and args.save


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

    def test_run_small(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CYCLES", "2500")
        from repro.harness.runner import clear_caches

        clear_caches()
        assert main(["run", "--mix", "CPU-A", "--cycles", "2500"]) == 0
        out = capsys.readouterr().out
        assert "throughput IPC" in out and "IQ AVF" in out
        clear_caches()

    def test_reproduce_unknown(self, capsys):
        assert main(["reproduce", "fig99"]) == 2

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
    def test_reproduce_with_stub(self, capsys, monkeypatch, tmp_path):
        import repro.cli as cli

        monkeypatch.setitem(
            cli._EXPERIMENTS, "stub",
            (lambda scale: [{"a": 1.0, "b": 2.0}], "Stub experiment"),
        )
        monkeypatch.chdir(tmp_path)
        assert main(["reproduce", "stub", "--save"]) == 0
        out = capsys.readouterr().out
        assert "Stub experiment" in out and "saved to" in out
        assert (tmp_path / "reports" / "stub.txt").exists()

    def test_reproduce_dict_payload(self, capsys, monkeypatch):
        import repro.cli as cli

        monkeypatch.setitem(
            cli._EXPERIMENTS, "stub2",
            (lambda scale: {"x": 3}, "Dict experiment"),
        )
        assert main(["reproduce", "stub2"]) == 0
        assert "Dict experiment" in capsys.readouterr().out

    def test_scale_overrides(self, monkeypatch):
        import repro.cli as cli

        captured = {}
        monkeypatch.setitem(
            cli._EXPERIMENTS, "stub3",
            (lambda scale: captured.setdefault("scale", scale) and [], "S"),
        )
        main(["reproduce", "stub3", "--cycles", "5000", "--seed", "9", "--full"])
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
                     ["figures"], ["reproduce", "fig1"]):
            args = build_parser().parse_args([*argv, "--cycles", str(n)])
            assert _scale_from_args(args) == from_env

    @pytest.mark.parametrize("argv", [
        ["run"], ["timeline"], ["sweep", "--axis", "seed=1"], ["figures"],
        ["reproduce", "fig1"], ["perf", "trace"], ["perf", "run"],
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

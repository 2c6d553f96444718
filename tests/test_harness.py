"""Experiment harness: scaling, caching and driver output shapes."""

import dataclasses
import hashlib
import json
import os
import re

import pytest

from repro.harness import experiments
from repro.harness.report import format_table, save_report
from repro.harness.runner import (
    BenchScale,
    WindowTooShort,
    build_pipeline,
    clear_caches,
    get_program,
    get_programs,
    mix_harmonic_ipc,
    run_sim,
    single_thread_ipc,
)
from repro.reliability.avf import Structure
from repro.workloads import CATEGORIES

TINY = BenchScale(
    max_cycles=2_500,
    warmup_cycles=500,
    interval_cycles=500,
    ace_window=1_000,
    profile_instructions=8_000,
    profile_window=2_000,
)


@pytest.fixture(autouse=True, scope="module")
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestBenchScale:
    def test_default_groups(self):
        assert BenchScale().groups == ("A",)

    def test_env_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert BenchScale.from_env().groups == ("A", "B", "C")

    def test_env_cycles(self, monkeypatch):
        monkeypatch.setenv("REPRO_CYCLES", "9999")
        assert BenchScale.from_env().max_cycles == 9999

    def test_env_cycles_scales_warmup_down(self, monkeypatch):
        # Regression: REPRO_CYCLES=2000 used to keep warmup_cycles=3000,
        # leaving the whole run warm-up and failing config validation
        # with an opaque message.
        monkeypatch.setenv("REPRO_CYCLES", "2000")
        scale = BenchScale.from_env()
        assert scale.max_cycles == 2000
        assert scale.warmup_cycles == 2000 * 3000 // 14000
        scale.sim_config().validate()

    def test_env_cycles_tiny_budget_still_valid(self, monkeypatch):
        monkeypatch.setenv("REPRO_CYCLES", "10")
        scale = BenchScale.from_env()
        assert 1 <= scale.warmup_cycles < scale.max_cycles
        scale.sim_config().validate()

    def test_env_cycles_large_budget_keeps_default_warmup(self, monkeypatch):
        monkeypatch.setenv("REPRO_CYCLES", "50000")
        scale = BenchScale.from_env()
        assert scale.max_cycles == 50000
        assert scale.warmup_cycles == BenchScale().warmup_cycles

    def test_env_cycles_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_CYCLES", "lots")
        with pytest.raises(ValueError, match="integer cycle count"):
            BenchScale.from_env()

    @pytest.mark.parametrize("raw", ["0", "-5"])
    def test_env_cycles_rejects_nonpositive(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_CYCLES", raw)
        with pytest.raises(ValueError, match="REPRO_CYCLES must be positive"):
            BenchScale.from_env()

    def test_sim_config_valid(self):
        TINY.sim_config().validate()

    def test_mixes_filtered_by_groups(self):
        assert [m.name for m in TINY.mixes("CPU")] == ["CPU-A"]
        full = dataclasses.replace(TINY, groups=("A", "B", "C"))
        assert len(full.mixes("MEM")) == 3


class TestRunner:
    def test_run_sim_produces_result(self):
        res = run_sim("CPU-A", TINY)
        assert res.committed > 0

    def test_result_cache_hit(self):
        r1 = run_sim("CPU-A", TINY)
        r2 = run_sim("CPU-A", TINY)
        assert r1 is r2

    def test_cache_key_distinguishes_config(self):
        r1 = run_sim("CPU-A", TINY)
        r2 = run_sim("CPU-A", TINY, scheduler="visa")
        assert r1 is not r2

    def test_programs_cached_and_profiled(self):
        p1 = get_programs("CPU-A", TINY)
        p2 = get_programs("CPU-A", TINY)
        assert p1 is p2
        assert any(not st.ace_hint for prog in p1 for st in prog.all_insts())

    def test_mixes_share_program_instances(self):
        # Thread i of every mix gets generator seed seed*1000+i, so
        # CPU-A and MIX-A both run perlbmk@1003, MIX-A and MEM-A vpr@1002.
        assert get_programs("CPU-A", TINY)[3] is get_programs("MIX-A", TINY)[3]
        assert get_programs("MIX-A", TINY)[2] is get_programs("MEM-A", TINY)[2]
        assert get_programs("CPU-A", TINY)[2] is not get_programs("MIX-A", TINY)[0]
        unprofiled = get_programs("CPU-A", TINY, profiled=False)[3]
        assert unprofiled is not get_programs("CPU-A", TINY)[3]
        assert get_program("perlbmk", TINY.seed * 1000 + 3, TINY, profiled=False) is unprofiled

    def test_unprofiled_programs_all_ace(self):
        progs = get_programs("MEM-A", TINY, profiled=False)
        assert all(st.ace_hint for prog in progs for st in prog.all_insts())

    def test_build_pipeline_extension_keywords(self):
        programs = get_programs("MEM-A", TINY)
        pipe = build_pipeline(
            programs, TINY, iq_size=48, dispatch="opt2", dvm_target=0.1,
            dvm_structure=Structure.ROB,
        )
        assert pipe.machine.iq_size == 48
        assert pipe.dispatch_policy.iq_size == 48
        assert pipe.dvm_structure is Structure.ROB
        assert pipe.sim == TINY.sim_config()

    def test_unknown_dispatch_raises(self):
        with pytest.raises(KeyError):
            run_sim("CPU-A", TINY, dispatch="opt9")

    def test_single_thread_ipc_positive(self):
        assert single_thread_ipc("gcc", TINY) > 0

    def test_single_thread_ipc_memo_keys_on_full_scale(self):
        # Regression: the memo used to key on max_cycles alone, so a
        # different warm-up returned the first scale's IPC.
        short = BenchScale(max_cycles=3000, warmup_cycles=500)
        long = dataclasses.replace(short, warmup_cycles=1500)
        first = single_thread_ipc("gcc", short)
        second = single_thread_ipc("gcc", long)
        clear_caches()
        assert second == single_thread_ipc("gcc", long)
        assert second != first

    def test_every_kwarg_participates_in_memo_key(self):
        # Regression: the memo key is built from the full parameter set
        # (via a locals() snapshot), so two configurations may only
        # share a cache slot by being equal.  Exercise each run_sim
        # kwarg through _memo_key directly.
        import inspect

        from repro.harness.runner import _memo_key

        sig = inspect.signature(run_sim)
        kwargs = [
            n for n in sig.parameters
            if n not in ("mix_name", "scale", "use_cache")
        ]
        assert set(kwargs) >= {
            "fetch_policy", "scheduler", "dispatch", "dvm_target",
            "dvm_static_ratio", "profiled", "collect_hist",
        }
        base = {n: sig.parameters[n].default for n in kwargs}
        for name in kwargs:
            varied = dict(base)
            varied[name] = "other-value"
            assert _memo_key("CPU-A", TINY, varied) != _memo_key(
                "CPU-A", TINY, base
            ), f"kwarg {name!r} does not participate in the memo key"

    def test_memo_key_not_order_or_slot_ambiguous(self):
        from repro.harness.runner import _memo_key

        assert _memo_key("m", TINY, {"a": 1, "b": None}) != _memo_key(
            "m", TINY, {"a": None, "b": 1}
        )
        assert _memo_key("m", TINY, {"a": 1, "b": 2}) == _memo_key(
            "m", TINY, {"b": 2, "a": 1}
        )

    def test_collect_hist_not_conflated(self):
        # Regression for the concrete collision this audit guards: a
        # histogram-collecting run must not satisfy a plain lookup.
        plain = run_sim("CPU-A", TINY)
        hist = run_sim("CPU-A", TINY, collect_hist=True)
        assert plain is not hist
        assert run_sim("CPU-A", TINY, collect_hist=True) is hist

    def test_unhashable_kwarg_fails_loudly(self):
        with pytest.raises(TypeError, match="dispatch"):
            run_sim("CPU-A", TINY, dispatch=["opt1"])

    def test_use_cache_false_bypasses_memo(self):
        r1 = run_sim("CPU-A", TINY)
        r2 = run_sim("CPU-A", TINY, use_cache=False)
        assert r1 is not r2
        assert r1.committed == r2.committed

    def test_harmonic_ipc_bounded(self):
        res = run_sim("CPU-A", TINY)
        h = mix_harmonic_ipc("CPU-A", TINY, res)
        assert 0.0 <= h <= 2.0


def rows_digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class TestExperimentShapes:
    """Row shapes, plus exact rows at TINY: the digests pin every value
    and the column order of the per-category reduction."""

    def test_fig1_rows(self):
        rows = experiments.fig1_structure_avf(TINY)
        assert [r["category"] for r in rows] == list(CATEGORIES)
        for r in rows:
            assert set(r) >= {"IQ", "ROB", "RF", "FU"}
        assert rows_digest(rows) == (
            "5bcf01ceaf5b6ff9463ecbe82f0f0be800134fc0e1294ef88c37c75db527431e"
        )

    def test_fig2_shape(self):
        rows = experiments.fig2_ready_queue(TINY)
        *hist, mean, longest = rows
        assert [r["rql"] for r in hist[:17]] == list(range(17))
        assert (mean["rql"], longest["rql"]) == ("mean", "max")
        # 96-entry IQ + empty bucket; at TINY every seen length is listed.
        assert longest["p"] <= min(40, 96)
        assert abs(sum(r["p"] for r in hist) - 1.0) < 1e-9
        assert 0 <= mean["ace_pct"] <= 1

    def test_table1_has_19_rows(self):
        rows = experiments.table1_pc_accuracy(TINY)
        assert len(rows) == 19  # 18 benchmarks + AVG
        assert rows[-1]["benchmark"] == "AVG"
        for r in rows[:-1]:
            assert 0.5 <= r["accuracy"] <= 1.0

    def test_fig5_rows(self):
        rows = experiments.fig5_visa_configs(TINY)
        assert len(rows) == 9  # 3 categories x 3 configs
        for r in rows:
            assert r["norm_iq_avf"] > 0
            assert r["norm_ipc"] > 0
        assert rows_digest(rows) == (
            "df530d63da84a7cb9133f9ff0fe71553cb659499a78169e82b91743f78c9e454"
        )

    def test_ablation_ipc_regions_rows(self):
        rows = experiments.ablation_ipc_regions(TINY)
        assert [(r["regions"], r["category"]) for r in rows[:3]] == [
            (2, cat) for cat in CATEGORIES
        ]
        assert rows_digest(rows) == (
            "5c96f84f9c9182878aede19f6933e74c2aa12fd876307de6a96a16e9eff973cd"
        )

    def test_ablation_trigger_fraction_rows(self):
        rows = experiments.ablation_trigger_fraction(TINY)
        assert list(rows[0]) == [
            "trigger_fraction", "category", "pve", "throughput_degradation"
        ]
        assert rows_digest(rows) == (
            "faf313928ef7906d789f753e4a057ff1be945bfb32f1ec63cf15286bee3d8801"
        )

    def test_visa_dvm_rows(self):
        # The headline configuration (Sections 2.1 and 5): profiled MEM-A
        # under VISA issue and DVM at half the baseline's peak online
        # estimate, beside that baseline.
        base = run_sim("MEM-A", TINY)
        target = 0.5 * base.max_online_estimate
        visa_dvm = run_sim("MEM-A", TINY, scheduler="visa", dvm_target=target)
        rows = [
            {
                "config": config,
                "committed": r.committed,
                "ipc": r.ipc,
                "iq_avf": r.iq_avf,
                "iq_interval_avf": r.iq_interval_avf,
                "max_online_estimate": r.max_online_estimate,
                "dvm_mean_ratio": r.dvm_mean_ratio,
            }
            for config, r in (("baseline", base), ("visa+dvm", visa_dvm))
        ]
        assert visa_dvm.iq_avf < base.iq_avf
        assert rows_digest(rows) == (
            "226cbbd5259c7262fdf3e34a156af24b942b5f5ea810eedcad8a3113be7a78bd"
        )

    def test_interval_longer_than_run_fails_before_any_run(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a point ran before the interval check")

        monkeypatch.setattr(experiments, "run_sim", no_run)
        with pytest.raises(WindowTooShort, match="7000-cycle"):
            experiments.ablation_interval_size(TINY)

    def test_dvm_scale_refines_intervals(self):
        s = experiments.dvm_scale(TINY)
        assert s.interval_cycles < TINY.interval_cycles or s.interval_cycles == 1000
        assert s.max_cycles >= TINY.max_cycles


class TestClaims:
    """Every experiment is one registry entry: driver, title and the
    paper's claims as a pure function of the rows."""

    def test_registry_entries(self):
        for name, (driver, title, claims) in experiments.SUITES.items():
            assert callable(driver) and callable(claims) and title, name

    def test_experiments_md_cites_registry_names(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "EXPERIMENTS.md")) as fh:
            cited = set(re.findall(r"reports/(\w+)\.txt", fh.read()))
        assert cited and cited <= set(experiments.SUITES), cited - set(experiments.SUITES)

    def test_every_failing_check_is_reported(self):
        rows = [
            {"category": cat, "IQ": 0.1, "ROB": 0.2, "RF": 0.2, "FU": 0.2}
            for cat in CATEGORIES
        ]
        failed = experiments.fig1_claims(rows)
        assert len(failed) == 3 * 3 + 1, failed
        assert failed[0] == "CPU: IQ 0.100 >= 0.8 x ROB 0.200"
        assert failed[-1] == "IQ CPU 0.100 < MEM 0.100"

    def test_table2_claims(self):
        rows = experiments.table2_machine_config(TINY)
        assert experiments.table2_claims(rows) == []
        rows[1] = {**rows[1], "value": 64}
        assert experiments.table2_claims(rows) == ["issue queue: 64 == paper 96"]


class TestReport:
    def test_format_table(self):
        text = format_table([{"a": 1, "b": 0.5}, {"a": 22, "b": None}], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert "0.500" in text and "-" in text

    def test_format_empty(self):
        assert "(no data)" in format_table([], title="X")

    def test_save_report(self, tmp_path):
        path = save_report("unit", "hello\n", directory=str(tmp_path))
        assert os.path.exists(path)
        assert open(path).read() == "hello\n"

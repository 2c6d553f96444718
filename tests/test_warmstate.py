"""Warm-state reuse (``repro.core.warmstate``).

The functional warm-up depends only on (programs, machine, seed,
warm-up length).  Restoring it from the per-process snapshot cache must
be indistinguishable from computing it, and the cache key must separate
exactly the inputs the warm-up reads.
"""

import pytest

from repro.config import CacheConfig, MachineConfig, ReliabilityConfig, SimulationConfig
from repro.core.pipeline import SMTPipeline
from repro.core import warmstate
from repro.core.warmstate import reset_warm_states
from repro.harness.runner import clear_caches
from repro.reliability.dvm import DVMController
from repro.workloads import get_mix

from tests.test_differential import _PARITY_GRID, _parity_sim

#: One program instance per mix for the whole module: the cache keys on
#: program identity, so sharing them is what makes restores possible.
_PROGRAMS = {mix: get_mix(mix).programs(seed=7) for mix in ("MEM-A", "CPU-A")}


@pytest.fixture(autouse=True)
def _cold_cache():
    reset_warm_states()
    yield
    reset_warm_states()


def _warm_counts(result):
    return result.metrics["warmstate.hits"], result.metrics["warmstate.misses"]


def _run(mix, fetch_policy="icount", scheduler="oldest", dvm_on=False,
         machine=None, **sim_kw):
    sim = _parity_sim(**sim_kw)
    dvm = DVMController(0.05, config=sim.reliability) if dvm_on else None
    return SMTPipeline(
        _PROGRAMS[mix], machine=machine, sim=sim, fetch_policy=fetch_policy,
        scheduler=scheduler, dvm=dvm,
    ).run()


class TestRestoreEqualsCold:
    @pytest.mark.parametrize(
        "mix,fetch_policy,scheduler,dvm_on", _PARITY_GRID,
        ids=[f"{m}-{f}-{s}-{'dvm' if d else 'base'}" for m, f, s, d in _PARITY_GRID],
    )
    def test_reference_engine(self, mix, fetch_policy, scheduler, dvm_on):
        # Populate the cache from a different configuration of the same
        # mix, so the restore is shared across configurations.
        _run(mix)
        restored = _run(mix, fetch_policy, scheduler, dvm_on)
        reset_warm_states()
        cold = _run(mix, fetch_policy, scheduler, dvm_on)
        assert _warm_counts(restored) == (1, 0)
        assert _warm_counts(cold) == (0, 1)
        assert restored == cold


class TestCacheKey:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dvm_on": True},
            {"fetch_policy": "flush"},
            {"scheduler": "visa"},
            {"cycles": 900, "warmup": 100},
        ],
        ids=["dvm", "fetch-policy", "scheduler", "window"],
    )
    def test_timing_configuration_hits(self, kwargs):
        _run("CPU-A")
        assert _warm_counts(_run("CPU-A", **kwargs)) == (1, 0)

    @pytest.mark.parametrize(
        "run_kwargs",
        [
            {"machine": MachineConfig(
                l1d=CacheConfig(size=16 * 1024, assoc=4, line_size=32, latency=3),
            )},
            {"seed": 8},
            {"bp_warmup_instructions": 1_000},
            {"programs": "fresh"},
        ],
        ids=["machine", "seed", "warmup-length", "programs"],
    )
    def test_warmup_inputs_miss(self, run_kwargs):
        _run("CPU-A")
        kwargs = dict(run_kwargs)
        programs = _PROGRAMS["CPU-A"]
        if kwargs.pop("programs", None):
            programs = get_mix("CPU-A").programs(seed=7)
        seed = kwargs.pop("seed", 7)
        warm = kwargs.pop("bp_warmup_instructions", 2_000)
        sim = SimulationConfig(
            max_cycles=1_500, warmup_cycles=300, seed=seed,
            bp_warmup_instructions=warm,
            reliability=ReliabilityConfig(interval_cycles=300, ace_window=600),
        )
        result = SMTPipeline(programs, sim=sim, **kwargs).run()
        assert _warm_counts(result) == (0, 1)

    @pytest.mark.parametrize("iq_size", [48, 192])
    def test_timing_only_machine_change_hits(self, iq_size):
        """The warm-up never reads the IQ size, so a sweep over it
        warms each mix once; the restored run equals a cold one."""
        _run("CPU-A")
        machine = MachineConfig(iq_size=iq_size)
        restored = _run("CPU-A", machine=machine)
        reset_warm_states()
        cold = _run("CPU-A", machine=machine)
        assert _warm_counts(restored) == (1, 0)
        assert _warm_counts(cold) == (0, 1)
        assert restored == cold

    def test_no_warmup_touches_no_cache(self):
        sim = SimulationConfig(
            max_cycles=600, seed=7, bp_warmup_instructions=0,
            reliability=ReliabilityConfig(interval_cycles=300, ace_window=600),
        )
        result = SMTPipeline(_PROGRAMS["CPU-A"], sim=sim).run()
        assert _warm_counts(result) == (0, 0)


    def test_least_recently_used_state_is_evicted(self):
        program = _PROGRAMS["CPU-A"][:1]

        def run(warmup):
            sim = SimulationConfig(
                max_cycles=200, seed=7, bp_warmup_instructions=warmup,
                reliability=ReliabilityConfig(interval_cycles=100, ace_window=200),
            )
            return _warm_counts(SMTPipeline(program, sim=sim).run())

        run(500)
        for extra in range(1, warmstate.CAPACITY):
            run(500 + extra)
        assert run(500) == (1, 0)  # a hit refreshes the oldest state...
        run(500 + warmstate.CAPACITY)  # ...so this evicts 501 instead
        assert run(500) == (1, 0)
        assert run(501) == (0, 1)


class TestSnapshotIsolation:
    def test_restored_state_is_private(self):
        """Each run mutates its restored contexts, caches and predictor;
        none of that may leak back into the snapshot."""
        first = _run("MEM-A", dvm_on=True)
        second = _run("MEM-A", dvm_on=True)
        third = _run("MEM-A", dvm_on=True)
        assert _warm_counts(first) == (0, 1)
        assert _warm_counts(second) == _warm_counts(third) == (1, 0)
        assert first == second == third

    def test_restores_share_configs_not_state(self):
        sim = _parity_sim()
        pipes = [SMTPipeline(_PROGRAMS["CPU-A"], sim=sim) for _ in range(2)]
        for pipe in pipes:
            pipe.run()
        a, b = pipes
        assert a.mem is not b.mem and a.bp is not b.bp
        assert all(x is not y for x, y in zip(a.contexts, b.contexts))
        assert a.contexts[0].program is b.contexts[0].program


class TestObservability:
    def test_metrics_record_warmup_and_restore_seconds(self):
        miss = _run("CPU-A").metrics
        hit = _run("CPU-A").metrics
        assert miss["warmstate.warmup_s"] > 0.0
        assert miss["warmstate.restore_s"] > 0.0  # taking the snapshot
        assert hit["warmstate.warmup_s"] == 0.0
        assert hit["warmstate.restore_s"] > 0.0

    def test_clear_caches_starts_cold(self):
        """``runner.clear_caches`` drops warm states too, even for
        program objects that outlive it."""
        first = _run("CPU-A")
        again = _run("CPU-A")
        clear_caches()
        cold = _run("CPU-A")
        assert _warm_counts(first) == (0, 1)
        assert _warm_counts(again) == (1, 0)
        assert _warm_counts(cold) == (0, 1)
        assert cold == again

"""Differential and fuzz testing.

The cache is checked against an independent reference model under
random access streams; the pipeline is fuzzed across random small
machines/workloads with its structural invariants asserted.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, MachineConfig, ReliabilityConfig, SimulationConfig
from repro.core.pipeline import SMTPipeline
from repro.isa.generator import generate_program
from repro.memory.cache import SetAssocCache
from repro.reliability.profiling import profile_and_apply
from repro.reliability.resource_alloc import L2MissSensitiveAllocation
from tests.stage_reference import iq_insert, pred_bits


class ReferenceCache:
    """Straightforward LRU model: per-set ordered list of tags, written
    independently of the production implementation."""

    def __init__(self, sets, assoc, line):
        self.sets = sets
        self.assoc = assoc
        self.line = line
        self.state = {i: [] for i in range(sets)}

    def access(self, addr):
        lineno = addr // self.line
        idx = lineno % self.sets
        tag = lineno // self.sets
        entries = self.state[idx]
        hit = tag in entries
        if hit:
            entries.remove(tag)
        entries.insert(0, tag)
        del entries[self.assoc:]
        return hit


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=400),
    st.sampled_from([(4, 1), (4, 2), (8, 4), (2, 2)]),
)
def test_cache_matches_reference(addrs, geometry):
    sets, assoc = geometry
    line = 64
    cache = SetAssocCache(
        CacheConfig(size=sets * assoc * line, assoc=assoc, line_size=line, latency=1)
    )
    ref = ReferenceCache(sets, assoc, line)
    for a in addrs:
        assert cache.access(a) == ref.access(a), f"divergence at addr {a:#x}"


def reconcile_counters(pipe):
    """Every running IQ and ROB counter of ``pipe`` against a recount
    of the resident entries; the names of those that disagree."""
    iq = pipe.iq
    resident = list(iq.waiting.values()) + list(iq.ready.values())
    ready = iq.ready
    wrong = []
    if iq.pred_ace_bits != sum(pred_bits(pipe.avf.iq_pred_bits, i) for i in resident):
        wrong.append("iq.pred_ace_bits")
    if iq.ready_pred_ace != sum(1 for i in ready.values() if i.ace_pred):
        wrong.append("iq.ready_pred_ace")
    per_thread = [0] * len(iq.per_thread)
    for inst in resident:
        per_thread[inst.thread] += 1
    if iq.per_thread != per_thread:
        wrong.append("iq.per_thread")
    if iq.ready_ace_tags != sorted(t for t, i in ready.items() if i.ace_pred):
        wrong.append("iq.ready_ace_tags")
    if iq.ready_plain_tags != sorted(t for t, i in ready.items() if not i.ace_pred):
        wrong.append("iq.ready_plain_tags")
    slots = iq.free_slots + [i.iq_slot for i in resident]
    if sorted(slots) != list(range(iq.capacity)):
        wrong.append("iq.free_slots")
    rob_bits = sum(
        pred_bits(pipe.avf.rob_pred_bits, i) for rob in pipe.robs for i in rob.entries
    )
    if pipe.rob_pred_ace_bits != rob_bits:
        wrong.append("rob_pred_ace_bits")
    return wrong


@settings(max_examples=6, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["gcc", "mcf", "swim", "mesa", "vpr"]),
    st.integers(min_value=1, max_value=3),
)
def test_pipeline_fuzz_invariants(seed, benchmark, n_threads):
    """Random (seed, workload, thread-count, machine, policy) pipelines
    must preserve the structural invariants for their whole run, and
    every running IQ/ROB counter must equal its recount every cycle."""
    rng = random.Random(seed)
    machine = MachineConfig(
        num_threads=n_threads,
        iq_size=rng.choice([16, 32, 96]),
        rob_size_per_thread=rng.choice([24, 96]),
        lsq_size_per_thread=rng.choice([12, 48]),
        fetch_width=rng.choice([2, 4, 8]),
        issue_width=rng.choice([2, 4, 8]),
        commit_width=rng.choice([2, 4, 8]),
    )
    machine.validate()
    programs = [
        generate_program(benchmark, seed=seed + i) for i in range(n_threads)
    ]
    for i, program in enumerate(programs):
        # Profiled, so predicted-ACE and predicted-un-ACE entries mix.
        profile_and_apply(program, 3_000, 600, seed=seed + i)
    sim = SimulationConfig(
        max_cycles=700, warmup_cycles=0, seed=seed,
        bp_warmup_instructions=1_000,
        reliability=ReliabilityConfig(interval_cycles=200, ace_window=400),
    )
    opt2 = rng.random() < 0.5
    pipe = SMTPipeline(
        programs, machine=machine, sim=sim,
        fetch_policy=rng.choice(["icount", "rr", "stall", "flush", "dg", "pdg"]),
        scheduler=rng.choice(["oldest", "visa"]),
        dispatch_policy=(
            L2MissSensitiveAllocation(machine.iq_size, t_cache_miss=2) if opt2 else None
        ),
    )
    violations = []
    orig = pipe._tick_stats

    def checked():
        if len(pipe.iq) > machine.iq_size:
            violations.append(("iq", pipe.cycle))
        if pipe.iq.pred_ace_bits < 0 or pipe.rob_pred_ace_bits < 0:
            violations.append(("counter", pipe.cycle))
        for t in range(n_threads):
            if len(pipe.robs[t]) > machine.rob_size_per_thread:
                violations.append(("rob", pipe.cycle))
            if len(pipe.lsqs[t]) > machine.lsq_size_per_thread:
                violations.append(("lsq", pipe.cycle))
            if pipe._outstanding_l2[t] < 0 or pipe._outstanding_l1d[t] < 0:
                violations.append(("outstanding", pipe.cycle))
        for name in reconcile_counters(pipe):
            violations.append((name, pipe.cycle))
        orig()

    pipe._tick_stats = checked
    res = pipe.run()
    assert violations == []
    assert res.committed > 0
    assert 0.0 <= res.iq_avf <= 1.0


# ----------------------------------------------------------------------
# Shared configuration of the golden-digest runs.
# ----------------------------------------------------------------------
import pytest

from repro.isa.instruction import DynInst, DynState, OpClass, StaticInst
from repro.isa.program import BasicBlock, SyntheticProgram
from repro.reliability.dvm import DVMController
from repro.telemetry.bus import EventBus
from repro.telemetry.profiler import StageProfiler
from repro.workloads import get_mix


def _parity_sim(hist=False, warmup=300, cycles=1_500):
    return SimulationConfig(
        max_cycles=cycles, warmup_cycles=warmup, seed=7,
        bp_warmup_instructions=2_000,
        collect_ready_queue_histogram=hist,
        reliability=ReliabilityConfig(interval_cycles=300, ace_window=600),
    )


def _run(mix, fetch_policy, scheduler, dvm_on, pipe_kw=None, **sim_kw):
    # Fresh program objects per run: results are a pure function of the
    # seed, so sharing is unnecessary and isolation is total.
    programs = get_mix(mix).programs(seed=7)
    sim = _parity_sim(**sim_kw)
    dvm = DVMController(0.05, config=sim.reliability) if dvm_on else None
    return SMTPipeline(
        programs, sim=sim, fetch_policy=fetch_policy,
        scheduler=scheduler, dvm=dvm, **(pipe_kw or {}),
    ).run()


# One row per figure family: fig5 sweeps fetch policies, fig8 the VISA
# scheduler, fig9/10 DVM; MEM-A is memory-bound, CPU-A issue-dense.
_PARITY_GRID = [
    ("MEM-A", "icount", "oldest", False),
    ("MEM-A", "icount", "oldest", True),
    ("MEM-A", "icount", "visa", False),
    ("MEM-A", "icount", "visa", True),
    ("MEM-A", "flush", "oldest", False),
    ("MEM-A", "flush", "visa", True),
    ("MEM-A", "stall", "oldest", False),
    ("MEM-A", "rr", "oldest", False),
    ("CPU-A", "icount", "oldest", False),
    ("CPU-A", "icount", "visa", True),
    ("CPU-A", "pdg", "oldest", False),
    ("CPU-A", "rr", "visa", False),
]


# ----------------------------------------------------------------------
# Golden digests pin the pipeline's results.  A change meant to alter
# simulated behaviour regenerates them with ``result_digest(_run(...))``
# and says why.
# ----------------------------------------------------------------------
import dataclasses
import hashlib
import json


def _canon(value):
    """JSON-ready form of every compared field (provenance and the
    metrics snapshot are ``compare=False`` and left out), canonicalised
    like the end-to-end benchmark's result digests."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canon(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.compare
        }
    if isinstance(value, dict):
        return {str(getattr(k, "name", k)): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if hasattr(value, "tolist"):
        return value.tolist()
    return value


def result_digest(result):
    return hashlib.sha256(
        json.dumps(_canon(result), sort_keys=True).encode()
    ).hexdigest()


def _grid_id(mix, fetch_policy, scheduler, dvm_on):
    return f"{mix}-{fetch_policy}-{scheduler}-{'dvm' if dvm_on else 'base'}"


# The parity grid's profiles are unapplied (every ace_hint is ACE), so
# VISA orders exactly like oldest-first and those rows share digests.
_GOLDEN = {
    "MEM-A-icount-oldest-base": "38ff5fa1d7e172d6f2a999e55a668c0a4fb5d5e914c358158aac2fb0a23b7e2c",
    "MEM-A-icount-oldest-dvm": "a1be5f431638d16b5f96393372e42563164548ad2282dc29fbf5c69202a4d18b",
    "MEM-A-icount-visa-base": "38ff5fa1d7e172d6f2a999e55a668c0a4fb5d5e914c358158aac2fb0a23b7e2c",
    "MEM-A-icount-visa-dvm": "a1be5f431638d16b5f96393372e42563164548ad2282dc29fbf5c69202a4d18b",
    "MEM-A-flush-oldest-base": "270f7473473ad369ac48e9a4b2f5a7712361822cfa614c0abde7b3e03b69a24b",
    "MEM-A-flush-visa-dvm": "04ec7f7ae63e83f9eb0808946bd07c92ced308b5ed7e41620072b5f2c7a83b7d",
    "MEM-A-stall-oldest-base": "054243ab4bfaa66f590d913d9e0b185146a5f02e3193895ea7a24cbc681bccfb",
    "MEM-A-rr-oldest-base": "e002063655ba6e3732d92b1071eba8df9a7bf7f82deeab26f9016780497cb0bb",
    "CPU-A-icount-oldest-base": "8abe9dab46df754fb742ed38a736edeec8de55f8ca0601b4912d511eb2c8fe04",
    "CPU-A-icount-visa-dvm": "c748c6d8e5e24e84c21043d31c4eddcbbe0d2402e83a3ead1f5704d344f96f24",
    "CPU-A-pdg-oldest-base": "a1a5752aa9feb6b8439213fade50a6ea93ee5f00264e07a1de88907465288d6a",
    "CPU-A-rr-visa-base": "b9dfa2de9dd0a2b22465afbdb8e48812657d1fa81ff1a0fb239d394683e97322",
}
_GOLDEN_WARMUP_ZERO = "e706b5f0ca32d99bb2bd30bc49bfdc64f2c205e6a6d7194ef141e114ad471eeb"
_GOLDEN_HISTOGRAM = "9ff0bd34622dd40127f2bfbb23ea0b64ebe169ad354e7cb625bae23601a129ff"


class TestGoldenDigests:
    def test_golden_covers_the_parity_grid(self):
        assert set(_GOLDEN) == {_grid_id(*row) for row in _PARITY_GRID}

    @pytest.mark.parametrize(
        "mix,fetch_policy,scheduler,dvm_on", _PARITY_GRID,
        ids=[_grid_id(*row) for row in _PARITY_GRID],
    )
    def test_reference_reproduces_golden(self, mix, fetch_policy, scheduler, dvm_on):
        res = _run(mix, fetch_policy, scheduler, dvm_on)
        assert result_digest(res) == _GOLDEN[_grid_id(mix, fetch_policy, scheduler, dvm_on)]

    @pytest.mark.parametrize("mode", ["bare", "bus", "profiler"])
    def test_hook_modes_reproduce_golden(self, mode):
        """The run loop's per-stage hook runs only with a bus or a
        profiler attached; neither may change the result."""
        bus = EventBus()
        events = []
        if mode == "bare":
            pipe_kw = {"telemetry": False}
        elif mode == "bus":
            bus.subscribe_all(events.append)
            pipe_kw = {"bus": bus}
        else:
            profiler = StageProfiler()
            pipe_kw = {"profiler": profiler}
        res = _run("MEM-A", "icount", "visa", True, pipe_kw=pipe_kw)
        assert result_digest(res) == _GOLDEN["MEM-A-icount-visa-dvm"]
        if mode == "bus":
            assert events and bus.stage == ""
            assert {e.stage for e in events} >= {"commit", "dispatch", "tick"}
        elif mode == "profiler":
            assert profiler.report().cycles == 1_500

    def test_warmup_zero_edge(self):
        res = _run("MEM-A", "icount", "oldest", False, warmup=0)
        assert result_digest(res) == _GOLDEN_WARMUP_ZERO

    def test_ready_queue_histograms(self):
        res = _run("MEM-A", "icount", "visa", True, hist=True)
        assert res.ready_hist is not None
        assert result_digest(res) == _GOLDEN_HISTOGRAM


# ----------------------------------------------------------------------
# Hash-seed independence.  Python salts str hashes per process, so a
# set or dict keyed by strings iterates in an order PYTHONHASHSEED
# picks; if that order reached a result, two processes would disagree.
# ----------------------------------------------------------------------
import os
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_HASH_SEED_PROBE = """
from repro.harness.runner import BenchScale, run_sim
from tests.test_differential import result_digest

scale = BenchScale.from_env(3000)
print(result_digest(run_sim("MIX-A", scale, scheduler="visa", dispatch="opt2")))
print(result_digest(run_sim("MEM-A", scale, fetch_policy="pdg")))
"""


class TestHashSeedIndependence:
    def test_digests_agree_across_hash_seeds(self):
        env = {k: v for k, v in os.environ.items()
               if k not in ("REPRO_CYCLES", "REPRO_FULL")}
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(_ROOT, "src"), _ROOT, env.get("PYTHONPATH", "")]
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _HASH_SEED_PROBE],
                cwd=_ROOT, env={**env, "PYTHONHASHSEED": seed},
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for seed in ("0", "1")
        ]
        outputs = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            outputs.append(out.split())
        assert len(outputs[0]) == 2
        assert outputs[0] == outputs[1]


# ----------------------------------------------------------------------
# Metric pins.  The digests leave out the metrics snapshot
# (``compare=False``), so the counters the loop's inert-cycle skip
# replicates in closed form are pinned here, on the DVM rows of the
# grid and on two DVM rows it lacks: Optimization 2 dispatch (its
# L2-miss threshold scaled to the 300-cycle interval so FLUSH mode
# switches on and off) and ROB-DVM, whose samples read the ROB counter.
# Values were generated before the skip existed.
# ----------------------------------------------------------------------
from repro.reliability.avf import Structure
from repro.telemetry.topics import TOPIC_DVM_THROTTLE


def _pin_run(row, **pipe_kw):
    """Run a pinned row: a DVM row of the grid, or one of the two new
    MEM-A icount/oldest rows."""
    if row == "MEM-A-opt2-dvm":
        pipe_kw["dispatch_policy"] = L2MissSensitiveAllocation(
            MachineConfig().iq_size, t_cache_miss=10
        )
        return _run("MEM-A", "icount", "oldest", True, pipe_kw=pipe_kw)
    if row == "MEM-A-rob-dvm":
        pipe_kw["dvm_structure"] = Structure.ROB
        return _run("MEM-A", "icount", "oldest", True, pipe_kw=pipe_kw)
    mix, fetch_policy, scheduler, _ = row.rsplit("-", 3)
    return _run(mix, fetch_policy, scheduler, True, pipe_kw=pipe_kw)


_PIN_DIGESTS = {
    "MEM-A-opt2-dvm": "587843502d7eef1f834b7df3e0c32338836f88d8696e303010e05af743e586a0",
    "MEM-A-rob-dvm": "3076558a9603f68c61ef81118ba467c5c466bc039971f00de154afd9ac2f6fe5",
}
_PIN_METRICS = {
    "MEM-A-icount-oldest-dvm": {
        "dvm.l2_triggers": 24, "dvm.mean_ratio": 1.375, "dvm.restore_grants": 0,
        "dvm.samples": 25, "dvm.throttled_dispatch_checks": 5377,
        "dvm.triggered_samples": 22, "dvm.wq_ratio": 4.5,
        "pipeline.commit.total": 308, "pipeline.cycles": 1500,
    },
    "MEM-A-flush-visa-dvm": {
        "dvm.l2_triggers": 31, "dvm.mean_ratio": 1.6125, "dvm.restore_grants": 10,
        "dvm.samples": 25, "dvm.throttled_dispatch_checks": 3493,
        "dvm.triggered_samples": 21, "dvm.wq_ratio": 0.8125,
        "pipeline.commit.total": 482, "pipeline.cycles": 1500,
    },
    "CPU-A-icount-visa-dvm": {
        "dvm.l2_triggers": 12, "dvm.mean_ratio": 2.492568359375,
        "dvm.restore_grants": 0, "dvm.samples": 25,
        "dvm.throttled_dispatch_checks": 2440, "dvm.triggered_samples": 16,
        "dvm.wq_ratio": 1.429443359375,
        "pipeline.commit.total": 3474, "pipeline.cycles": 1500,
    },
    "MEM-A-opt2-dvm": {
        "dvm.l2_triggers": 33, "dvm.mean_ratio": 2.165, "dvm.restore_grants": 15,
        "dvm.samples": 25, "dvm.throttled_dispatch_checks": 4505,
        "dvm.triggered_samples": 18, "dvm.wq_ratio": 5.3125,
        "pipeline.commit.total": 560, "pipeline.cycles": 1500,
    },
    "MEM-A-rob-dvm": {
        "dvm.l2_triggers": 23, "dvm.mean_ratio": 1.135, "dvm.restore_grants": 0,
        "dvm.samples": 25, "dvm.throttled_dispatch_checks": 5381,
        "dvm.triggered_samples": 24, "dvm.wq_ratio": 0.5,
        "pipeline.commit.total": 308, "pipeline.cycles": 1500,
    },
}
#: ``dvm.throttle`` events a subscriber receives on MEM-A-icount-oldest-dvm.
_PIN_THROTTLE_EVENTS = 241


class TestMetricPins:
    @pytest.mark.parametrize("row", sorted(_PIN_METRICS))
    def test_metrics_match_pins(self, row):
        res = _pin_run(row)
        pins = _PIN_METRICS[row]
        assert {k: res.metrics[k] for k in pins} == pins
        if row in _PIN_DIGESTS:
            assert result_digest(res) == _PIN_DIGESTS[row]
        else:
            assert result_digest(res) == _GOLDEN[row]

    def test_skip_is_reported(self):
        res = _pin_run("MEM-A-icount-oldest-dvm")
        assert res.metrics["pipeline.cycles.skipped"] > 0

    def test_throttle_subscriber_sees_every_cycle(self):
        bus = EventBus()
        events = []
        bus.subscribe(TOPIC_DVM_THROTTLE, events.append)
        res = _pin_run("MEM-A-icount-oldest-dvm", bus=bus)
        assert len(events) == _PIN_THROTTLE_EVENTS
        assert res.metrics["pipeline.cycles.skipped"] == 0
        pins = _PIN_METRICS["MEM-A-icount-oldest-dvm"]
        assert {k: res.metrics[k] for k in pins} == pins
        assert result_digest(res) == _GOLDEN["MEM-A-icount-oldest-dvm"]


# ----------------------------------------------------------------------
# The inert-cycle skip against the every-cycle loop.  A ``dvm.throttle``
# subscriber makes the loop run every cycle, so the same configuration
# with and without one must agree on every result field and every
# snapshot value (bar the skip counter and the wall-clock warm-state
# gauges).  The rows cover what the skip must stop at or replicate:
# restore grants, ratio recomputes, fetch stalls, the warm-up mark and
# the histogram, FLUSH and opt2's mode switches, round-robin fetch.
# ----------------------------------------------------------------------
from repro.reliability.resource_alloc import DynamicIQAllocation

_SKIP_ROWS = [
    # mix, fetch policy, DVM, dispatch, warm-up, histogram
    ("MEM-A", "icount", True, "opt1", 777, True),
    ("MEM-B", "flush", True, "opt1", 400, False),
    ("MEM-B", "icount", False, None, 777, True),
    ("MIX-A", "rr", True, "opt2", 0, False),
    ("MEM-A", "stall", True, None, 450, True),
]


def _skip_run(mix, fetch_policy, dvm_on, dispatch, warmup, hist, bus):
    iq_size = MachineConfig().iq_size
    policy = None
    if dispatch == "opt1":
        policy = DynamicIQAllocation(iq_size)
    elif dispatch == "opt2":
        policy = L2MissSensitiveAllocation(iq_size, t_cache_miss=10)
    return _run(mix, fetch_policy, "oldest", dvm_on, warmup=warmup, hist=hist,
                pipe_kw={"dispatch_policy": policy, "bus": bus})


def _comparable_metrics(res):
    return {
        k: v for k, v in res.metrics.items()
        if k != "pipeline.cycles.skipped" and not k.startswith("warmstate.")
    }


class TestInertSkip:
    @pytest.mark.parametrize("row", _SKIP_ROWS, ids=["-".join(map(str, r)) for r in _SKIP_ROWS])
    def test_skip_matches_every_cycle(self, row):
        skipping = _skip_run(*row, bus=EventBus())
        bus = EventBus()
        bus.subscribe(TOPIC_DVM_THROTTLE, lambda event: None)
        every = _skip_run(*row, bus=bus)
        assert skipping.metrics["pipeline.cycles.skipped"] > 0
        assert every.metrics["pipeline.cycles.skipped"] == 0
        assert result_digest(skipping) == result_digest(every)
        assert _comparable_metrics(skipping) == _comparable_metrics(every)


# ----------------------------------------------------------------------
# Issue-bandwidth starvation regression (the bugfix this PR pins).
# ----------------------------------------------------------------------
def _fu_burst_program(n_fmult, n_ialu, name="fmult-burst"):
    """A self-looping block: a burst of FMULTs, then independent IALUs."""
    insts = []
    pc = 0x1000
    for _ in range(n_fmult):
        insts.append(StaticInst(pc=pc, opclass=OpClass.FMULT))
        pc += 4
    for _ in range(n_ialu):
        insts.append(StaticInst(pc=pc, opclass=OpClass.IALU))
        pc += 4
    prog = SyntheticProgram(
        name=name, blocks=[BasicBlock(bid=0, insts=insts, fall_block=0)]
    )
    prog.validate()
    return prog


class TestIssueStarvationRegression:
    def test_issue_fills_width_past_fu_blocked_entries(self):
        """More ready FMULTs than any fixed selection window, one FMULT
        unit: issue must skip the blocked entries and still fill the
        full width from younger IALUs (the former width*2 over-selection
        window issued exactly one instruction here)."""
        machine = MachineConfig(num_threads=1, fp_mult_div_sqrt=1)
        machine.validate()
        prog = _fu_burst_program(20, 8)
        pipe = SMTPipeline(
            [prog], machine=machine,
            sim=_parity_sim(warmup=0, cycles=100),
        )
        statics = list(prog.all_insts())
        insts = []
        for i, st_inst in enumerate(statics[:28]):
            d = DynInst(tag=i + 1, thread=0, static=st_inst, stream_pos=i)
            d.ace_pred = True
            iq_insert(pipe.iq, d, cycle=0)
            insts.append(d)
        pipe._issue()
        issued = [d for d in insts if d.state == DynState.ISSUED]
        assert len(issued) == machine.issue_width
        fmults = [d for d in issued if d.opclass == OpClass.FMULT]
        assert len(fmults) == 1  # the single FP mult/div/sqrt unit
        # Oldest eligible entries win: the issued FMULT is the oldest.
        assert fmults[0].tag == 1

    def test_fu_burst_sustains_issue_bandwidth(self):
        """Periodic 17-wide FMULT bursts (wider than the old selection
        window) in a mostly-IALU stream: with starvation fixed the
        machine sustains high IPC through each burst."""
        machine = MachineConfig(num_threads=1, fp_mult_div_sqrt=1)
        machine.validate()
        prog = _fu_burst_program(17, 153)
        # A short functional warm-up pre-warms the i-cache; a cold
        # 170-instruction footprint would serialize on ~400-cycle
        # compulsory line misses and measure memory, not issue.
        sim = SimulationConfig(
            max_cycles=1_200, warmup_cycles=200, seed=11,
            bp_warmup_instructions=2_000,
            reliability=ReliabilityConfig(interval_cycles=300, ace_window=600),
        )
        res = SMTPipeline([prog], machine=machine, sim=sim).run()
        assert res.ipc > 5.0
        assert res.committed > 5_000

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


@settings(max_examples=6, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["gcc", "mcf", "swim", "mesa", "vpr"]),
    st.integers(min_value=1, max_value=3),
)
def test_pipeline_fuzz_invariants(seed, benchmark, n_threads):
    """Random (seed, workload, thread-count) pipelines must preserve the
    structural invariants for their whole run."""
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
    sim = SimulationConfig(
        max_cycles=700, warmup_cycles=0, seed=seed,
        bp_warmup_instructions=1_000,
        reliability=ReliabilityConfig(interval_cycles=200, ace_window=400),
    )
    pipe = SMTPipeline(programs, machine=machine, sim=sim)
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
            pipe.iq.insert(d, cycle=0)
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

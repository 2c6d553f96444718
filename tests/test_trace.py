"""Pipeline tracer: recording, summaries, JSONL round-trip."""

import pytest

from repro.config import ReliabilityConfig, SimulationConfig
from repro.core.pipeline import SMTPipeline
from repro.harness.trace import PipelineTracer, TraceEvent
from repro.isa.generator import generate_program
from repro.workloads import get_mix


def make_pipe(cycles=1_200, mix="CPU-A"):
    sim = SimulationConfig(
        max_cycles=cycles, warmup_cycles=0, seed=3, bp_warmup_instructions=2_000,
        reliability=ReliabilityConfig(interval_cycles=400, ace_window=800),
    )
    return SMTPipeline(get_mix(mix).programs(seed=3), sim=sim)


@pytest.fixture(scope="module")
def traced():
    pipe = make_pipe()
    with PipelineTracer(pipe) as tracer:
        result = pipe.run()
    return tracer, result


class TestRecording:
    def test_committed_events_match_result(self, traced):
        tracer, result = traced
        assert len(tracer.committed()) == result.committed

    def test_squashed_events_recorded(self, traced):
        tracer, result = traced
        squashed = [e for e in tracer.events if e.squashed]
        assert len(squashed) == result.squashed

    def test_stage_timestamps_ordered(self, traced):
        tracer, _ = traced
        for e in tracer.committed():
            if e.dispatch >= 0:
                assert e.fetch <= e.dispatch
            if e.issue >= 0:
                assert e.dispatch <= e.issue
            if e.complete >= 0 and e.issue >= 0:
                assert e.issue < e.complete
            if e.commit >= 0 and e.complete >= 0:
                assert e.complete <= e.commit

    def test_unhook_restores_pipeline(self):
        pipe = make_pipe(cycles=300)
        with PipelineTracer(pipe) as tracer:
            pass
        assert pipe._squash_thread.__name__ == "_squash_thread"

    def test_limit_respected(self):
        pipe = make_pipe(cycles=800)
        with PipelineTracer(pipe, limit=50) as tracer:
            pipe.run()
        assert len(tracer.events) == 50

    def test_exclude_squashed(self):
        pipe = make_pipe(cycles=600)
        with PipelineTracer(pipe, include_squashed=False) as tracer:
            pipe.run()
        assert all(not e.squashed for e in tracer.events)

    def test_rejects_bad_limit(self):
        with pytest.raises(ValueError):
            PipelineTracer(make_pipe(cycles=100), limit=0)


class TestSummary:
    def test_summary_fields(self, traced):
        tracer, result = traced
        s = tracer.summary()
        assert s["committed"] == result.committed
        assert s["mean_total_latency"] > 0
        assert s["mean_iq_residency"] >= 0
        assert 0 <= s["ace_fraction"] <= 1

    def test_ace_fraction_is_the_oracle_value(self, traced):
        # Nothing is classified at commit; every committed event carries
        # the analyzer's final ACE-ness, so an untruncated trace agrees
        # with the run.
        tracer, result = traced
        assert len(tracer.events) < tracer.limit
        assert all(e.ace is not None for e in tracer.committed())
        assert all(e.ace is None for e in tracer.events if e.squashed)
        assert tracer.summary()["ace_fraction"] == result.ace_fraction

    def test_empty_summary(self):
        pipe = make_pipe(cycles=300)
        tracer = PipelineTracer(pipe)
        assert tracer.summary()["committed"] == 0

    def test_thread_filter(self, traced):
        tracer, _ = traced
        t0 = tracer.of_thread(0)
        assert t0 and all(e.thread == 0 for e in t0)


class TestJsonl:
    def test_round_trip(self, traced, tmp_path):
        tracer, _ = traced
        path = str(tmp_path / "trace.jsonl")
        n = tracer.to_jsonl(path)
        back = PipelineTracer.read_jsonl(path)
        assert len(back) == n
        assert back[0] == tracer.events[0]

    def test_event_properties(self):
        e = TraceEvent(
            tag=1, thread=0, pc=0x10, opclass="IALU",
            fetch=5, dispatch=7, ready=8, issue=9, complete=10, commit=12,
            squashed=False, ace=True, ace_pred=True, mispredicted=False,
            l1_miss=False, l2_miss=False,
        )
        assert e.iq_residency == 2
        assert e.total_latency == 7

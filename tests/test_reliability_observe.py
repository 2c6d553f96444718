"""Reliability observability: the streaming observer, the vulnerability
report, and the online-vs-oracle convergence property."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.config import MachineConfig
from repro.isa.instruction import DynInst, DynState, OpClass, StaticInst
from repro.reliability.avf import AVFAccount, Structure
from repro.reliability.observe import SLOT_BIN, ReliabilityObserver
from repro.telemetry.bus import EventBus
from tests.stage_reference import pred_bits

L = 100  # interval length used throughout


def _dyn(tag=1, thread=0, opclass=OpClass.IALU, ace=True, ace_pred=True,
         dispatch=0, iq_leave=10, issue=10, commit=20, latency=1,
         state=DynState.COMMITTED, iq_slot=0):
    st_ = StaticInst(pc=0x1000 + 4 * tag, opclass=opclass, dest=1, srcs=())
    d = DynInst(tag=tag, thread=thread, static=st_, stream_pos=tag)
    d.state = state
    d.ace = ace
    d.ace_pred = ace_pred
    d.dispatch_cycle = dispatch
    d.iq_leave_cycle = iq_leave
    d.issue_cycle = issue
    d.commit_cycle = commit
    d.exec_latency = latency
    d.iq_slot = iq_slot
    return d


def _observed_account():
    """An accountant wired to a bus with an attached observer."""
    machine = MachineConfig()
    acct = AVFAccount(machine, interval_cycles=L)
    bus = EventBus()
    acct.bus = bus
    obs = ReliabilityObserver(
        interval_cycles=L,
        capacity_bits={
            "iq": acct.capacity_bits(Structure.IQ),
            "rob": acct.capacity_bits(Structure.ROB),
            "rf": acct.capacity_bits(Structure.RF),
            "fu": acct.capacity_bits(Structure.FU),
        },
        iq_slots=machine.iq_size,
    ).attach(bus)
    return acct, bus, obs


class TestObserverStream:
    def test_reproduces_accountant_series_from_stream(self):
        """The observer must rebuild the accountant's interval AVF
        series purely from bus events (latency-1 residencies within one
        interval, so FU bucketing is exact too)."""
        acct, _, obs = _observed_account()
        acct.attribute((_dyn(tag=1, dispatch=10, iq_leave=40, issue=40,
                             commit=90, iq_slot=2),))
        acct.attribute((_dyn(tag=2, thread=1, dispatch=120, iq_leave=180,
                             issue=180, commit=199, iq_slot=5),))
        acct.close(300)
        rep = obs.report(300)
        for s, enum_s in (("iq", Structure.IQ), ("rob", Structure.ROB),
                          ("fu", Structure.FU)):
            assert rep.oracle_interval_avf[s] == pytest.approx(
                acct.interval_avf(enum_s)
            ), s
            assert rep.oracle_overall_avf[s] == pytest.approx(
                acct.overall_avf(enum_s)
            ), s
        assert rep.attributions == 2

    def test_per_thread_shares(self):
        acct, _, obs = _observed_account()
        acct.attribute((_dyn(tag=1, thread=0, dispatch=0, iq_leave=30),))
        acct.attribute((_dyn(tag=2, thread=1, dispatch=0, iq_leave=60),))
        acct.close(L)
        rep = obs.report(L)
        bit_cycles = rep.per_thread_bit_cycles["iq"]
        assert bit_cycles[1] == 2 * bit_cycles[0]

    def test_rf_stream(self):
        acct, _, obs = _observed_account()

        acct.attribute_rf(1, [(10, 40, 50)])
        acct.close(L)
        rep = obs.report(L)
        assert rep.rf_lifetimes == 1
        assert rep.oracle_overall_avf["rf"] == pytest.approx(
            acct.overall_avf(Structure.RF)
        )
        assert rep.residency["rf_lifetime"]["count"] == 1

    def test_heatmap_spreads_residency_across_intervals(self):
        acct, _, obs = _observed_account()
        # Slot 0, resident [50, 150): half in interval 0, half in 1.
        acct.attribute((_dyn(dispatch=50, iq_leave=150, issue=-1,
                             commit=-1, iq_slot=0),))
        acct.close(200)
        rep = obs.report(200)
        row = rep.heatmap_occupancy[0]  # slots 0..SLOT_BIN-1
        assert row[0] == pytest.approx(50 / (SLOT_BIN * L))
        assert row[1] == pytest.approx(50 / (SLOT_BIN * L))
        vuln = rep.heatmap_vulnerability[0]
        assert vuln[0] > 0 and vuln[1] > 0
        assert vuln[0] + vuln[1] <= acct.layout.iq_ace * 100

    def test_residency_histograms(self):
        acct, _, obs = _observed_account()
        acct.attribute((_dyn(dispatch=0, iq_leave=32, issue=32, commit=64),))
        acct.close(L)
        h = obs.histograms["iq_residency"]
        assert h.count == 1 and h.maximum == 32
        assert obs.histograms["iq_wait"].count == 1

    def test_detach_stops_accumulation(self):
        acct, _, obs = _observed_account()
        acct.attribute((_dyn(tag=1),))
        obs.detach()
        acct.attribute((_dyn(tag=2),))
        assert obs.attributions == 1

    def test_report_round_trips_as_json(self):
        acct, _, obs = _observed_account()
        acct.attribute((_dyn(),))
        acct.close(L)
        rep = obs.report(L)
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["attributions"] == 1
        assert doc["per_thread_bit_cycles"]["iq"]["0"] > 0
        text = rep.format()
        assert "Vulnerability report" in text and "heatmap" in text

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ReliabilityObserver(0, {}, 4)
        with pytest.raises(ValueError):
            ReliabilityObserver(L, {}, 0)


class TestObservedRun:
    """End-to-end: a real pipeline with the observer attached."""

    @pytest.fixture(scope="class")
    def observed(self):
        from repro.harness.runner import BenchScale, build_pipeline, get_programs
        from repro.reliability.cli import AVF_TRACE_TOPICS
        from repro.telemetry.timeline import TimelineRecorder

        scale = BenchScale(
            max_cycles=4_000, warmup_cycles=1_000, interval_cycles=1_000,
            ace_window=1_000, profile_instructions=10_000,
            profile_window=2_000,
        )
        pipe = build_pipeline(get_programs("MEM-A", scale), scale, dvm_target=0.3)
        with ReliabilityObserver.for_pipeline(pipe) as observer, \
                TimelineRecorder(pipe.bus, topics=AVF_TRACE_TOPICS) as recorder:
            result = pipe.run()
        return result, observer, recorder

    def test_oracle_matches_result(self, observed):
        result, observer, _ = observed
        rep = observer.report(result.cycles)
        assert rep.attributions > 0
        assert rep.oracle_overall_avf["iq"] == pytest.approx(
            result.overall_avf[Structure.IQ], rel=1e-9
        )
        assert rep.oracle_interval_avf["iq"] == pytest.approx(
            result.iq_interval_avf
        )

    def test_online_series_and_divergence(self, observed):
        result, observer, _ = observed
        rep = observer.report(result.cycles)
        assert len(rep.online_interval_avf["iq"]) == rep.intervals
        assert "iq" in rep.divergence
        assert math.isfinite(rep.divergence["iq"]["mean_abs"])
        # DVM publishes its estimate stream.
        assert observer.estimates
        assert all(s == "iq" for _, s, _, _ in observer.estimates)

    def test_recorded_trace_has_counters(self, observed, tmp_path):
        from repro.perf.chrome_trace import (
            read_trace,
            validate_trace,
            write_chrome_trace,
        )

        _, _, recorder = observed
        assert recorder is not None and recorder.events
        path = tmp_path / "avf-trace.json"
        write_chrome_trace(str(path), recorded=recorder.events)
        counts = validate_trace(read_trace(str(path)))
        assert counts.get("C", 0) > 0

    def test_no_observer_run_unaffected(self, observed):
        """The same configuration without an observer must produce the
        identical physics (zero-subscriber fast path is inert)."""
        from repro.harness.runner import BenchScale, run_sim

        result, _, _ = observed
        scale = BenchScale(
            max_cycles=4_000, warmup_cycles=1_000, interval_cycles=1_000,
            ace_window=1_000, profile_instructions=10_000,
            profile_window=2_000,
        )
        plain = run_sim("MEM-A", scale, dvm_target=0.3)
        assert plain.iq_avf == pytest.approx(result.iq_avf)
        assert plain.ipc == pytest.approx(result.ipc)


# ----------------------------------------------------------------------
# Online vs. oracle convergence (property)
# ----------------------------------------------------------------------
@st.composite
def _in_interval_spans(draw):
    """Residency spans each contained in a single interval; the span's
    leave cycle may fall exactly on the interval edge."""
    n = draw(st.integers(1, 10))
    spans = []
    for _ in range(n):
        bucket = draw(st.integers(0, 3))
        start = draw(st.integers(0, L - 1))
        end = draw(st.integers(start + 1, L))
        spans.append((bucket * L + start, bucket * L + end))
    return spans


class TestOnlineOracleConvergence:
    @settings(max_examples=25, deadline=None)
    @given(_in_interval_spans())
    def test_all_ace_workload_converges_exactly(self, spans):
        """With every instruction committed and correctly predicted ACE,
        the oracle interval series equals a cycle-by-cycle online
        accumulation of predicted ACE bits — including spans that leave
        exactly on an interval edge."""
        acct = AVFAccount(MachineConfig(), interval_cycles=L)
        online: dict[int, int] = {}
        for tag, (d, leave) in enumerate(spans, start=1):
            dyn = _dyn(tag=tag, dispatch=d, iq_leave=leave, issue=-1,
                       commit=-1)
            for cycle in range(d, leave):
                b = cycle // L
                online[b] = online.get(b, 0) + pred_bits(acct.iq_pred_bits, dyn)
            acct.attribute((dyn,))
        total = L * (max(leave for _, leave in spans) + L - 1) // L
        acct.close(max(total, L))
        denom = acct.capacity_bits(Structure.IQ) * L
        series = acct.interval_avf(Structure.IQ)
        for i, v in enumerate(series):
            assert v == pytest.approx(online.get(i, 0) / denom)

    @settings(max_examples=25, deadline=None)
    @given(_in_interval_spans(), st.data())
    def test_squashes_diverge_by_their_predicted_bits(self, spans, data):
        """Wrong-path squashes are invisible to the online counter but
        contribute zero oracle bits, so online - oracle must equal
        exactly the squashed instructions' predicted bit-cycles."""
        acct = AVFAccount(MachineConfig(), interval_cycles=L)
        squashed = [data.draw(st.booleans()) for _ in spans]
        online_total = 0
        squashed_total = 0
        for tag, ((d, leave), sq) in enumerate(zip(spans, squashed), start=1):
            state = DynState.SQUASHED if sq else DynState.COMMITTED
            dyn = _dyn(tag=tag, dispatch=d, iq_leave=leave, issue=-1,
                       commit=-1, state=state)
            contrib = pred_bits(acct.iq_pred_bits, dyn) * (leave - d)
            online_total += contrib
            if sq:
                squashed_total += contrib
            acct.attribute((dyn,))
        acct.close(L)
        # The accountant's integer bit-cycle total: rebuilding it from
        # overall_avf() in floats misses an exact 0 by ~1e-12.
        oracle_total = acct._acc[Structure.IQ]
        assert online_total - oracle_total == squashed_total


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestAvfCli:
    def test_report_json_and_trace(self, tmp_path, capsys):
        from repro.perf.chrome_trace import read_trace, validate_trace

        out = tmp_path / "report.json"
        trace = tmp_path / "trace.json"
        rc = main(["avf", "report", "--mix", "MEM-A", "--cycles", "3000",
                   "--dvm", "0.5", "--json", "-o", str(out),
                   "--trace-out", str(trace)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["attributions"] > 0
        assert doc["oracle_overall_avf"]["iq"] > 0
        counts = validate_trace(read_trace(str(trace)))
        assert counts.get("C", 0) > 0

    def test_report_text_to_stdout(self, capsys):
        rc = main(["avf", "report", "--mix", "CPU-A", "--cycles", "3000"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "Vulnerability report" in text
        assert "heatmap" in text

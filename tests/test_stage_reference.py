"""The pipeline's back-end stages against their per-call reference.

``SMTPipeline`` does the per-instruction bookkeeping of commit,
writeback, issue and dispatch inside its stage loops;
``tests/stage_reference.py`` runs the same stages through the component
methods.  Every configuration must give equal results, every compared
``SimulationResult`` field and the metrics snapshot alike.
"""

import pytest

from repro.harness import runner
from repro.harness.runner import BenchScale, build_pipeline, get_programs
from repro.reliability.avf import Structure
from repro.workloads import MIXES
from tests.stage_reference import ReferencePipeline
from tests.test_differential import _canon

SCALE = BenchScale(
    max_cycles=2_000, warmup_cycles=400, interval_cycles=400,
    ace_window=800, profile_instructions=6_000, profile_window=1_500,
)

#: Every Table 3 mix on the baseline machine, then the mechanisms that
#: take the stages' rarer paths: VISA order, FLUSH squashes, PDG's
#: dispatch hook, opt2's limit and mode switch, DVM on either structure.
_CASES = [(mix, {}) for mix in MIXES] + [
    ("MIX-B", {"scheduler": "visa"}),
    ("MEM-A", {"fetch_policy": "flush"}),
    ("MIX-A", {"fetch_policy": "pdg"}),
    ("MEM-A", {"dispatch": "opt2"}),
    ("MEM-A", {"dvm_target": 0.2}),
    ("MEM-B", {"dvm_target": 0.1, "dvm_structure": Structure.ROB}),
    ("MIX-B", {"scheduler": "visa", "fetch_policy": "flush", "dvm_target": 0.2,
               "collect_hist": True}),
]


def _metrics(res):
    """The snapshot bar the warm-state gauges, which time the warm-up
    and count cache hits (the second run of a pair restores the first's
    warm state)."""
    return {k: v for k, v in res.metrics.items() if not k.startswith("warmstate.")}


def _case_id(case):
    mix, kw = case
    return "-".join([mix] + [f"{k}={getattr(v, 'name', v)}" for k, v in kw.items()])


@pytest.mark.parametrize("case", _CASES, ids=[_case_id(c) for c in _CASES])
def test_stages_match_reference(case, monkeypatch):
    mix, kw = case
    programs = get_programs(mix, SCALE)
    pipe = build_pipeline(programs, SCALE, **kw)
    assert type(pipe) is runner.SMTPipeline
    res = pipe.run()
    monkeypatch.setattr(runner, "SMTPipeline", ReferencePipeline)
    ref_pipe = build_pipeline(programs, SCALE, **kw)
    assert isinstance(ref_pipe, ReferencePipeline)
    ref = ref_pipe.run()
    assert res.committed > 0
    # The case reaches the path it is listed for.
    if kw.get("fetch_policy") == "flush":
        assert res.flushes > 0
    if "dvm_target" in kw:
        assert res.metrics["dvm.throttled_dispatch_checks"] > 0
    assert _canon(res) == _canon(ref)
    assert _metrics(res) == _metrics(ref)

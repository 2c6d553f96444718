"""Extension — DVM generalized to the reorder buffer.

The paper's conclusion suggests extending the techniques "to other
microarchitecture structures"; this bench validates the extension: the
same trigger/response machinery pointed at an online ROB ACE-bit
counter controls the ROB's runtime vulnerability.
"""

from repro.harness import experiments
from repro.harness.runner import build_pipeline, get_programs
from repro.reliability.avf import Structure
from repro.workloads import CATEGORIES


def _run(programs, scale, dvm_target=None):
    return build_pipeline(
        programs, scale, dvm_target=dvm_target, dvm_structure=Structure.ROB
    ).run()


def test_ext_rob_dvm(benchmark, scale, report):
    scale = experiments.dvm_scale(scale)

    def sweep():
        rows = []
        for cat in CATEGORIES:
            for mix in scale.mixes(cat):
                programs = get_programs(mix.name, scale)
                base = _run(programs, scale)
                target = 0.5 * base.max_rob_avf
                online = max(0.5 * base.max_online_rob_estimate, 1e-4)
                governed = _run(programs, scale, dvm_target=online)
                rows.append(
                    {
                        "mix": mix.name,
                        "rob_avf_base": base.rob_avf,
                        "rob_avf_dvm": governed.rob_avf,
                        "pve_base": base.pve_rob(target),
                        "pve_dvm": governed.pve_rob(target),
                        "ipc_ratio": governed.ipc / max(base.ipc, 1e-9),
                    }
                )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("ext_rob_dvm", rows, "Extension — ROB-targeted DVM at 0.5*MaxROB-AVF")

    for r in rows:
        assert r["rob_avf_dvm"] <= r["rob_avf_base"] + 1e-6, r
        assert r["pve_dvm"] <= r["pve_base"] + 1e-9, r
        assert r["ipc_ratio"] > 0.3, r

"""Ablation — static-region vs linear-model ratio setup for Opt. 1.

Paper (Section 2.2(1)): "Alternatively, these ratios can be dynamically
setup using the actual IPC.  We experiment with dynamic ratio setup
using linear models ... both static and dynamic ratios show similar
efficiency.  We use static ratios in this paper due to their
simplicity."  This bench verifies the similar-efficiency claim.
"""

from repro.harness import experiments


def test_ablation_ratio_mode(benchmark, scale, report):
    rows = benchmark.pedantic(
        experiments.ablation_ratio_mode, args=(scale,), rounds=1, iterations=1
    )
    report("ablation_ratio_mode", rows, "Ablation — opt1 static vs linear ratio setup")

    # The paper's claim: similar efficiency.
    for r in rows:
        assert abs(r["static_norm_avf"] - r["linear_norm_avf"]) < 0.25, r
        assert abs(r["static_norm_ipc"] - r["linear_norm_ipc"]) < 0.25, r

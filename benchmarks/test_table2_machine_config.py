"""Table 2 — Simulated machine configuration.

Not an experiment: this bench validates that the default machine is
exactly the paper's configuration and measures simulator construction
and simulation throughput on it (cycles/second of the cycle loop).
"""

from repro.config import MachineConfig
from repro.core.pipeline import SMTPipeline
from repro.harness.runner import BenchScale
from repro.workloads import get_mix


def test_table2_defaults(benchmark, report):
    m = benchmark.pedantic(MachineConfig, rounds=1, iterations=1)
    rows = [
        {"parameter": "fetch/issue/commit width", "value": f"{m.fetch_width}/{m.issue_width}/{m.commit_width}", "paper": "8/8/8"},
        {"parameter": "issue queue", "value": m.iq_size, "paper": 96},
        {"parameter": "ROB per thread", "value": m.rob_size_per_thread, "paper": 96},
        {"parameter": "LSQ per thread", "value": m.lsq_size_per_thread, "paper": 48},
        {"parameter": "int ALU", "value": m.int_alu, "paper": 8},
        {"parameter": "int mul/div", "value": m.int_mult_div, "paper": 4},
        {"parameter": "load/store units", "value": m.load_store_units, "paper": 4},
        {"parameter": "FP ALU", "value": m.fp_alu, "paper": 8},
        {"parameter": "FP mul/div/sqrt", "value": m.fp_mult_div_sqrt, "paper": 4},
        {"parameter": "L1I", "value": f"{m.l1i.size//1024}KB/{m.l1i.assoc}w/{m.l1i.line_size}B", "paper": "32KB/2w/32B"},
        {"parameter": "L1D", "value": f"{m.l1d.size//1024}KB/{m.l1d.assoc}w/{m.l1d.line_size}B", "paper": "64KB/4w/64B"},
        {"parameter": "L2", "value": f"{m.l2.size//1024//1024}MB/{m.l2.assoc}w/{m.l2.line_size}B/{m.l2.latency}cy", "paper": "2MB/4w/128B/12cy"},
        {"parameter": "memory latency", "value": m.memory_latency, "paper": 200},
        {"parameter": "ITLB/DTLB entries", "value": f"{m.itlb.entries}/{m.dtlb.entries}", "paper": "128/256"},
        {"parameter": "gshare PHT / history", "value": f"{m.branch_predictor.pht_entries}/{m.branch_predictor.history_bits}b", "paper": "2048/10b"},
        {"parameter": "BTB / RAS", "value": f"{m.branch_predictor.btb_entries}/{m.branch_predictor.ras_entries}", "paper": "2048/32"},
    ]
    report("table2_machine_config", rows, "Table 2 — machine configuration (defaults)")
    for row in rows:
        assert str(row["value"]) == str(row["paper"]), row


def test_simulator_throughput(benchmark):
    """pytest-benchmark timing of the core cycle loop itself."""
    programs = get_mix("CPU-A").programs(seed=1)
    sim = BenchScale(max_cycles=2_000, warmup_cycles=200).sim_config()

    def run():
        return SMTPipeline(programs, sim=sim).run().committed

    committed = benchmark.pedantic(run, rounds=3, iterations=1)
    assert committed > 1_000

"""Per-figure/table experiment drivers and the paper's claims about them.

Each driver regenerates the data behind one table or figure of the
paper (or one ablation or extension) and returns a list of row dicts.
Beside each driver sits its *claims*: the reproduction's shape checks
(who wins, by roughly what factor) as a pure function of the rows.
:data:`SUITES` registers every experiment once; ``repro figures``
runs, prints, saves and checks them.

The paper reports every figure as a per-category average over the
Table 3 mixes, so each category-averaged driver is a *cell* — what one
mix contributes — handed to the one reducer, :func:`by_category`.  A
metric normalized to a baseline goes through
:func:`repro.harness.sweep.normalize_value`, the one normalization rule.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Callable, Iterable

import numpy as np

from repro.config import MachineConfig
from repro.harness.runner import (
    BenchScale,
    WindowTooShort,
    build_pipeline,
    dvm_target,
    get_programs,
    mix_harmonic_ipc,
    profile_scaled,
    run_sim,
)
from repro.harness.sweep import normalize_value
from repro.isa.generator import generate_program
from repro.isa.personalities import PERSONALITIES
from repro.reliability.avf import Structure
from repro.workloads import CATEGORIES

#: The three VISA configurations of Figures 5/6 (plus the baseline).
VISA_CONFIGS = {
    "baseline": dict(scheduler="oldest", dispatch=None),
    "VISA": dict(scheduler="visa", dispatch=None),
    "VISA+opt1": dict(scheduler="visa", dispatch="opt1"),
    "VISA+opt2": dict(scheduler="visa", dispatch="opt2"),
}

FETCH_POLICIES = ("stall", "dg", "pdg", "flush")

DVM_THRESHOLD_FRACTIONS = (0.7, 0.6, 0.5, 0.4, 0.3)

#: What one mix contributes to a category-averaged table: an ordered
#: list of ``(key columns, value columns)``, one pair per row.
Cell = Callable[[str], list[tuple[dict, dict]]]

#: A suite's claims: ``claims(rows)`` lists every check that fails.
Claims = Callable[[list[dict]], list[str]]


def claims(checks: Callable[[list[dict]], Iterable[tuple[str, bool]]]) -> Claims:
    """Make a suite's claims from a generator of ``(check, holds)``
    pairs, where ``check`` states the assertion with its measured
    values.  The claims return every failing check, not just the first."""

    @functools.wraps(checks)
    def failed(rows: list[dict]) -> list[str]:
        return [check for check, holds in checks(rows) if not holds]

    return failed


def by_category(scale: BenchScale, cell: Cell) -> list[dict]:
    """Average ``cell`` over each category's mixes, as the paper reports.

    ``cell(mix_name)`` returns the same keys, in the same order, for
    every mix.  Row *i* of a category is ``{"category": cat, **keys}``
    of pair *i*, then the ``np.mean`` of each of its value columns over
    ``scale.mixes(cat)``, in that order.
    """
    rows = []
    for cat in CATEGORIES:
        per_mix = [cell(mix.name) for mix in scale.mixes(cat)]
        for pairs in zip(*per_mix, strict=True):
            keys, values = pairs[0]
            means = {name: float(np.mean([v[name] for _, v in pairs])) for name in values}
            rows.append({"category": cat, **keys, **means})
    return rows


def _vs_baseline(
    scale: BenchScale, schemes: list[tuple[dict, dict]], fetch_policy: str = "icount"
) -> Cell:
    """The cell of each ``(key columns, run_sim kwargs)`` scheme's IQ AVF
    and IPC, normalized to the same mix's baseline run."""

    def cell(mix_name: str) -> list[tuple[dict, dict]]:
        base = run_sim(mix_name, scale, fetch_policy=fetch_policy)
        out = []
        for keys, kw in schemes:
            res = run_sim(mix_name, scale, fetch_policy=fetch_policy, **kw)
            norm = {
                "norm_iq_avf": normalize_value(res.iq_avf, base.iq_avf, "iq_avf"),
                "norm_ipc": normalize_value(res.ipc, base.ipc, "ipc"),
            }
            out.append((keys, norm))
        return out

    return cell


def _normalized_within(rows: list[dict], label: str, bound: float = 1.2):
    """``0 < normalized IQ AVF, IPC <= bound`` on every row."""
    for r in rows:
        for col in ("norm_iq_avf", "norm_ipc"):
            yield (
                f"{r[label]}/{r['category']}: 0 < {col} {r[col]:.3f} <= {bound}",
                0 < r[col] <= bound,
            )


# ----------------------------------------------------------------------
# Figure 1 — structure AVF profile
# ----------------------------------------------------------------------
def fig1_structure_avf(scale: BenchScale) -> list[dict]:
    """AVF of IQ / ROB / RF / FU per workload category (baseline).

    Paper: the IQ is the hot-spot (highest AVF of the structures
    studied) on every category.
    """

    def cell(mix_name: str) -> list[tuple[dict, dict]]:
        res = run_sim(mix_name, scale)
        return [({}, {s.name: res.overall_avf[s] for s in Structure})]

    return by_category(scale, cell)


@claims
def fig1_claims(rows):
    # The IQ is the reliability hot-spot (the RF lifetime model is an
    # upper bound and gets slack).
    for r in rows:
        cat, iq = r["category"], r["IQ"]
        for other, slack in (("ROB", 0.8), ("FU", 0.8), ("RF", 0.55)):
            yield (
                f"{cat}: IQ {iq:.3f} >= {slack} x {other} {r[other]:.3f}",
                iq >= r[other] * slack,
            )
    # Paper Section 4: baseline IQ AVF is lower on CPU than on MEM.
    iq = {r["category"]: r["IQ"] for r in rows}
    yield f"IQ CPU {iq['CPU']:.3f} < MEM {iq['MEM']:.3f}", iq["CPU"] < iq["MEM"]


# ----------------------------------------------------------------------
# Figure 2 — ready queue length histogram + ACE percentage
# ----------------------------------------------------------------------
def fig2_ready_queue(scale: BenchScale, mix_name: str = "CPU-A") -> list[dict]:
    """Histogram of ready-queue length and ACE% of ready instructions.

    Paper (96-entry IQ, width 8, CPU group A): hill-shaped RQL
    distribution, ~60% of ready instructions are ACE, higher ACE% at
    short RQL.  One row per length (each length to 16, and each seen
    length to 40): its share ``p`` of cycles and the ACE share of its
    ready instructions; then the ``mean`` length with the overall ACE
    share, and the ``max`` length seen.
    """
    res = run_sim(mix_name, scale, collect_hist=True)
    hist = res.ready_hist
    ace = res.ready_hist_ace
    total = hist.sum()
    lengths = np.arange(len(hist))
    weighted = hist * lengths
    ace_pct = np.divide(ace, weighted, out=np.zeros_like(ace), where=weighted > 0).tolist()
    share = (hist / max(total, 1)).tolist()
    rows = [
        {"rql": i, "p": share[i], "ace_pct": ace_pct[i] if share[i] else None}
        for i in range(min(len(hist), 41))
        if share[i] > 0 or i <= 16
    ]
    rows.append(
        {
            "rql": "mean",
            "p": float(weighted.sum() / max(total, 1)),
            "ace_pct": float(ace.sum() / max(weighted.sum(), 1)),
        }
    )
    rows.append(
        {"rql": "max", "p": int(np.nonzero(hist)[0].max()) if total else 0, "ace_pct": None}
    )
    return rows


@claims
def fig2_claims(rows):
    by = {r["rql"]: r for r in rows}
    longest, ace = by["max"]["p"], by["mean"]["ace_pct"]
    yield f"max RQL {longest} > issue width 8", longest > 8
    # ACE share of ready instructions near the paper's ~60%.
    yield f"0.4 < ACE share of ready instructions {ace:.3f} < 0.9", 0.4 < ace < 0.9
    # Hill shape: the distribution mass is not concentrated at zero.
    yield f"share of cycles at RQL 0 {by[0]['p']:.3f} < 0.6", by[0]["p"] < 0.6


# ----------------------------------------------------------------------
# Table 1 — accuracy of PC-based ACE classification
# ----------------------------------------------------------------------
def table1_pc_accuracy(scale: BenchScale) -> list[dict]:
    """Per-benchmark committed-instance accuracy (paper avg: 93.7%)."""
    rows = []
    for name in sorted(PERSONALITIES):
        prof = profile_scaled(generate_program(name, seed=scale.seed), scale)
        rows.append(
            {
                "benchmark": name,
                "accuracy": prof.accuracy,
                "paper": PERSONALITIES[name].ref_pc_accuracy,
                "ace_fraction": prof.ace_fraction,
            }
        )
    avg = float(np.mean([r["accuracy"] for r in rows]))
    paper_avg = float(np.mean([r["paper"] for r in rows]))
    rows.append({"benchmark": "AVG", "accuracy": avg, "paper": paper_avg, "ace_fraction": None})
    return rows


@claims
def table1_claims(rows):
    named = [r for r in rows if r["benchmark"] != "AVG"]
    avg = next(r["accuracy"] for r in rows if r["benchmark"] == "AVG")
    # Band around the paper's 93.7% average.
    yield f"0.88 <= AVG accuracy {avg:.3f} <= 1.0", 0.88 <= avg <= 1.0
    # Worst cases must be the paper's worst cases (ranking shape).
    worst4 = {r["benchmark"] for r in sorted(named, key=lambda r: r["accuracy"])[:4]}
    paper_worst = {"mesa", "vpr", "eon", "bzip2", "crafty"}
    yield f"worst four {sorted(worst4)} meet {sorted(paper_worst)}", bool(worst4 & paper_worst)
    ours_rank = np.argsort(np.argsort([r["accuracy"] for r in named]))
    ref_rank = np.argsort(np.argsort([r["paper"] for r in named]))
    corr = float(np.corrcoef(ours_rank, ref_rank)[0, 1])
    yield f"rank correlation with the paper {corr:.2f} > 0.7", corr > 0.7


# ----------------------------------------------------------------------
# Table 2 — machine configuration
# ----------------------------------------------------------------------
def table2_machine_config(scale: BenchScale) -> list[dict]:
    """The default machine next to the paper's Table 2, line by line."""
    m = MachineConfig()
    l1i, l1d, l2, bp = m.l1i, m.l1d, m.l2, m.branch_predictor
    lines = [
        ("fetch/issue/commit width", f"{m.fetch_width}/{m.issue_width}/{m.commit_width}", "8/8/8"),
        ("issue queue", m.iq_size, 96),
        ("ROB per thread", m.rob_size_per_thread, 96),
        ("LSQ per thread", m.lsq_size_per_thread, 48),
        ("int ALU", m.int_alu, 8),
        ("int mul/div", m.int_mult_div, 4),
        ("load/store units", m.load_store_units, 4),
        ("FP ALU", m.fp_alu, 8),
        ("FP mul/div/sqrt", m.fp_mult_div_sqrt, 4),
        ("L1I", f"{l1i.size//1024}KB/{l1i.assoc}w/{l1i.line_size}B", "32KB/2w/32B"),
        ("L1D", f"{l1d.size//1024}KB/{l1d.assoc}w/{l1d.line_size}B", "64KB/4w/64B"),
        ("L2", f"{l2.size//1024//1024}MB/{l2.assoc}w/{l2.line_size}B/{l2.latency}cy",
         "2MB/4w/128B/12cy"),
        ("memory latency", m.memory_latency, 200),
        ("ITLB/DTLB entries", f"{m.itlb.entries}/{m.dtlb.entries}", "128/256"),
        ("gshare PHT / history", f"{bp.pht_entries}/{bp.history_bits}b", "2048/10b"),
        ("BTB / RAS", f"{bp.btb_entries}/{bp.ras_entries}", "2048/32"),
    ]
    return [{"parameter": name, "value": value, "paper": paper} for name, value, paper in lines]


@claims
def table2_claims(rows):
    for r in rows:
        yield (
            f"{r['parameter']}: {r['value']} == paper {r['paper']}",
            str(r["value"]) == str(r["paper"]),
        )


# ----------------------------------------------------------------------
# Figures 5 & 6 — VISA / opt1 / opt2 under the fetch policies
# ----------------------------------------------------------------------
def fig5_visa_configs(scale: BenchScale, fetch_policy: str = "icount") -> list[dict]:
    """Normalized IQ AVF and throughput IPC of the three schemes.

    Paper (ICOUNT): VISA ≈ 0.95x AVF / 1.01x IPC; VISA+opt1 ≈ 0.66x AVF
    on CPU at equal IPC but hurts MIX/MEM; VISA+opt2 ≈ 0.52x AVF at
    1.01x IPC on average (CPU 0.67x, MIX/MEM 0.44x).
    """
    schemes = [
        ({"config": name, "fetch_policy": fetch_policy}, kw)
        for name, kw in VISA_CONFIGS.items()
        if name != "baseline"
    ]
    return by_category(scale, _vs_baseline(scale, schemes, fetch_policy))


@claims
def fig5_claims(rows):
    by = {(r["category"], r["config"]): r for r in rows}

    def at(cat, config, col):
        return by[(cat, config)][col]

    for cat in CATEGORIES:
        # VISA alone: small AVF effect, IPC preserved (paper 0.95/1.01).
        avf, ipc = at(cat, "VISA", "norm_iq_avf"), at(cat, "VISA", "norm_ipc")
        yield f"{cat} VISA: 0.8 <= norm_iq_avf {avf:.3f} <= 1.1", 0.8 <= avf <= 1.1
        yield f"{cat} VISA: norm_ipc {ipc:.3f} >= 0.95", ipc >= 0.95
        # opt1: AVF reduction everywhere...
        avf = at(cat, "VISA+opt1", "norm_iq_avf")
        yield f"{cat} VISA+opt1: norm_iq_avf {avf:.3f} < 1.0", avf < 1.0
    # ...with CPU IPC essentially preserved and MEM IPC noticeably hurt
    # (the paper's motivation for opt2).
    cpu1, mem1 = at("CPU", "VISA+opt1", "norm_ipc"), at("MEM", "VISA+opt1", "norm_ipc")
    yield f"CPU VISA+opt1: norm_ipc {cpu1:.3f} >= 0.95", cpu1 >= 0.95
    yield f"MEM VISA+opt1: norm_ipc {mem1:.3f} < 0.95", mem1 < 0.95
    # opt2: the headline result — significant AVF reduction at
    # near-baseline IPC on every category.
    for cat in CATEGORIES:
        avf, ipc = at(cat, "VISA+opt2", "norm_iq_avf"), at(cat, "VISA+opt2", "norm_ipc")
        yield f"{cat} VISA+opt2: norm_iq_avf {avf:.3f} < 0.95", avf < 0.95
        yield f"{cat} VISA+opt2: norm_ipc {ipc:.3f} >= 0.9", ipc >= 0.9
    # opt2 restores the MEM throughput opt1 lost.
    mem2 = at("MEM", "VISA+opt2", "norm_ipc")
    yield f"MEM norm_ipc: VISA+opt2 {mem2:.3f} >= VISA+opt1 {mem1:.3f}", mem2 >= mem1
    # MIX/MEM benefit more than CPU (their baseline clogs more).
    mixmem = (at("MIX", "VISA+opt2", "norm_iq_avf") + at("MEM", "VISA+opt2", "norm_iq_avf")) / 2
    cpu2 = at("CPU", "VISA+opt2", "norm_iq_avf")
    yield (
        f"VISA+opt2 norm_iq_avf: MIX/MEM mean {mixmem:.3f} <= CPU {cpu2:.3f} + 0.05",
        mixmem <= cpu2 + 0.05,
    )


def fig6_fetch_policies(scale: BenchScale) -> list[dict]:
    """Figure 5 repeated under STALL/DG/PDG/FLUSH (paper: avg 36% AVF
    reduction at ~1% IPC cost; smaller reductions under FLUSH on
    MIX/MEM because its baseline AVF is already low)."""
    rows = []
    for policy in FETCH_POLICIES:
        rows.extend(fig5_visa_configs(scale, fetch_policy=policy))
    return rows


@claims
def fig6_claims(rows):
    # On this machine the STALL and DG baselines underutilize
    # memory-bound mixes much more than the paper's did (EXPERIMENTS.md
    # D2), so opt2 can raise both IPC and AVF relative to them.  The
    # checks are (a) IPC is not sacrificed, (b) AVF drops wherever the
    # baseline is competitive, (c) the paper's FLUSH-baseline remark.
    opt2 = [r for r in rows if r["config"] == "VISA+opt2"]
    avg_ipc = float(np.mean([r["norm_ipc"] for r in opt2]))
    yield f"VISA+opt2 mean norm_ipc {avg_ipc:.3f} > 0.9", avg_ipc > 0.9
    comparable = [r for r in opt2 if r["norm_ipc"] <= 1.1]
    yield "some VISA+opt2 row has norm_ipc <= 1.1", bool(comparable)
    if comparable:
        avg_avf = float(np.mean([r["norm_iq_avf"] for r in comparable]))
        yield (
            f"VISA+opt2 mean norm_iq_avf where norm_ipc <= 1.1: {avg_avf:.3f} < 0.95",
            avg_avf < 0.95,
        )
    # Every policy runs the whole matrix.
    n = len(FETCH_POLICIES) * len(CATEGORIES) * 3
    yield f"{len(rows)} rows == {n} (policy x category x scheme)", len(rows) == n
    # FLUSH is already good at congestion, so opt2 has little left to
    # reduce on MEM there (paper: "the IQ AVF reduction is less
    # significant using the FLUSH policy").
    mem = {r["fetch_policy"]: r["norm_iq_avf"] for r in opt2 if r["category"] == "MEM"}
    flush = mem["flush"]
    yield f"MEM/flush VISA+opt2: norm_iq_avf {flush:.3f} > 0.85", flush > 0.85


# ----------------------------------------------------------------------
# Figures 8, 9 — DVM threshold sweeps
# ----------------------------------------------------------------------
def dvm_scale(scale: BenchScale) -> BenchScale:
    """DVM experiments need PVE resolution: finer intervals and a longer
    run than the default scale (20 post-warm-up intervals), with
    ``t_cache_miss`` rescaled to the shorter interval."""
    return dataclasses.replace(
        scale,
        interval_cycles=1_000,  # lint: disable=paper-fidelity
        max_cycles=max(scale.max_cycles, 24_000),
        warmup_cycles=4_000,
        t_cache_miss=max(scale.t_cache_miss // 2, 1),
    )


def fig8_dvm(scale: BenchScale, fetch_policy: str = "icount") -> list[dict]:
    """PVE and performance impact of DVM across reliability targets.

    Paper (ICOUNT, target 0.5·MaxAVF): PVE drops from 72/79/55% to ~1%
    on CPU/MIX/MEM; throughput cost grows as the target tightens; MIX
    and MEM can *gain* throughput; MIX loses the most harmonic IPC
    (fairness bias toward CPU-bound threads).
    """
    scale = dvm_scale(scale)

    def cell(mix_name: str) -> list[tuple[dict, dict]]:
        base = run_sim(mix_name, scale, fetch_policy=fetch_policy)
        h_base = mix_harmonic_ipc(mix_name, scale, base, fetch_policy)
        out = []
        for frac in DVM_THRESHOLD_FRACTIONS:
            # PVE is judged against the measured (oracle) AVF; the
            # controller's internal target is the same fraction of
            # the hardware-observable online maximum.
            target = frac * base.max_iq_avf
            online_target = dvm_target(mix_name, scale, frac, fetch_policy)
            dvm = run_sim(mix_name, scale, fetch_policy=fetch_policy, dvm_target=online_target)
            h_dvm = mix_harmonic_ipc(mix_name, scale, dvm, fetch_policy)
            values = {
                "pve_baseline": base.pve(target),
                "pve_dvm": dvm.pve(target),
                "throughput_degradation": 1.0 - normalize_value(dvm.ipc, base.ipc, "ipc"),
                "harmonic_degradation": 1.0 - normalize_value(h_dvm, h_base, "harmonic_ipc"),
            }
            out.append(({"threshold": frac, "fetch_policy": fetch_policy}, values))
        return out

    return by_category(scale, cell)


@claims
def fig8_claims(rows):
    by = {(r["category"], r["threshold"]): r for r in rows}
    for cat in CATEGORIES:
        # Baseline PVE grows as the target tightens...
        pves = [by[(cat, f)]["pve_baseline"] for f in (0.7, 0.5, 0.3)]
        yield (
            f"{cat}: baseline PVE at 0.7/0.5/0.3 {[round(p, 3) for p in pves]} does not fall",
            pves[0] <= pves[1] + 1e-9 <= pves[2] + 2e-9,
        )
        # ...and DVM eliminates the majority of emergencies at the
        # paper's headline 0.5·MaxAVF target.
        r = by[(cat, 0.5)]
        dvm, base = r["pve_dvm"], r["pve_baseline"]
        yield f"{cat} @0.5: DVM PVE {dvm:.3f} < baseline PVE {base:.3f} - 0.15", dvm < base - 0.15
        yield f"{cat} @0.5: DVM PVE {dvm:.3f} <= 0.5", dvm <= 0.5
    # Performance overhead grows with the reliability demand.
    for cat in CATEGORIES:
        loose = by[(cat, 0.7)]["throughput_degradation"]
        tight = by[(cat, 0.3)]["throughput_degradation"]
        yield (
            f"{cat}: throughput degradation @0.3 {tight:.3f} >= @0.7 {loose:.3f} - 0.02",
            tight >= loose - 0.02,
        )
    # Fairness: MIX loses more harmonic IPC than throughput (paper's
    # CPU-bias observation).
    mix = by[("MIX", 0.5)]
    hd, td = mix["harmonic_degradation"], mix["throughput_degradation"]
    yield (
        f"MIX @0.5: harmonic degradation {hd:.3f} >= throughput degradation {td:.3f} - 0.02",
        hd >= td - 0.02,
    )


def fig9_dvm_flush(scale: BenchScale) -> list[dict]:
    """Figure 8 with FLUSH as the baseline fetch policy (paper: DVM
    still works with FLUSH active concurrently)."""
    return fig8_dvm(scale, fetch_policy="flush")


@claims
def fig9_claims(rows):
    by = {(r["category"], r["threshold"]): r for r in rows}
    for cat in CATEGORIES:
        dvm, base = by[(cat, 0.5)]["pve_dvm"], by[(cat, 0.5)]["pve_baseline"]
        yield f"{cat} @0.5: DVM PVE {dvm:.3f} <= baseline PVE {base:.3f}", dvm <= base + 1e-9
        yield f"{cat} @0.5: DVM PVE {dvm:.3f} <= 0.55", dvm <= 0.55
    # DVM on top of FLUSH must not collapse performance at mild targets.
    for cat in CATEGORIES:
        loss = by[(cat, 0.7)]["throughput_degradation"]
        yield f"{cat} @0.7: throughput degradation {loss:.3f} < 0.5", loss < 0.5


# ----------------------------------------------------------------------
# Figure 10 — DVM vs the Section 2 optimizations
# ----------------------------------------------------------------------
def fig10_comparison(scale: BenchScale, fetch_policy: str = "icount") -> list[dict]:
    """PVE of VISA / VISA+opt1 / VISA+opt2 / DVM(static) / DVM(dynamic).

    Paper: the open-loop schemes leave high PVE; static-ratio DVM
    manages it partially; dynamic DVM always wins.
    """
    scale = dvm_scale(scale)

    def cell(mix_name: str) -> list[tuple[dict, dict]]:
        base = run_sim(mix_name, scale, fetch_policy=fetch_policy)
        out = []
        for frac in DVM_THRESHOLD_FRACTIONS:
            target = frac * base.max_iq_avf
            online_target = dvm_target(mix_name, scale, frac, fetch_policy)
            pve = {
                scheme: run_sim(
                    mix_name, scale, fetch_policy=fetch_policy, **VISA_CONFIGS[scheme]
                ).pve(target)
                for scheme in ("VISA", "VISA+opt1", "VISA+opt2")
            }
            dyn = run_sim(
                mix_name, scale, fetch_policy=fetch_policy, dvm_target=online_target
            )
            # Paper sets the static ratio to the dynamic run's average.
            stat = run_sim(
                mix_name, scale, fetch_policy=fetch_policy,
                dvm_target=online_target, dvm_static_ratio=dyn.dvm_mean_ratio or 2.0,
            )
            pve["DVM-static"] = stat.pve(target)
            pve["DVM-dynamic"] = dyn.pve(target)
            out.append(({"threshold": frac}, pve))
        return out

    return by_category(scale, cell)


@claims
def fig10_claims(rows):
    def avg(scheme, threshold=None):
        return float(np.mean([
            r[scheme] for r in rows if threshold is None or r["threshold"] == threshold
        ]))

    # Dynamic DVM beats every open-loop scheme on average.
    dvm = avg("DVM-dynamic")
    for scheme in ("VISA", "VISA+opt1", "VISA+opt2"):
        yield f"mean PVE: DVM-dynamic {dvm:.3f} < {scheme} {avg(scheme):.3f}", dvm < avg(scheme)
    # Paper: "the dynamic approach always outperforms the static".
    static = avg("DVM-static")
    yield f"mean PVE: DVM-dynamic {dvm:.3f} <= DVM-static {static:.3f} + 0.05", dvm <= static + 0.05
    # Open-loop schemes cannot maintain tight thresholds.
    visa = avg("VISA", threshold=0.3)
    yield f"VISA mean PVE @0.3 {visa:.3f} > 0.5", visa > 0.5


# ----------------------------------------------------------------------
# Ablations called out in DESIGN.md
# ----------------------------------------------------------------------
def ablation_ipc_regions(scale: BenchScale, regions=(2, 4, 8)) -> list[dict]:
    """Paper: 4 IPC regions outperform other region counts (Fig. 3)."""
    rows = []
    for n in regions:
        s = dataclasses.replace(scale, num_ipc_regions=n)
        cell = _vs_baseline(s, [({}, VISA_CONFIGS["VISA+opt1"])])
        rows.extend({"regions": n, **row} for row in by_category(s, cell))
    return rows


@claims
def ablation_ipc_regions_claims(rows):
    yield from _normalized_within(rows, "regions")
    # More regions → finer partition → tighter caps at low IPC → more
    # AVF reduction on MEM but a bigger throughput hit.  The paper's
    # 4-region choice sits between the extremes.
    mem = {r["regions"]: r for r in rows if r["category"] == "MEM"}
    two, four, eight = mem[2], mem[4], mem[8]
    for col in ("norm_iq_avf", "norm_ipc"):
        yield (
            f"MEM {col}: 8 regions {eight[col]:.3f} <= 2 regions {two[col]:.3f} + 0.05",
            eight[col] <= two[col] + 0.05,
        )
    lo, mid, hi = eight["norm_iq_avf"], four["norm_iq_avf"], two["norm_iq_avf"]
    yield (
        f"MEM norm_iq_avf: 8 regions {lo:.3f} - 0.12 <= 4 regions {mid:.3f} "
        f"<= 2 regions {hi:.3f} + 0.12",
        lo - 0.12 <= mid <= hi + 0.12,
    )


def ablation_t_cache_miss(scale: BenchScale, thresholds=(1, 8, 40, 120, 1_000_000)) -> list[dict]:
    """Sensitivity of opt2 to Tcache_miss (paper chose 16 per 10K
    cycles; the last value effectively disables the FLUSH trigger)."""
    rows = []
    for t in thresholds:
        s = dataclasses.replace(scale, t_cache_miss=t)
        cell = _vs_baseline(s, [({}, VISA_CONFIGS["VISA+opt2"])])
        rows.extend({"t_cache_miss": t, **row} for row in by_category(s, cell))
    return rows


@claims
def ablation_t_cache_miss_claims(rows):
    # With the trigger disabled, opt2 == opt1: MEM IPC suffers like
    # Figure 5's opt1 bar; with a sane threshold FLUSH rescues it.
    mem = {r["t_cache_miss"]: r["norm_ipc"] for r in rows if r["category"] == "MEM"}
    yield (
        f"MEM norm_ipc: Tcache_miss 8 {mem[8]:.3f} >= trigger off {mem[1_000_000]:.3f} - 0.02",
        mem[8] >= mem[1_000_000] - 0.02,
    )
    for r in rows:
        avf = r["norm_iq_avf"]
        yield f"{r['t_cache_miss']}/{r['category']}: norm_iq_avf {avf:.3f} < 1.05", avf < 1.05


def _dvm_at_half_max(scale: BenchScale) -> Cell:
    """The cell of DVM at 0.5·MaxAVF: its PVE and throughput cost."""

    def cell(mix_name: str) -> list[tuple[dict, dict]]:
        base = run_sim(mix_name, scale)
        dvm = run_sim(mix_name, scale, dvm_target=dvm_target(mix_name, scale, 0.5))
        values = {
            "pve": dvm.pve(0.5 * base.max_iq_avf),
            "throughput_degradation": 1.0 - normalize_value(dvm.ipc, base.ipc, "ipc"),
        }
        return [({}, values)]

    return cell


def ablation_trigger_fraction(scale: BenchScale, fractions=(0.8, 0.9, 0.95)) -> list[dict]:
    """DVM trigger threshold sensitivity (paper chose 90% of target)."""
    rows = []
    for f in fractions:
        s = dataclasses.replace(scale, dvm_trigger_fraction=f)
        rows.extend(
            {"trigger_fraction": f, **row} for row in by_category(s, _dvm_at_half_max(s))
        )
    return rows


@claims
def ablation_trigger_fraction_claims(rows):
    for r in rows:
        pve = r["pve"]
        yield f"{r['trigger_fraction']}/{r['category']}: 0 <= PVE {pve:.3f} <= 1", 0.0 <= pve <= 1.0
    # An earlier (lower) trigger can only help PVE, at a perf cost.
    early = float(np.mean([r["pve"] for r in rows if r["trigger_fraction"] == 0.8]))
    late = float(np.mean([r["pve"] for r in rows if r["trigger_fraction"] == 0.95]))
    yield f"mean PVE: 80% trigger {early:.3f} <= 95% trigger {late:.3f} + 0.1", early <= late + 0.1


def ablation_interval_size(scale: BenchScale, intervals=(500, 2_000, 7_000)) -> list[dict]:
    """Adaptation-interval sensitivity of opt1 (paper chose 10K cycles:
    too large is sluggish, too small is jittery).  Each run warms up
    for one interval, so every interval must be shorter than the run."""
    for iv in intervals:
        if iv >= scale.max_cycles:
            raise WindowTooShort(
                f"--cycles {scale.max_cycles} cannot hold the {iv}-cycle "
                f"adaptation interval: the interval-size ablation warms up "
                f"for one interval, and the warm-up must end before the run"
            )
    rows = []
    for iv in intervals:
        s = dataclasses.replace(scale, interval_cycles=iv, warmup_cycles=iv)
        cell = _vs_baseline(s, [({}, VISA_CONFIGS["VISA+opt1"])])
        rows.extend({"interval": iv, **row} for row in by_category(s, cell))
    return rows


@claims
def ablation_interval_size_claims(rows):
    yield from _normalized_within(rows, "interval")
    # All interval sizes must still deliver an AVF reduction on MEM.
    for r in rows:
        if r["category"] == "MEM":
            avf = r["norm_iq_avf"]
            yield f"{r['interval']}/MEM: norm_iq_avf {avf:.3f} < 1.0", avf < 1.0


def ablation_ratio_mode(scale: BenchScale) -> list[dict]:
    """Static-region vs linear-model ratio setup of opt1 (paper Section
    2.2(1): "both static and dynamic ratios show similar efficiency")."""
    both = _vs_baseline(
        scale,
        [({}, VISA_CONFIGS["VISA+opt1"]), ({}, dict(scheduler="visa", dispatch="opt1-linear"))],
    )

    def cell(mix_name: str) -> list[tuple[dict, dict]]:
        (_, static), (_, linear) = both(mix_name)
        values = {
            "static_norm_avf": static["norm_iq_avf"],
            "static_norm_ipc": static["norm_ipc"],
            "linear_norm_avf": linear["norm_iq_avf"],
            "linear_norm_ipc": linear["norm_ipc"],
        }
        return [({}, values)]

    return by_category(scale, cell)


@claims
def ablation_ratio_mode_claims(rows):
    # The paper's claim: similar efficiency.
    for r in rows:
        for col in ("avf", "ipc"):
            static, linear = r[f"static_norm_{col}"], r[f"linear_norm_{col}"]
            yield (
                f"{r['category']} normalized {col}: "
                f"|static {static:.3f} - linear {linear:.3f}| < 0.25",
                abs(static - linear) < 0.25,
            )


# ----------------------------------------------------------------------
# Workload characterization (single-thread, per Table 1 benchmark)
# ----------------------------------------------------------------------
def characterize_benchmarks(scale: BenchScale, names=None) -> list[dict]:
    """Single-thread characterization of the synthetic benchmarks.

    Reports, per personality: solo IPC, branch accuracy, L1D miss rate,
    L2 misses, ACE fraction and solo IQ AVF — the quantities that place
    each benchmark in its Table 3 category.  Useful for recalibrating
    personalities and for sanity-checking CPU/MEM separation.
    """
    rows = []
    for name in names or sorted(PERSONALITIES):
        program = generate_program(name, seed=scale.seed)
        prof = profile_scaled(program, scale)
        res = build_pipeline([program], scale).run()
        rows.append(
            {
                "benchmark": name,
                "category": PERSONALITIES[name].category,
                "ipc": res.ipc,
                "bp_acc": res.bp_accuracy,
                "l1d_miss": res.l1d_miss_rate,
                "l2_misses": res.l2_misses,
                "ace_frac": prof.ace_fraction,
                "iq_avf": res.iq_avf,
            }
        )
    return rows


@claims
def characterization_claims(rows):
    cpu = [r for r in rows if r["category"] == "cpu"]
    mem = [r for r in rows if r["category"] == "mem"]
    yield "both cpu and mem benchmarks are present", bool(cpu and mem)
    # Category separation: CPU codes are fast and L1-resident, MEM
    # codes slow and miss-bound.  (L2 *capacity* pressure is a 4-thread
    # effect — the mix-level experiments assert it — so single-thread
    # separation shows in IPC and L1D miss rate.)
    ipc_cpu, ipc_mem = (float(np.mean([r["ipc"] for r in g])) for g in (cpu, mem))
    miss_cpu, miss_mem = (float(np.mean([r["l1d_miss"] for r in g])) for g in (cpu, mem))
    yield f"mean IPC: cpu {ipc_cpu:.3f} > 2 x mem {ipc_mem:.3f}", ipc_cpu > 2 * ipc_mem
    yield (
        f"mean L1D miss rate: mem {miss_mem:.3f} > 3 x cpu {miss_cpu:.3f}",
        miss_mem > 3 * miss_cpu,
    )
    # mcf is among the most memory-bound personalities.
    slowest3 = [n for _, n in sorted((r["ipc"], r["benchmark"]) for r in mem)[:3]]
    mcf_miss = next(r["l1d_miss"] for r in rows if r["benchmark"] == "mcf")
    yield (
        f"mcf among the slowest mem benchmarks {slowest3} "
        f"or its L1D miss rate {mcf_miss:.3f} > 0.3",
        "mcf" in slowest3 or mcf_miss > 0.3,
    )
    # Every benchmark commits work and predicts branches sanely.
    for r in rows:
        name = r["benchmark"]
        yield f"{name}: IPC {r['ipc']:.3f} > 0.05", r["ipc"] > 0.05
        yield f"{name}: branch accuracy {r['bp_acc']:.3f} > 0.6", r["bp_acc"] > 0.6
        yield f"{name}: 0.3 < ACE fraction {r['ace_frac']:.3f} < 0.95", 0.3 < r["ace_frac"] < 0.95


# ----------------------------------------------------------------------
# Extension — IQ size sensitivity
# ----------------------------------------------------------------------
def _iq_size_cell(scale: BenchScale, size: int) -> Cell:
    """The cell of a ``size``-entry IQ: baseline IQ AVF and IPC, and
    VISA+opt2's normalized to them."""

    def cell(mix_name: str) -> list[tuple[dict, dict]]:
        programs = get_programs(mix_name, scale)
        base = build_pipeline(programs, scale, iq_size=size).run()
        opt = build_pipeline(
            programs, scale, iq_size=size, **VISA_CONFIGS["VISA+opt2"]
        ).run()
        values = {
            "base_iq_avf": base.iq_avf,
            "base_ipc": base.ipc,
            "opt2_norm_avf": normalize_value(opt.iq_avf, base.iq_avf, "iq_avf"),
            "opt2_norm_ipc": normalize_value(opt.ipc, base.ipc, "ipc"),
        }
        return [({}, values)]

    return cell


def ext_iq_size_sensitivity(scale: BenchScale, sizes=(48, 96, 192)) -> list[dict]:
    """How the IQ's size moves its vulnerability and the VISA+opt2
    benefit (an extension beyond the paper's fixed 96-entry IQ).

    Expectation: a larger IQ buffers more ACE bits for longer (higher
    AVF exposure in absolute bit-cycles, mitigations matter more); a
    smaller IQ throttles the machine by itself.
    """
    rows = []
    for size in sizes:
        cell = _iq_size_cell(scale, size)
        rows.extend({"iq_size": size, **row} for row in by_category(scale, cell))
    return rows


@claims
def ext_iq_size_claims(rows):
    by = {(r["iq_size"], r["category"]): r for r in rows}
    for cat in CATEGORIES:
        # A bigger IQ never hurts baseline throughput.
        big, small = by[(192, cat)]["base_ipc"], by[(48, cat)]["base_ipc"]
        yield (
            f"{cat} base IPC: 192 entries {big:.3f} >= 48 entries {small:.3f} - 0.15",
            big >= small - 0.15,
        )
        # The optimized configuration keeps its AVF benefit at every size.
        for size in (48, 96, 192):
            avf = by[(size, cat)]["opt2_norm_avf"]
            yield f"{cat} {size} entries: opt2_norm_avf {avf:.3f} < 1.1", avf < 1.1


# ----------------------------------------------------------------------
# Extension — DVM generalized to the reorder buffer
# ----------------------------------------------------------------------
def ext_rob_dvm(scale: BenchScale) -> list[dict]:
    """The paper's conclusion suggests extending the techniques "to
    other microarchitecture structures": the same trigger/response
    machinery pointed at an online ROB ACE-bit counter, at a target of
    0.5·MaxROB-AVF, per mix."""
    scale = dvm_scale(scale)
    rows = []
    for cat in CATEGORIES:
        for mix in scale.mixes(cat):
            programs = get_programs(mix.name, scale)
            base = build_pipeline(programs, scale, dvm_structure=Structure.ROB).run()
            target = 0.5 * base.max_rob_avf
            online = max(0.5 * base.max_online_rob_estimate, 1e-4)
            governed = build_pipeline(
                programs, scale, dvm_target=online, dvm_structure=Structure.ROB
            ).run()
            rows.append(
                {
                    "mix": mix.name,
                    "rob_avf_base": base.rob_avf,
                    "rob_avf_dvm": governed.rob_avf,
                    "pve_base": base.pve_rob(target),
                    "pve_dvm": governed.pve_rob(target),
                    "ipc_ratio": normalize_value(governed.ipc, base.ipc, "ipc"),
                }
            )
    return rows


@claims
def ext_rob_dvm_claims(rows):
    for r in rows:
        mix, ratio = r["mix"], r["ipc_ratio"]
        base, dvm = r["rob_avf_base"], r["rob_avf_dvm"]
        yield f"{mix}: ROB AVF with DVM {dvm:.4f} <= without {base:.4f}", dvm <= base + 1e-6
        base, dvm = r["pve_base"], r["pve_dvm"]
        yield f"{mix}: ROB PVE with DVM {dvm:.3f} <= without {base:.3f}", dvm <= base + 1e-9
        yield f"{mix}: IPC ratio {ratio:.3f} > 0.3", ratio > 0.3


# ----------------------------------------------------------------------
# Suite registry (CLI ``figures`` and the parallel engine)
# ----------------------------------------------------------------------
#: name -> (driver, title, claims).  Each driver takes a BenchScale and
#: returns a list of row dicts; the parallel engine runs one suite per
#: worker and ``repro figures`` checks ``claims(rows)`` in the parent.
SUITES: dict[str, tuple[Callable[[BenchScale], list[dict]], str, Claims]] = {
    "fig1": (fig1_structure_avf, "Figure 1 — structure AVF per category", fig1_claims),
    "fig2": (fig2_ready_queue, "Figure 2 — ready queue length histogram (CPU-A)", fig2_claims),
    "fig5": (fig5_visa_configs, "Figure 5 — VISA configs (ICOUNT)", fig5_claims),
    "fig6": (fig6_fetch_policies, "Figure 6 — VISA configs under fetch policies", fig6_claims),
    "fig8": (fig8_dvm, "Figure 8 — DVM sweep (ICOUNT)", fig8_claims),
    "fig9": (fig9_dvm_flush, "Figure 9 — DVM sweep (FLUSH)", fig9_claims),
    "fig10": (fig10_comparison, "Figure 10 — PVE of all schemes", fig10_claims),
    "table1": (table1_pc_accuracy, "Table 1 — PC classification accuracy", table1_claims),
    "table2": (
        table2_machine_config, "Table 2 — machine configuration (defaults)", table2_claims
    ),
    "ablation_ipc_regions": (
        ablation_ipc_regions,
        "Ablation — opt1 IPC region count (2/4/8)",
        ablation_ipc_regions_claims,
    ),
    "ablation_tcache_miss": (
        ablation_t_cache_miss, "Ablation — opt2 Tcache_miss sweep", ablation_t_cache_miss_claims
    ),
    "ablation_trigger_fraction": (
        ablation_trigger_fraction,
        "Ablation — DVM trigger fraction (80/90/95%)",
        ablation_trigger_fraction_claims,
    ),
    "ablation_interval_size": (
        ablation_interval_size,
        "Ablation — opt1 adaptation interval",
        ablation_interval_size_claims,
    ),
    "ablation_ratio_mode": (
        ablation_ratio_mode,
        "Ablation — opt1 static vs linear ratio setup",
        ablation_ratio_mode_claims,
    ),
    "characterization": (
        characterize_benchmarks,
        "Single-thread benchmark characterization",
        characterization_claims,
    ),
    "ext_iq_size": (
        ext_iq_size_sensitivity,
        "Extension — IQ size sensitivity (48/96/192)",
        ext_iq_size_claims,
    ),
    "ext_rob_dvm": (
        ext_rob_dvm, "Extension — ROB-targeted DVM at 0.5*MaxROB-AVF", ext_rob_dvm_claims
    ),
}

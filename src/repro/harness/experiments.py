"""Per-figure/table experiment drivers.

Each function regenerates the data behind one table or figure of the
paper and returns plain data structures (lists of dicts) that the
bench harness formats and records in EXPERIMENTS.md.  Paper reference
values are attached where the paper states them, so every bench can
check reproduction *shape* (who wins, by roughly what factor).

The paper reports every figure as a per-category average over the
Table 3 mixes, so each category-averaged driver is a *cell* — what one
mix contributes — handed to the one reducer, :func:`by_category`.  A
metric normalized to a baseline goes through
:func:`repro.harness.sweep.normalize_value`, the one normalization rule.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

import numpy as np

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


# ----------------------------------------------------------------------
# Figure 2 — ready queue length histogram + ACE percentage
# ----------------------------------------------------------------------
def fig2_ready_queue(scale: BenchScale, mix_name: str = "CPU-A") -> dict:
    """Histogram of ready-queue length and ACE% of ready instructions.

    Paper (96-entry IQ, width 8, CPU group A): hill-shaped RQL
    distribution, ~60% of ready instructions are ACE, higher ACE% at
    short RQL.
    """
    res = run_sim(mix_name, scale, collect_hist=True)
    hist = res.ready_hist
    ace = res.ready_hist_ace
    total = hist.sum()
    lengths = np.arange(len(hist))
    weighted = hist * lengths
    ace_pct = np.divide(ace, weighted, out=np.zeros_like(ace), where=weighted > 0)
    mean_rql = float(weighted.sum() / max(total, 1))
    overall_ace_pct = float(ace.sum() / max(weighted.sum(), 1))
    return {
        "mix": mix_name,
        "hist": (hist / max(total, 1)).tolist(),
        "ace_pct": ace_pct.tolist(),
        "mean_rql": mean_rql,
        "max_rql": int(np.nonzero(hist)[0].max()) if total else 0,
        "overall_ace_pct": overall_ace_pct,
    }


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


def fig6_fetch_policies(scale: BenchScale) -> list[dict]:
    """Figure 5 repeated under STALL/DG/PDG/FLUSH (paper: avg 36% AVF
    reduction at ~1% IPC cost; smaller reductions under FLUSH on
    MIX/MEM because its baseline AVF is already low)."""
    rows = []
    for policy in FETCH_POLICIES:
        rows.extend(fig5_visa_configs(scale, fetch_policy=policy))
    return rows


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


def fig9_dvm_flush(scale: BenchScale) -> list[dict]:
    """Figure 8 with FLUSH as the baseline fetch policy (paper: DVM
    still works with FLUSH active concurrently)."""
    return fig8_dvm(scale, fetch_policy="flush")


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


def ablation_t_cache_miss(scale: BenchScale, thresholds=(1, 8, 40, 120, 1_000_000)) -> list[dict]:
    """Sensitivity of opt2 to Tcache_miss (paper chose 16 per 10K
    cycles; the last value effectively disables the FLUSH trigger)."""
    rows = []
    for t in thresholds:
        s = dataclasses.replace(scale, t_cache_miss=t)
        cell = _vs_baseline(s, [({}, VISA_CONFIGS["VISA+opt2"])])
        rows.extend({"t_cache_miss": t, **row} for row in by_category(s, cell))
    return rows


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


# ----------------------------------------------------------------------
# Suite registry (CLI ``figures`` and the parallel engine)
# ----------------------------------------------------------------------
#: name -> (driver, title).  Each driver takes a BenchScale and returns
#: a list of row dicts; the parallel engine runs one suite per worker.
SUITES = {
    "fig1": (fig1_structure_avf, "Figure 1 — structure AVF per category"),
    "fig5": (fig5_visa_configs, "Figure 5 — VISA configs (ICOUNT)"),
    "fig6": (fig6_fetch_policies, "Figure 6 — VISA configs under fetch policies"),
    "fig8": (fig8_dvm, "Figure 8 — DVM sweep (ICOUNT)"),
    "fig9": (fig9_dvm_flush, "Figure 9 — DVM sweep (FLUSH)"),
    "fig10": (fig10_comparison, "Figure 10 — PVE of all schemes"),
    "table1": (table1_pc_accuracy, "Table 1 — PC classification accuracy"),
}


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

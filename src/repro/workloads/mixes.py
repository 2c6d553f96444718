"""The 9 four-context SMT workloads of Table 3.

Three categories — CPU (computation-intensive threads), MEM
(memory-intensive threads) and MIX (half and half) — with three groups
(A, B, C) each.  The paper reports per-category averages over the three
groups; :func:`mixes_in_category` supports that aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.generator import ProgramGenerator
from repro.isa.personalities import get_personality
from repro.isa.program import SyntheticProgram


@dataclass(frozen=True)
class WorkloadMix:
    """One SMT workload: a named tuple of benchmark threads."""

    name: str
    category: str  # "CPU", "MIX" or "MEM"
    group: str  # "A", "B" or "C"
    benchmarks: tuple[str, ...]

    def instances(self, seed: int = 0) -> list[tuple[str, int]]:
        """``(benchmark, generator seed)`` of each thread.

        Threads of the same benchmark within a mix get distinct seeds so
        their dynamic behaviour decorrelates, as different SimPoint
        phases would.  Thread ``i`` gets ``seed * 1000 + i``, so mixes
        that place one benchmark at the same index share its instance.
        """
        return [(name, seed * 1000 + i) for i, name in enumerate(self.benchmarks)]

    def programs(self, seed: int = 0) -> list[SyntheticProgram]:
        """Instantiate one synthetic program per thread."""
        return [
            ProgramGenerator(get_personality(name), seed=program_seed).generate()
            for name, program_seed in self.instances(seed)
        ]


# Table 3 verbatim.
MIXES: dict[str, WorkloadMix] = {
    m.name: m
    for m in [
        WorkloadMix("CPU-A", "CPU", "A", ("bzip2", "eon", "gcc", "perlbmk")),
        WorkloadMix("CPU-B", "CPU", "B", ("gap", "facerec", "crafty", "mesa")),
        WorkloadMix("CPU-C", "CPU", "C", ("gcc", "perlbmk", "facerec", "crafty")),
        WorkloadMix("MIX-A", "MIX", "A", ("gcc", "mcf", "vpr", "perlbmk")),
        WorkloadMix("MIX-B", "MIX", "B", ("mcf", "mesa", "crafty", "equake")),
        WorkloadMix("MIX-C", "MIX", "C", ("vpr", "facerec", "swim", "gap")),
        WorkloadMix("MEM-A", "MEM", "A", ("mcf", "equake", "vpr", "swim")),
        WorkloadMix("MEM-B", "MEM", "B", ("lucas", "galgel", "mcf", "vpr")),
        WorkloadMix("MEM-C", "MEM", "C", ("equake", "swim", "twolf", "galgel")),
    ]
}

CATEGORIES = ("CPU", "MIX", "MEM")


def get_mix(name: str) -> WorkloadMix:
    """Look up a workload mix by name (e.g. ``"CPU-A"``)."""
    try:
        return MIXES[name]
    except KeyError:
        raise KeyError(f"unknown mix {name!r}; available: {sorted(MIXES)}") from None


def mixes_in_category(category: str) -> list[WorkloadMix]:
    """All groups of one category, e.g. ``"CPU"`` -> CPU-A/B/C."""
    out = [m for m in MIXES.values() if m.category == category.upper()]
    if not out:
        raise KeyError(f"unknown category {category!r}; expected one of {CATEGORIES}")
    return sorted(out, key=lambda m: m.group)

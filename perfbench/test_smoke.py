"""Smoke test of the benchmark: every workload path at a tiny cycle budget.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

About four minutes on a 2-core machine; every simulated point still
pays its 100K-instruction functional warm-up.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import batch  # noqa: E402
from repro.reliability.avf import Structure  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
POINTS = {"fig5-serial": 12, "long-window": 3, "dvm-pool": 11}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_spec_lists_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(POINTS)


@pytest.mark.parametrize("workload", list(POINTS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_path(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", trace, "--cycles", "2000")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    batches = 2 if trace == "1" else 1
    assert out["attempted"] == batches * POINTS[workload]
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(out["metrics"]) == {m["name"] for m in SPEC[kind]}
    for m in SPEC[kind]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    digests = [line for line in lines[:-1] if line.startswith("digest ")]
    assert len(digests) == POINTS[workload]
    if trace == "1":
        layers = out["metrics"]
        assert layers["core.runs"]["value"] == POINTS[workload]
        assert layers["core.loop_kcycles"]["value"] > 0
        assert layers["runner.points"]["value"] >= POINTS[workload]


def _row(cat, avf, ipc):
    return {"category": cat, "config": "VISA+opt2", "norm_iq_avf": avf, "norm_ipc": ipc}


def test_fig5_check_flags_each_category():
    good = [_row(c, 0.6, 1.0) for c in ("CPU", "MIX", "MEM")]
    assert batch.check_fig5(good, 4) == []
    bad = [_row("CPU", 0.96, 1.0), _row("MIX", 0.6, 0.85), _row("MEM", 0.6, 1.0)]
    assert [points for points, _ in batch.check_fig5(bad, 4)] == [4, 4]
    assert [points for points, _ in batch.check_fig5(good[:2], 4)] == [4]


def test_long_window_check_flags_each_mix():
    def avf(iq, rob):
        return {Structure.IQ: iq, Structure.ROB: rob, Structure.RF: 0.1, Structure.FU: 0.0}

    good = {"CPU-A": avf(0.12, 0.15), "MIX-A": avf(0.23, 0.19), "MEM-A": avf(0.33, 0.24)}
    assert batch.check_long_window(good) == []
    bad = dict(good, **{"MIX-A": avf(0.18, 0.19), "CPU-A": avf(0.40, 0.15)})
    assert sorted(p for p, _ in batch.check_long_window(bad)) == [1, 2]


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "dvm-pool", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

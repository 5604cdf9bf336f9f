"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench -q

Runs every workload through every pass with a handful of ops and checks the
report's shape, not its numbers.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import E2E_UNITS, LAYER_UNITS
from workloads import DEFECT_COMBOS, WEAK_COMBOS, WORKLOADS, WeakManager

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def printed_metrics(stdout: str) -> dict[str, str]:
    """name -> unit of every `  name value unit` line of the report."""
    found = {}
    for line in stdout.splitlines():
        m = re.match(r"^\s+([A-Za-z][\w.]*)\s+(-?[\d.]+(?:e[-+]?\d+)?)\s+(\S+)", line)
        if m:
            found[m.group(1)] = m.group(3)
    return found


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_printed_with_unit(workload):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1",
                "--size", "tiny")
    assert out.returncode == 0, out.stderr
    printed = printed_metrics(out.stdout)
    expected = {**E2E_UNITS, **LAYER_UNITS, "op_fail_ratio": "ratio"}
    if WORKLOADS[workload].explores:
        expected["explore_s"] = "s"
    for name, unit in expected.items():
        assert printed.get(name) == unit, f"{name} not printed with unit {unit}"
    assert re.search(r"sha256 [0-9a-f]{64} ", out.stdout)

    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == LAYER_UNITS
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    assert 0 < layers["tracing.self_ms_mean"] <= layers["tracing.op_ms_mean"]


def test_untraced_result_holds_end_to_end_metrics():
    out = bench("--workload", "strong-chain-n32", "--seed", "4", "--seconds", "0",
                "--trace", "0", "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == E2E_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weak_grid_leaves_the_known_defect_to_the_probe(seed):
    assert len(WEAK_COMBOS) + len(DEFECT_COMBOS) == 48 and len(DEFECT_COMBOS) == 3
    wl = WeakManager(seed, "full")
    n = wl.base.n
    for k in range(1, len(WEAK_COMBOS) + 1):  # one full cycle of the timed combinations
        sc = wl.op_input(k)
        silent = [p for p, spec in sc.byzantine.items() if spec.name == "silent"]
        assert not (silent and sc.patience[:n] == (None,) * n and sc.patience[n] is not None)
    probe = wl.defect_inputs()
    assert {sc.patience[n] for sc in probe} == {0, 3, 10}
    for sc in probe:
        _, verdicts, _ = wl.run_op(sc)
        assert wl.classify(sc, verdicts) == "known_defect"


def test_weak_run_reports_the_defect_probe():
    out = bench("--workload", "weak-manager-n8", "--seed", "2", "--seconds", "0", "--trace", "0",
                "--size", "tiny")
    assert out.returncode == 0, out.stderr
    assert "progress defect (ROADMAP open item 1) on 3 of 3 ops" in out.stdout
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = bench("--workload", "strong-chain-n32", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

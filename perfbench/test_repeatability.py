"""Self-tests of the benchmark: repeatable counts, seed-driven inputs, the
verdict mix each recipe promises, and a clean refusal without the library.

    python3 -m pytest perfbench -q

Each workload is run a few times with ``--seconds 1`` (one pass per phase),
three to four minutes in all.  The repository's default test run does not
collect this file.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ladder_check", "crossval")


@functools.lru_cache(maxsize=None)
def bench(workload: str, seed: int, trace: int, copy: int = 0):
    """Parsed result line and context line of one run (``copy`` forces a
    separate run with identical arguments)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    context = next(json.loads(line[len("# context "):])
                   for line in lines if line.startswith("# context "))
    return json.loads(lines[-1]), context


def _counts(result) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_the_same_seed(workload):
    a, _ = bench(workload, 3, 1)
    b, _ = bench(workload, 3, 1, copy=1)
    assert a["correct"] and b["correct"]
    assert _counts(a) == _counts(b)
    assert any(_counts(a).values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_report_bytes_repeat_for_the_same_seed(workload):
    a, _ = bench(workload, 3, 0)
    b, _ = bench(workload, 3, 0, copy=1)
    assert a["correct"] and b["correct"] and a["failed"] == 0
    assert a["metrics"]["report_bytes"] == b["metrics"]["report_bytes"]


def _ladder_mix_ok(mix: dict) -> bool:
    def n(key):
        return mix.get(key, 0)

    scaled = n("scaled.b_holds") + n("scaled.b_fails")
    default = n("default.double_b_holds") + n("default.double_b_fails")
    return (
        n("boundary.critical_row") == n("boundary.b_fails") == 16
        and n("boundary.double_b_holds") == 16
        and 0.25 <= n("scaled.b_holds") / scaled <= 1.0
        and n("default.double_b_fails") / default >= 0.4
    )


MIX_IN_RANGE = {
    # every recipe yields the share of verdicts it was built for
    "ladder_check": _ladder_mix_ok,
    # one manufactured boundary family per chunk; random families are seldom
    # double B but not B (at most 5% of the 1224 trials); even order is never
    # falsified, odd order always is
    "crossval": lambda mix: (
        mix["manufactured_boundary_count"] == 102
        and 102 <= mix["double_b_not_b"] <= 102 + 61
        and mix["critical_row_instances"] >= 102
        and mix["m4n2.falsified"] == mix["m4n3.falsified"] == 0
        and mix["m3n6.falsified"] == mix["m3n6.members"] == 160
    ),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_changes_inputs_not_the_mix(workload):
    _, ctx_a = bench(workload, 3, 0)
    result, ctx_b = bench(workload, 4, 0)
    assert result["correct"]
    assert ctx_a["inputs_sha256"] != ctx_b["inputs_sha256"]
    for ctx in (ctx_a, ctx_b):
        assert MIX_IN_RANGE[workload](ctx["verdict_mix"]), ctx["verdict_mix"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crossval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

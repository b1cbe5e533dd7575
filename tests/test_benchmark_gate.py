"""The benchmark's correctness gates, run with the tests.

``perfbench/workloads.py`` compares the digest of each suite chunk's
``cross-validate`` report text, and of each ladder item's verdict fields,
with the seed-1 digests in ``perfbench/expected_seed1.json``.  These tests
load the workloads module read-only and run seed 1 through the same
``setup``, ``run_item`` and ``verify``: the first crossval chunks and every
ladder_check item, so that a change that would fail the benchmark's gate
fails here too.
"""

import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CHUNKS = 6


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # The module's dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_first_suite_chunks_match_the_seed1_digests(monkeypatch, tmp_path):
    part = _workloads(monkeypatch).SuiteChunks()
    state = part.setup(1, str(tmp_path))
    items = state.items[:CHUNKS]
    check = part.verify(state, [part.run_item(state, item) for item in items])
    expected = json.loads((PERFBENCH / "expected_seed1.json").read_text())
    assert (check.failed, check.reasons) == (set(), [])
    assert check.digests == expected["crossval"][:CHUNKS]


def test_ladder_items_match_the_seed1_digests(monkeypatch, tmp_path):
    part = _workloads(monkeypatch).LadderCheck()
    state = part.setup(1, str(tmp_path))
    check = part.verify(state, [part.run_item(state, item) for item in state.items])
    expected = json.loads((PERFBENCH / "expected_seed1.json").read_text())
    assert (check.failed, check.reasons) == (set(), [])
    assert check.digests == expected["ladder_check"]

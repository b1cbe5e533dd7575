"""The benchmark's tracer wraps library functions by name.

``perfbench/tracing.py`` replaces each traced function in every ``itensor``
module namespace and refuses to run when one is missing; its layer metrics
for report writing read the spans of ``cli.dumps_report`` and
``interval_verdict_report``.  These tests load the tracer read-only and
keep the CLI calling both, so that a refactor cannot silently zero those
layers.
"""

import importlib.util
import json
from collections import Counter
from pathlib import Path

from itensor import cli
from itensor.interval import interval_to_json

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    assert _tracing().missing() == []


def test_check_calls_the_traced_report_functions(
    family_double_b, tmp_path, monkeypatch, capsys
):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(interval_to_json(family_double_b)))
    calls = Counter()
    for name in ("dumps_report", "interval_verdict_report"):
        def counted(*args, _fn=getattr(cli, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    assert cli.main(["check", "--class", "interval-double-b", str(path)]) == 0
    assert calls == {"dumps_report": 1, "interval_verdict_report": 1}

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

from itensor import cli, make_interval
from itensor.interval import interval_to_json
from itensor.tensor import circulant_from_first_row

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


def test_check_calls_each_class_check_by_name(tmp_path, monkeypatch, capsys):
    # Each class's check is looked up in cli when it runs, so a wrapper put
    # on that name (as the tracer puts one) sees the one call.
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"order": 3, "dim": 2,
                                 "entries": [6, 0, 0, 0, 0, 0, 0, 6]}))
    family = make_interval(circulant_from_first_row([4, -0.5, 0.25, -0.5], 3, 2),
                           circulant_from_first_row([5, 0, 0.5, 0], 3, 2))
    interval = tmp_path / "family.json"
    interval.write_text(json.dumps(interval_to_json(family)))
    files = {"tensor": str(point), "interval": str(interval)}
    for cls, (kind, _, name) in cli.CHECKS.items():
        calls = Counter()

        def counted(*args, _fn=getattr(cli, name), _calls=calls, **kwargs):
            _calls[cls] += 1
            return _fn(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(cli, name, counted)
            argv = ["check", "--class", cls, files[kind], "--budget", "50"]
            assert cli.main(argv) in (0, 1, 2), cls
        assert calls == {cls: 1}, cls
    capsys.readouterr()

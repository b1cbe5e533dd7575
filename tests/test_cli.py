import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from itensor import check_interval_b, check_interval_double_b, make_interval, make_tensor
from itensor.cli import INTERVAL_CLASSES, build_parser, dumps_report, main
from itensor.interval import interval_from_json, interval_to_json
from itensor.interval_classify import (
    Ledger,
    LedgerBlock,
    LedgerDicts,
    interval_verdict_report,
)
from itensor.oracle import boundary_interval
from itensor.tensor import circulant_from_first_row


@pytest.fixture
def reject_file(tmp_path, family_not_b):
    path = tmp_path / "reject.json"
    path.write_text(dumps_report(interval_to_json(family_not_b)))
    return str(path)


@pytest.fixture
def accept_file(tmp_path, family_double_b):
    path = tmp_path / "accept.json"
    path.write_text(dumps_report(interval_to_json(family_double_b)))
    return str(path)


class TestDumpsReport:
    def test_float_precision(self):
        out = dumps_report({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in out
        assert json.loads(out)["x"] == 1.0 / 3.0

    def test_roundtrip_types(self):
        obj = {"a": 1, "b": [True, None, 2.5], "c": {"d": "s"}}
        assert json.loads(dumps_report(obj)) == obj

    def test_deterministic(self):
        obj = {"x": 0.1, "y": [1, 2, {"z": -4.75}]}
        assert dumps_report(obj) == dumps_report(obj)

    def test_ledger_columns_match_dicts(self, tmp_path):
        # The column writer must give the bytes the generic writer gives for
        # the same records as dicts, signed zeros and extreme doubles included.
        lower = make_tensor(3, 2, [1e-310, -0.0, 0.1, -0.0, -0.0, 1e300, 0.0, -0.0])
        upper = make_tensor(3, 2, [2.0, 0.0, 0.3, -0.0, 1.0 / 3.0, 1e301, 0.0, 7.0])
        AI = make_interval(lower, upper)
        texts = []
        with open(_huge_circulant_file(tmp_path)) as fh:
            huge = interval_from_json(json.load(fh))
        verdicts = [check_interval_double_b(AI), check_interval_b(AI, "slack"),
                    check_interval_double_b(huge)]
        for v in verdicts:
            rep = interval_verdict_report(v, "x")
            assert isinstance(rep["conditions"], LedgerDicts)
            for conditions in (v.conditions.summary_view(), rep["conditions"]):
                as_dicts = dict(rep, conditions=list(conditions))
                texts.append(dumps_report(dict(rep, conditions=conditions)))
                assert texts[-1] == dumps_report(as_dicts)
        assert any(": -0,\n" in text for text in texts)
        assert any(": Infinity,\n" in text for text in texts)


    @pytest.mark.parametrize("side, token", ((math.inf, "Infinity"), (-0.0, "-0")))
    def test_full_ledger_writer_on_any_side(self, side, token):
        # Infinities and signed zeros are written by the full-ledger writer
        # as by the generic one.
        ledger = Ledger([LedgerBlock("a", np.arange(2), np.array([side, 2.5]),
                                     np.array([1.0, side]), np.array([True, False]))],
                        3, 2)
        text = dumps_report({"c": ledger.dicts()})
        assert text == dumps_report({"c": list(ledger.dicts())})
        assert f'"lhs": {token},\n' in text


    def test_condition_ids_are_escaped(self):
        # An id holding a %, a quote and non-ASCII characters is filled into
        # the ledger templates as the generic writer writes it.
        cond = 'c%d "%s" \u00e9\u2603'
        lhs, rhs = np.array([[1.0, -2.5, 0.5], [4.0, 0.0, -0.0]]), np.full((2, 3), 0.5)
        blocks = [
            LedgerBlock(cond, np.arange(2)[:, None], lhs, rhs, lhs > rhs,
                        tails=np.array([[1, 2, 3], [0, 2, 3]])),
            LedgerBlock(cond + "%", np.array([0]), np.array([[3.0, 1.0]]),
                        np.array([[2.0, 1.0]]), np.array([[True, False]]),
                        pair_rows=np.array([1]), tails=np.array([[1, 2]]),
                        pair_tails=np.array([[3, 0]])),
        ]
        ledger = Ledger(blocks, 3, 2)
        for conditions in (ledger.dicts(), ledger.summary_view()):
            text = dumps_report({"c": conditions})
            assert text == dumps_report({"c": list(conditions)})
            assert '"c%d \\"%s\\" \\u00e9\\u2603%"' in text


class TestCheckVerb:
    def test_interval_b_reject(self, reject_file, capsys):
        code = main(["check", "--class", "interval-b", "--method", "theorem",
                     reject_file])
        assert code == 1
        out = capsys.readouterr()
        report = json.loads(out.out)
        w = report["report"]["witness"]
        assert (w["row"], w["index"], w["lhs"], w["rhs"]) == (1, [2, 2], 4, 6)
        assert "input_sha256" in report

    def test_interval_double_b_accept(self, accept_file, capsys):
        code = main(["check", "--class", "interval-double-b", "--ledger", "full",
                     accept_file])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["report"]["status"] == "holds"
        c1 = [c for c in report["report"]["conditions"] if c["id"] == "c1"]
        assert any((c["lhs"], c["rhs"]) == (25, 4) for c in c1)

    def test_interval_double_b_summary_by_default(self, accept_file, capsys):
        assert main(["check", "--class", "interval-double-b", accept_file]) == 0
        groups = json.loads(capsys.readouterr().out)["report"]["conditions"]
        assert [(g["id"], g["rows"]) for g in groups] == [
            ("a", [1]), ("a", [2]), ("b1", [1]), ("b1", [2]), ("b2", [1]),
            ("b2", [2]), ("c1", [1, 2]), ("c2", [1, 2]), ("c2", [2, 1]),
            ("c3", [1, 2]),
        ]
        c1 = groups[6]
        assert (c1["evaluated"], c1["failed"], c1["first_failure"]) == (9, 0, None)
        assert c1["tightest"] == {"lhs": 25, "rhs": 4, "tail": [1, 2],
                                  "pair_tail": [1, 1]}

    def test_text_report_builds_no_summary(self, accept_file, capsys, monkeypatch):
        def boom(self):
            raise AssertionError("summary built for a text report")

        monkeypatch.setattr(Ledger, "summary", boom)
        monkeypatch.setattr(Ledger, "summary_view", boom)
        assert main(["check", "--class", "interval-double-b", "--format", "text",
                     accept_file]) == 0
        assert capsys.readouterr().out == "HOLDS\n"

    def test_point_class_on_tensor_file(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"order": 3, "dim": 2,
                                    "entries": [6, 0, 0, 0, 0, 0, 0, 6]}))
        assert main(["check", "--class", "b", str(path)]) == 0
        capsys.readouterr()
        assert main(["check", "--class", "z", str(path)]) == 0
        capsys.readouterr()
        assert main(["check", "--class", "sdd", str(path)]) == 0
        capsys.readouterr()
        assert main(["check", "--class", "circulant-b", str(path)]) == 0
        capsys.readouterr()
        # odd order: the P sufficiency check cannot conclude
        assert main(["check", "--class", "p-sufficient", str(path)]) == 2

    def test_p_falsify(self, tmp_path, capsys):
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({"order": 4, "dim": 2,
                                    "entries": [-1.0] + [0.0] * 14 + [-1.0]}))
        code = main(["check", "--class", "p-falsify", str(path),
                     "--budget", "50", "--seed", "1"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["report"]["falsified"] is True
        assert report["report"]["counterexample_x"] == [1, 0]

    def test_class_file_mismatch(self, reject_file, capsys):
        assert main(["check", "--class", "b", reject_file]) == 3

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["check", "--class", "b", str(path)]) == 3
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_wrong_length_entries(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"order": 3, "dim": 2, "entries": [1, 2]}))
        assert main(["check", "--class", "b", str(path)]) == 3

    def test_epsilon_flag(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"order": 2, "dim": 2,
                                    "entries": [0, 0, 0, 0]}))
        assert main(["check", "--class", "b", str(path)]) == 1
        capsys.readouterr()
        assert main(["check", "--class", "b", "--epsilon", "0.5", str(path)]) == 0

    def test_negative_epsilon_rejected(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"order": 2, "dim": 2,
                                    "entries": [0, 0, 0, 0]}))
        assert main(["check", "--class", "b", "--epsilon", "-1", str(path)]) == 3

    @pytest.mark.parametrize("epsilon", ("nan", "inf", "-inf"))
    @pytest.mark.parametrize("verb", ("check", "classify"))
    def test_non_finite_epsilon_rejected(self, tmp_path, capsys, epsilon, verb):
        # NaN would fail every comparison and inf pass every one; the
        # boundary family holds at epsilon 0.
        path = tmp_path / "boundary.json"
        path.write_text(dumps_report(interval_to_json(boundary_interval(3, 2))))
        argv = [verb, f"--epsilon={epsilon}", str(path)]
        if verb == "check":
            argv[1:1] = ["--class", "interval-double-b"]
        assert main(argv) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: --epsilon must be finite, got {float(epsilon)}\n"

    @pytest.mark.parametrize("cls, kind", (
        ("interval-double-b", "interval"), ("interval-z", "interval"),
        ("double-b", "point")))
    def test_method_refused_by_classes_without_methods(
        self, tmp_path, capsys, accept_file, cls, kind
    ):
        path = accept_file
        if kind == "point":
            path = tmp_path / "point.json"
            path.write_text(json.dumps({"order": 3, "dim": 2,
                                        "entries": [6, 0, 0, 0, 0, 0, 0, 6]}))
        assert main(["check", "--class", cls, str(path)]) in (0, 1)
        capsys.readouterr()
        assert main(["check", "--class", cls, "--method", "bogus", str(path)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: class {cls} takes no --method\n"

    @pytest.mark.parametrize("kind", ("interval", "tensor"))
    def test_dichotomy_is_not_a_check_class(self, tmp_path, capsys, accept_file, kind):
        # The dichotomy is the classify verb: check refuses it on either file.
        path = accept_file
        if kind == "tensor":
            path = tmp_path / "point.json"
            path.write_text(json.dumps({"order": 3, "dim": 2,
                                        "entries": [6, 0, 0, 0, 0, 0, 0, 6]}))
        assert main(["check", "--class", "dichotomy", str(path)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert "invalid choice: 'dichotomy'" in out.err

    def test_memory_error_exit(self, accept_file, capsys, monkeypatch):
        import itensor.cli as cli

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "check_interval_double_b", exhausted)
        assert main(["check", "--class", "interval-double-b", accept_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory")

    def test_order_cap_in_file(self, tmp_path, capsys):
        # Rejected before dim**order is computed, and before any entry is
        # converted.
        tensor = {"order": 3_000_000, "dim": 2, "entries": [1.0]}
        interval = {"order": 3_000_000, "dim": 2, "lower": [1.0], "upper": [2.0]}
        for name, obj in (("t.json", tensor), ("i.json", interval)):
            path = tmp_path / name
            path.write_text(json.dumps(obj))
            assert main(["check", "--class", "b", str(path)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: {path}: order must be <= 64, got 3000000\n"
            )

    @pytest.mark.parametrize("key", ["order", "dim"])
    @pytest.mark.parametrize(
        "cls, obj",
        [
            ("b", {"order": 3, "dim": 1, "entries": [5]}),
            ("interval-b", {"order": 2, "dim": 1, "lower": [1], "upper": [2]}),
        ],
    )
    def test_boolean_order_or_dim_rejected(self, tmp_path, capsys, key, cls, obj):
        # JSON true is a Python int; it must not pass as order or dim 1.
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(dict(obj, **{key: True})))
        assert main(["check", "--class", cls, str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: order and dim must be integers\n"

    @pytest.mark.parametrize("argv", [["check", "--class", "interval-b"], ["classify"]])
    def test_deeply_nested_input(self, tmp_path, capsys, argv):
        # json raises RecursionError here, not a JSONDecodeError; exit 1
        # would read as "the property fails".
        path = tmp_path / "deep.json"
        path.write_text('{"lower": ' + "[" * 200_000 + "]" * 200_000 + "}")
        assert main(argv + [str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: JSON nested too deeply\n"

    @pytest.mark.parametrize("argv", [["check", "--class", "interval-b"], ["classify"]])
    def test_input_size_cap(self, tmp_path, capsys, monkeypatch, argv):
        # A sparse file one byte over the cap is refused by its size: nothing
        # is read or parsed.
        import itensor.cli as cli

        def no_parse(*args, **kwargs):
            raise AssertionError("input parsed")

        monkeypatch.setattr(json, "loads", no_parse)
        path = tmp_path / "big.json"
        path.touch()
        os.truncate(path, cli.MAX_INPUT_BYTES + 1)
        assert main(argv + [str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: input larger than {cli.MAX_INPUT_BYTES} bytes\n")

    def test_input_size_cap_on_a_device(self, capsys, monkeypatch):
        # A device has no size: it is read up to one byte past the cap.
        import itensor.cli as cli

        monkeypatch.setattr(cli, "MAX_INPUT_BYTES", 64)
        assert main(["check", "--class", "interval-b", "/dev/zero"]) == 3
        assert capsys.readouterr().err == (
            "error: /dev/zero: input larger than 64 bytes\n")

    def test_generated_files_fit_the_input_cap(self, tmp_path, capsys):
        # MAX_INPUT_BYTES allows 32 bytes per entry of two bounds of the
        # largest generated shape; a written entry takes at most 30: a
        # four-space indent, 24 characters of "%.17g" and ",\n".
        import itensor.cli as cli

        assert cli.MAX_INPUT_BYTES == 2 * cli.MAX_SHAPE_ENTRIES * 32
        assert len("    " + format(-2.2250738585072014e-308, ".17g") + ",\n") == 30
        path = tmp_path / "g.json"
        assert main(["generate", "--m", "3", "--n", "8", "--output", str(path)]) == 0
        assert path.stat().st_size <= 2 * 8**3 * 30

    def test_byte_identical_reports(self, reject_file, capsys):
        main(["check", "--class", "interval-b", reject_file])
        first = capsys.readouterr().out
        main(["check", "--class", "interval-b", reject_file])
        second = capsys.readouterr().out
        assert first == second

    def test_output_file(self, accept_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["check", "--class", "interval-b", accept_file,
                     "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["report"]["status"] == "holds"

    def test_output_file_replaces_longer_contents(self, accept_file, tmp_path, capsys):
        argv = ["check", "--class", "interval-b", accept_file]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        out = tmp_path / "report.json"
        out.write_text("x" * (3 * len(expected)))
        out.chmod(0o640)
        assert main(argv + ["--output", str(out)]) == 0
        assert out.read_text() == expected
        assert out.stat().st_mode & 0o777 == 0o640
        assert main(argv + ["--format", "text", "--output", str(out)]) == 0
        assert out.read_text() == "HOLDS\n"

    def test_output_to_a_device(self, accept_file, capsys):
        assert main(["check", "--class", "interval-b", accept_file,
                     "--output", os.devnull]) == 0
        assert capsys.readouterr().out == ""

    def test_text_format(self, accept_file, capsys):
        assert main(["check", "--class", "interval-b", accept_file,
                     "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "HOLDS"


def _huge_circulant_file(tmp_path):
    """An m=3, n=2 circulant family with lower diagonals 1e308 (upper
    1.5e308) and off-diagonals in [-1e300, 1e300]: the double-B products
    overflow to inf."""
    lower = circulant_from_first_row([1e308, -1e300, 1e300, -1e300], 3, 2)
    upper = circulant_from_first_row([1.5e308, 1e300, 1e300, 1e300], 3, 2)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(interval_to_json(make_interval(lower, upper))))
    return str(path)


class TestOverflowingFamilies:
    @pytest.mark.parametrize(
        "argv",
        [["check", "--class", cls] for cls in INTERVAL_CLASSES] + [["classify"]],
    )
    def test_stderr_is_the_summary_line(self, argv, tmp_path, capsys):
        # The overflowing products are IEEE infinities, not warnings: the
        # summary line is all that reaches stderr.
        path = _huge_circulant_file(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + [path])
        err = capsys.readouterr().err
        assert [str(w.message) for w in caught] == []
        assert code in (0, 1, 2)
        assert re.fullmatch(r"(HOLDS|FAILS|INCONCLUSIVE|kind \w+)(: [^\n]*)?\n", err)

    @pytest.mark.parametrize("ledger", ["summary", "full"])
    def test_infinite_sides_are_json(self, ledger, tmp_path, capsys):
        # The c products overflow to inf: the report, its ledger and its
        # witness write them as json writes them, so json reads them back.
        path = _huge_circulant_file(tmp_path)
        argv = ["check", "--class", "interval-double-b", path]
        assert main(argv + (["--ledger", "full"] if ledger == "full" else [])) == 1
        out = capsys.readouterr().out
        assert "Infinity" in out and "inf" not in out.replace("Infinity", "")
        report = json.loads(out)["report"]
        assert report["witness"]["condition"] == "c1"
        assert report["witness"]["lhs"] == report["witness"]["rhs"] == math.inf
        if ledger == "full":
            assert math.inf in [c["lhs"] for c in report["conditions"]]
        else:
            assert math.inf in [g["tightest"]["lhs"] for g in report["conditions"]]

    def test_non_finite_floats_round_trip(self):
        values = [math.inf, -math.inf, math.nan, 1e308, -0.5]
        text = dumps_report({"x": values})
        assert "Infinity,\n" in text and "-Infinity" in text and "NaN" in text
        got = json.loads(text)["x"]
        assert got[:2] + got[3:] == values[:2] + values[3:] and math.isnan(got[2])

    def test_p_sufficient_midpoint_beyond_the_double_range(self, tmp_path, capsys):
        # (lower + upper) / 2 overflows; symmetry of both bounds decides.
        lower = make_tensor(2, 2, [1.5e308, 0.5, 0.5, 1.5e308])
        upper = make_tensor(2, 2, [1.6e308, 1.0, 1.0, 1.6e308])
        path = tmp_path / "near_max.json"
        path.write_text(json.dumps(interval_to_json(make_interval(lower, upper))))
        for cls in ("interval-b", "interval-p-sufficient"):
            assert main(["check", "--class", cls, str(path)]) == 0
            assert capsys.readouterr().err == "HOLDS\n"

    def test_non_finite_entry_message(self, tmp_path, capsys):
        path = tmp_path / "inf.json"
        path.write_text('{"order": 2, "dim": 2, "lower": [1, 0, 0, 1], '
                        '"upper": [Infinity, 0, 0, 1]}')
        assert main(["check", "--class", "interval-b", str(path)]) == 3
        assert capsys.readouterr().err == (
            f"error: {path}: non-finite entry inf at position (1, 1)\n"
        )


class TestClassifyVerb:
    def test_interval_dichotomy(self, tmp_path, capsys):
        path = tmp_path / "boundary.json"
        path.write_text(dumps_report(interval_to_json(boundary_interval(3, 2))))
        assert main(["classify", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["report"]["kind"] == "critical_row"
        assert report["report"]["critical_row"] == 1
        assert report["report"]["failing_mode"] == "slack_equality"

    def test_point_dichotomy(self, tmp_path, capsys):
        path = tmp_path / "point.json"
        path.write_text(json.dumps({"order": 3, "dim": 2,
                                    "entries": [6, 0, 0, 0, 0, 0, 0, 6]}))
        assert main(["classify", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["report"]["kind"] == "is_b"

    def test_not_double_b_exit(self, reject_file, capsys):
        assert main(["classify", reject_file]) == 1

    def test_point_dichotomy_under_epsilon(self, tmp_path, capsys):
        # Every row of the zero tensor beats its gaps by the tolerance, so
        # it is B at epsilon 0.5, as `check --class b` says.
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"order": 2, "dim": 2, "entries": [0, 0, 0, 0]}))
        assert main(["check", "--class", "b", "--epsilon", "0.5", str(path)]) == 0
        capsys.readouterr()
        assert main(["classify", "--epsilon", "0.5", str(path)]) == 0
        out = capsys.readouterr()
        assert json.loads(out.out)["report"]["kind"] == "is_b"
        assert out.err == "kind is_b\n"

    def test_dichotomy_anomaly_is_a_usage_error(self, accept_file, capsys,
                                                monkeypatch):
        import itensor.cli as cli
        from itensor import DichotomyAnomaly

        def anomaly(AI, tol=0.0):
            raise DichotomyAnomaly("critical-row conditions fail in rows [1, 2]",
                                   [1, 2])

        monkeypatch.setattr(cli, "classify_interval_double_b_dichotomy", anomaly)
        assert main(["classify", accept_file]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: critical-row conditions fail in rows [1, 2]\n"


class TestGenerateAndCrossValidate:
    def test_generate_roundtrips_into_check(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert main(["generate", "--m", "3", "--n", "2", "--seed", "4",
                     "--structure", "z", "--output", str(out)]) == 0
        assert main(["check", "--class", "interval-z", str(out)]) == 0

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--m", "3", "--n", "2", "--seed", "8",
              "--output", str(a)])
        main(["generate", "--m", "3", "--n", "2", "--seed", "8",
              "--output", str(b)])
        assert a.read_text() == b.read_text()

    def test_generate_size_cap(self, capsys, monkeypatch):
        import itensor.cli as cli

        class Reached(Exception):
            pass

        def reached(spec):
            raise Reached((spec.order, spec.dim))

        monkeypatch.setattr(cli, "random_interval_tensor", reached)
        # 2**20 entries is the cap itself: the generator is reached.
        with pytest.raises(Reached):
            main(["generate", "--m", "4", "--n", "32"])
        for m, n in (("3", "102"), ("21", "2"), ("1000000000", "10"),
                     ("1", "3"), ("0", "2"), ("-1", "2"), ("3", "0")):
            assert main(["generate", "--m", m, "--n", n]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1

    def test_generate_order_cap(self, capsys, monkeypatch):
        import itensor.cli as cli

        class Reached(Exception):
            pass

        def reached(spec):
            raise Reached((spec.order, spec.dim))

        monkeypatch.setattr(cli, "random_interval_tensor", reached)
        # The cap itself is reached: one entry per bound, order 64.
        with pytest.raises(Reached):
            main(["generate", "--m", str(cli.MAX_ORDER), "--n", "1"])
        for m in ("65", "10000000", "1000000000"):
            assert main(["generate", "--m", m, "--n", "1"]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: order must be <= 64, got {m}\n"

    def test_cross_validate_rejects_hostile_shapes(self, capsys, monkeypatch):
        import itensor.cli as cli

        def reached(*args, **kwargs):
            raise AssertionError("equivalence_suite was reached")

        monkeypatch.setattr(cli, "equivalence_suite", reached)
        for argv in (["--m", "3", "--n", "102"], ["--m", "21", "--n", "2"],
                     ["--m", "65", "--n", "1"], ["--m", "1"], ["--n", "0"],
                     ["--trials", "-3"]):
            assert main(["cross-validate"] + argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1
        assert captured.err == "error: --trials must be >= 0, got -3\n"

    def test_cross_validate_over_the_vertex_budget(self, capsys, monkeypatch):
        # 2**20 entries per bound passes the shape cap; the first family's
        # vertex count stops the suite before any classifier runs.
        from itensor import oracle

        def reached(*args, **kwargs):
            raise AssertionError("a classifier ran")

        monkeypatch.setattr(oracle, "check_interval_b", reached)
        assert main(["cross-validate", "--m", "20", "--n", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(
            r"error: vertex enumeration needs 2\*\*(\d+) tensors, limit is 1048576 "
            r"\(required budget 2\*\*\1\)\n",
            captured.err,
        )

    def test_cross_validate(self, capsys):
        code = main(["cross-validate", "--trials", "25", "--seed", "3",
                     "--m", "3", "--n", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        body = report["report"]
        assert body["trials"] == 25
        assert body["counterexamples"] == []
        assert "double_b_implies_b_refuted" in body["inclusion_probe"]


class TestOptionsPerVerb:
    @pytest.mark.parametrize("argv", [
        ["classify", "FILE", "--seed", "1"],
        ["classify", "FILE", "--budget", "5"],
        ["generate", "--m", "3", "--n", "2", "--epsilon", "0.5"],
        ["generate", "--m", "3", "--n", "2", "--budget", "5"],
        ["cross-validate", "--trials", "2", "--epsilon", "0.5"],
        ["cross-validate", "--trials", "2", "--budget", "5"],
    ], ids=("classify-seed", "classify-budget", "generate-epsilon",
            "generate-budget", "cross-validate-epsilon", "cross-validate-budget"))
    def test_options_a_verb_does_not_read_are_refused(self, argv, accept_file, capsys):
        # A verb takes only the options it reads: a report never records a
        # seed, budget or tolerance that did not run.
        argv = [accept_file if a == "FILE" else a for a in argv]
        assert main(argv) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in out.err


class TestParserReuse:
    def _calls(self, tmp_path, reject_file, accept_file):
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"order": 3, "dim": 2,
                                     "entries": [6, 0, 0, 0, 0, 0, 0, 6]}))
        return [
            ["check", "--class", "interval-b", "--method", "slack", reject_file],
            ["check", "--class", "interval-b", reject_file],
            ["check", "--class", "interval-double-b", "--epsilon", "0.5",
             "--format", "text", accept_file],
            ["check", "--class", "interval-double-b", accept_file],
            ["check", "--class", "b", "--method", "rowsum_gamma", str(point)],
            ["check", "--class", "p-falsify", "--budget", "7", "--seed", "2",
             str(point)],
            ["classify", reject_file],
            ["classify", str(point)],
            ["generate", "--m", "3", "--n", "2", "--seed", "4",
             "--structure", "circulant"],
            ["generate", "--m", "3", "--n", "2"],
            ["cross-validate", "--trials", "3", "--seed", "5"],
            ["check", "--class", "nope", reject_file],
            ["check", "--class", "b", "--epsilon", "-1", str(point)],
            ["--help"],
            ["check", "--help"],
            [],
        ]

    def _run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_back_to_back_calls_match_fresh_parsers(
        self, tmp_path, reject_file, accept_file, capsys
    ):
        calls = self._calls(tmp_path, reject_file, accept_file)
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(self._run(argv, capsys))
        assert [code for code, _, _ in fresh] == [
            1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 3, 3, 0, 0, 3]
        # One cached parser, every call in order and then in reverse order.
        for order in (calls, calls[::-1]):
            got = [self._run(argv, capsys) for argv in order]
            want = fresh if order is calls else fresh[::-1]
            assert got == want

    def test_usage_error_and_help_after_caching(self, capsys):
        parser = build_parser()
        assert main(["check"]) == 3
        assert "usage: itensor check" in capsys.readouterr().err
        assert main(["--help"]) == 0
        assert "usage: itensor" in capsys.readouterr().out
        assert main(["generate", "--m", "x", "--n", "2"]) == 3
        assert "invalid int value" in capsys.readouterr().err
        assert build_parser() is parser


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"order": 2, "dim": 2,
                                    "entries": [2, 0, 0, 2]}))
        proc = subprocess.run(
            [sys.executable, "-m", "itensor.cli", "check", "--class", "b",
             str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["report"]["status"] == "holds"

    def test_usage_error_exit(self):
        proc = subprocess.run(
            [sys.executable, "-m", "itensor.cli", "check", "--class", "b"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3

    @pytest.mark.parametrize("argv", [
        ["check", "--class", "interval-b", "data/example_interval_b_reject.json"],
        ["check", "--class", "interval-double-b", "--ledger", "full",
         "data/example_interval_double_b.json"],
        ["check", "--class", "b"],
    ], ids=("fails", "holds_full", "usage"))
    def test_package_invocation_matches_main(self, argv, capsys, monkeypatch):
        # `python -m itensor` from a checkout: src on the path, no install.
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-m", "itensor", *argv],
                              capture_output=True, cwd=root, env=env)
        monkeypatch.chdir(root)
        assert proc.returncode == main(argv)
        assert proc.stdout == capsys.readouterr().out.encode()

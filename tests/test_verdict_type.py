"""Point, interval and oracle verdicts share one type and one report writer."""

import importlib
import inspect

import itensor
from itensor import (
    GeneratorSpec,
    Verdict,
    boundary_interval,
    check_b,
    check_b_circulant,
    check_dd,
    check_double_b,
    check_interval_b,
    check_interval_b_zfast,
    check_interval_circulant,
    check_interval_double_b,
    check_interval_double_b_dominance,
    check_interval_double_b_hat_sufficient,
    check_interval_double_b_zfast,
    check_z,
    circulant_from_first_row,
    interval_double_b_necessary,
    interval_p_sufficient,
    make_interval,
    make_tensor,
    oracle_interval_b,
    oracle_interval_double_b,
    p_sufficient,
    random_interval_tensor,
)
from itensor import classify, interval_classify
from itensor.classify import B_METHODS, verdict_report
from itensor.interval_classify import INTERVAL_B_METHODS, LedgerDicts


def z_family():
    lower = make_tensor(3, 2, [6, -1, -1, -1, -1, -1, -1, 6])
    upper = make_tensor(3, 2, [7, 0, 0, 0, 0, 0, 0, 7])
    return make_interval(lower, upper)


def producers(family_not_b, family_double_b):
    """(label, verdict) for every public verdict producer, on holding and
    failing inputs where the producer can fail."""
    families = (family_not_b, family_double_b, z_family(), boundary_interval(2, 3))
    for AI in families:
        for T in (AI.lower, AI.upper, make_tensor(2, 2, [1, 2, 2, 1])):
            for meth in B_METHODS:
                yield f"check_b {meth}", check_b(T, meth)
            yield "check_dd strict", check_dd(T)
            yield "check_dd weak", check_dd(T, strict=False)
            yield "check_z", check_z(T)
            yield "check_double_b", check_double_b(T)
            yield "p_sufficient", p_sufficient(T)
        for meth in INTERVAL_B_METHODS:
            yield f"check_interval_b {meth}", check_interval_b(AI, meth)
        yield "check_interval_double_b", check_interval_double_b(AI)
        yield "dominance", check_interval_double_b_dominance(AI)
        yield "hat", check_interval_double_b_hat_sufficient(AI)
        yield "interval_p_sufficient", interval_p_sufficient(AI)
        for label, v in interval_double_b_necessary(AI, "extremes").member_verdicts:
            yield f"extremes {label}", v
        yield "oracle_interval_b", oracle_interval_b(AI)
        yield "oracle_interval_double_b", oracle_interval_double_b(AI)
    for lo, up in (([6, 0, 0, 0], [7, 1, 1, 1]), ([0, 1, 1, 1], [1, 2, 2, 2])):
        AI = make_interval(circulant_from_first_row(lo, 3, 2),
                           circulant_from_first_row(up, 3, 2))
        yield "check_b_circulant", check_b_circulant(AI.upper)
        yield "check_interval_circulant", check_interval_circulant(AI)
    yield "check_interval_b_zfast", check_interval_b_zfast(z_family())
    yield "check_interval_double_b_zfast", check_interval_double_b_zfast(z_family())


def test_every_producer_returns_verdict(family_not_b, family_double_b):
    seen = set()
    for label, v in producers(family_not_b, family_double_b):
        assert type(v) is Verdict, label
        seen.add((label.split()[0], v.status))
    # Both outcomes of the exact criteria and of both oracles are covered.
    for name in ("check_b", "check_interval_b", "check_interval_double_b",
                 "oracle_interval_b", "oracle_interval_double_b",
                 "check_interval_circulant", "check_b_circulant"):
        assert {s.value for (n, s) in seen if n == name} == {"holds", "fails"}, name


def test_one_verdict_class_in_the_package():
    modules = [importlib.import_module(f"itensor.{m}") for m in
               ("tensor", "classify", "interval", "interval_classify", "oracle", "cli")]
    verdict_classes = {
        (mod.__name__, name)
        for mod in modules
        for name, obj in vars(mod).items()
        if inspect.isclass(obj) and obj.__module__ == mod.__name__
        and name.endswith("Verdict")
    }
    assert verdict_classes == {("itensor.classify", "Verdict")}
    assert not hasattr(itensor, "IntervalVerdict")
    assert not hasattr(itensor, "OracleVerdict")


def test_one_report_writer(family_not_b):
    assert interval_classify.interval_verdict_report is verdict_report
    assert classify.verdict_report is verdict_report
    point = verdict_report(check_b(family_not_b.upper), "b")
    assert "conditions" not in point
    rep = verdict_report(check_interval_b(family_not_b, "theorem"), "interval-b")
    assert isinstance(rep["conditions"], LedgerDicts)
    assert rep["witness"] == {"row": 1, "condition": "b", "lhs": 4.0,
                              "rhs": 6.0, "index": [2, 2]}


def test_every_verdict_hashes(family_not_b, family_double_b, monkeypatch):
    v = oracle_interval_b(family_not_b)
    assert v.failing_tensor is not None
    assert hash(v) == hash(oracle_interval_b(family_not_b))
    hashes = {label: hash(v) for label, v in producers(family_not_b, family_double_b)}
    assert len(hashes) > 1
    # The ledger is left out of the hash, so hashing builds no record.
    big = check_interval_double_b(random_interval_tensor(GeneratorSpec(3, 8, seed=1)))
    monkeypatch.setattr(interval_classify.Ledger, "__iter__", None)
    monkeypatch.setattr(interval_classify.Ledger, "__hash__", None)
    assert hash(big) == hash(check_interval_double_b(
        random_interval_tensor(GeneratorSpec(3, 8, seed=1))))

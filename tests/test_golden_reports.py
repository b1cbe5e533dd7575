"""Pinned CLI reports.

The SHA-256 of stdout for three report-producing invocations on five
interval files, recorded before the condition ledger became columnar.  Any
change to a report byte (a float's digits, the sign of a zero, a key, the
order of records) changes a hash here.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from itensor import make_interval, make_tensor
from itensor.cli import dumps_report, main
from itensor.interval import interval_to_json
from itensor.oracle import boundary_interval

DATA = Path(__file__).resolve().parent.parent / "data"

VERBS = {
    "double_b": ["check", "--class", "interval-double-b"],
    "b_theorem": ["check", "--class", "interval-b", "--method", "theorem"],
    "classify": ["classify"],
}


def _off_grid_signed_zero():
    """Order-3 dim-3 family with decimal (off the 1/16 grid) entries and
    signed zeros: -0.0 lower off-diagonals, a -0.0 lower diagonal in row 3,
    and an all -0.0 lower row tail, so products and sums meet both zeros."""
    n, m = 3, 3
    r = n ** (m - 1)
    lower, upper = [], []
    for i in range(n):
        for f in range(r):
            k = i * r + f
            if f == i * (n + 1):
                lo = -0.0 if i == 2 else 1.3 + 0.1 * i
                up = lo + 0.7
            elif i == 1:
                lo, up = -0.0, 0.1 * (f % 3)
            else:
                lo = ((k * 7) % 11) / 10.0 - 0.3
                if k % 5 == 0:
                    lo = -0.0
                up = lo + ((k * 3) % 7) / 20.0
            lower.append(lo)
            upper.append(up)
    return make_interval(make_tensor(m, n, lower), make_tensor(m, n, upper))


def _input(name: str, tmp_path: Path) -> str:
    path = tmp_path / f"{name}.json"
    if name.startswith("example_"):
        shutil.copy(DATA / f"{name}.json", path)
    elif name == "boundary_3_3":
        path.write_text(dumps_report(interval_to_json(boundary_interval(3, 3))))
    elif name == "generated_3_6_seed1":
        assert main(["generate", "--m", "3", "--n", "6", "--seed", "1",
                     "--output", str(path)]) == 0
    else:
        # json.dumps keeps "-0.0"; the report writer's "-0" would load as +0.
        path.write_text(json.dumps(interval_to_json(_off_grid_signed_zero())))
    return str(path)


# (input, verb) -> (exit code, SHA-256 of stdout)
GOLDEN = {
    ("example_interval_b_reject", "double_b"): (
        1, "8a835375750e545c4e5a3fd528f1ba27180eb78a0c19564113aee401ddf354ea"),
    ("example_interval_b_reject", "b_theorem"): (
        1, "0cc3adfcf502307d1354ad603a796ba365b5f302d6a61bc12df18f8fdfae5c63"),
    ("example_interval_b_reject", "classify"): (
        1, "3ab176dbd7430d963c766a699a36292975ce39fc38956f18b55f183d3fbd73bf"),
    ("example_interval_double_b", "double_b"): (
        0, "3ec2d225a95b06598b908e98dd24534afa912eee9162d4bc5f7514f5c62d2c5c"),
    ("example_interval_double_b", "b_theorem"): (
        0, "a309c148390b694291612b31666374f76e8b167de253a069de6f7d675b2dabb1"),
    ("example_interval_double_b", "classify"): (
        0, "39a7646fd38077cb5c4c96a03e6260b23427dbf3b9ac34636736c0a0b0b8e081"),
    ("boundary_3_3", "double_b"): (
        0, "18ba3e44e424c77c6b109f719ab4fd779940aa65f7fe90423b7c1a60838a98cb"),
    ("boundary_3_3", "b_theorem"): (
        1, "1da1013a7f2605929c7843a9760ac3b1b710100b389f2465f7cade0b9ac30961"),
    ("boundary_3_3", "classify"): (
        0, "8caaafd778de5dfb7bb9c1e81edf4181ade2da124ae004eca8025e661ff7effb"),
    ("generated_3_6_seed1", "double_b"): (
        1, "39d4f0e443d934fcf77448ce0e269ca7afc0060dcba7c9a09426eb873e8b766e"),
    ("generated_3_6_seed1", "b_theorem"): (
        1, "40dde99e4fbdff0d18fd8cfa74b1fba272b6bb225c7649a3eef5879273c0c22f"),
    ("generated_3_6_seed1", "classify"): (
        1, "5e960e97547e348dc5ce52db909d083cbf3b02a01310bd51ab5de86a1e930b43"),
    ("off_grid_signed_zero", "double_b"): (
        1, "8bd51dc394e63538bee58db5c1793dd3c00fc721f21b5e196b543eca3c024be5"),
    ("off_grid_signed_zero", "b_theorem"): (
        1, "bef8e0083e5f6d7e466be2fc536e39cace7c861b18f7d0b65c8fb6a46b94c1c5"),
    ("off_grid_signed_zero", "classify"): (
        1, "b7a9d05cab3c7dba32239d2eb4cd28608c47fb801313dbbe38c6762f521273e5"),
}


@pytest.mark.parametrize("name,verb", sorted(GOLDEN))
def test_report_bytes_pinned(name, verb, tmp_path, capsys):
    path = _input(name, tmp_path)
    capsys.readouterr()
    code = main(VERBS[verb] + [path])
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest) == GOLDEN[(name, verb)]

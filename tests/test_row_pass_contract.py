"""Every point criterion reads its row quantities from ``classify._rows``:
no code of ``classify.py`` outside that generator calls ``gamma_plus``,
``diag_tail_flat`` or ``offdiag_tail_flats``."""

import ast
from pathlib import Path

CLASSIFY = Path(__file__).resolve().parents[1] / "src" / "itensor" / "classify.py"
ROW_HELPERS = {"gamma_plus", "diag_tail_flat", "offdiag_tail_flats"}


def calls_outside_rows(source: str) -> list[int]:
    """Lines calling a row helper, by name or attribute, outside ``_rows``."""
    tree = ast.parse(source)
    inside = {id(node) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == "_rows"
              for node in ast.walk(f)}
    lines = []
    for node in ast.walk(tree):
        if id(node) in inside or not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ROW_HELPERS:
            lines.append(node.lineno)
    return sorted(lines)


def test_only_rows_calls_the_row_helpers():
    assert calls_outside_rows(CLASSIFY.read_text()) == []


def test_the_contract_sees_each_form():
    source = """
def _rows(A):
    yield gamma_plus(A, 0), diag_tail_flat(0, 2, 2), offdiag_tail_flats(A, 0)

def check(A):
    g = gamma_plus(A, 0)
    d = tensor.diag_tail_flat(0, 2, 2)
    return [f for f in offdiag_tail_flats(A, 0)], g, d
"""
    assert calls_outside_rows(source) == [6, 7, 8]

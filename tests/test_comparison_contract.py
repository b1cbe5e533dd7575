"""Every criterion inequality of the library is ``classify.beats``: no
source outside that function subtracts ``tol`` or compares with it."""

import ast
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "itensor"


def _is_tol(node):
    return isinstance(node, ast.Name) and node.id == "tol"


def own_comparisons(source: str) -> list[int]:
    """Lines holding ``- tol``, ``-= tol`` or a comparison with ``tol``,
    outside the function ``beats``."""
    tree = ast.parse(source)
    inside = {id(node) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == "beats"
              for node in ast.walk(f)}
    lines = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            hit = isinstance(node.op, ast.Sub) and _is_tol(
                node.right if isinstance(node, ast.BinOp) else node.value)
        elif isinstance(node, ast.Compare):
            hit = any(map(_is_tol, [node.left, *node.comparators]))
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_only_beats_compares_with_tol():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SOURCES.glob("*.py"))
        for line in own_comparisons(path.read_text())
    ]
    assert not found, found


def test_the_contract_sees_each_form():
    source = """
def beats(lhs, rhs, tol=0.0, strict=True):
    return lhs > rhs - tol

def f(x, y, tol):
    a = x > y - tol
    b = abs(x - y) <= tol
    y -= tol
    return beats(x, y, tol) and not beats(0.0, x, tol, strict=False)
"""
    assert own_comparisons(source) == [6, 7, 8]

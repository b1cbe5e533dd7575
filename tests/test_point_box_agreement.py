"""Every point criterion equals its interval form on the degenerate box.

On ``degenerate_interval(A)`` the interval criteria decide the single
member A, so each point status must equal its interval form's.  Entries lie
on the 1/16 grid, where every side of every inequality is exact, and a row's
diagonal may sit exactly on its slack equality, the critical-row boundary.
"""

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from itensor import (
    check_b,
    check_b_circulant,
    check_double_b,
    check_interval_b,
    check_interval_circulant,
    check_interval_double_b,
    check_z,
    classify_double_b_dichotomy,
    classify_interval_double_b_dichotomy,
    degenerate_interval,
    is_interval_z,
    make_tensor,
)
from itensor.classify import B_METHODS, DichotomyAnomaly
from itensor.interval_classify import INTERVAL_B_METHODS
from itensor.tensor import circulant_from_first_row, diag_tail_flat

SHAPES = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3))


def _row(draw, i1, m, n):
    """One row on the 1/16 grid: off-diagonal entries in [-2, 2] and a
    diagonal either free in [-2, r + 2] or on the row's slack equality
    diag - gamma_plus == summed gaps to gamma_plus."""
    r = n ** (m - 1)
    row = [k / 16 for k in draw(st.lists(st.integers(-32, 32), min_size=r,
                                         max_size=r))]
    d = diag_tail_flat(i1, m, n)
    off = [x for f, x in enumerate(row) if f != d]
    g = max([0.0, *off])
    if draw(st.booleans()):
        row[d] = g + sum(g - x for x in off)
    else:
        row[d] = draw(st.integers(-32, 16 * (r + 2))) / 16
    return row


@st.composite
def grid_tensors(draw):
    m, n = draw(st.sampled_from(SHAPES))
    rows = [_row(draw, i1, m, n) for i1 in range(n)]
    return make_tensor(m, n, [x for row in rows for x in row])


@st.composite
def grid_circulants(draw):
    m, n = draw(st.sampled_from(SHAPES))
    return circulant_from_first_row(_row(draw, 0, m, n), m, n)


def _dichotomy(classify, A):
    try:
        d = classify(A)
    except DichotomyAnomaly as exc:
        return "anomaly", exc.rows
    return {"interval_b": "is_b"}.get(d.kind, d.kind), d.critical_row


@settings(max_examples=300, deadline=None)
@given(grid_tensors())
def test_point_statuses_equal_their_degenerate_forms(A):
    AI = degenerate_interval(A)
    b = {check_b(A, method).status for method in B_METHODS}
    assert len(b) == 1
    for method in INTERVAL_B_METHODS:
        assert check_interval_b(AI, method).status in b
    assert check_double_b(A).status is check_interval_double_b(AI).status
    assert _dichotomy(classify_double_b_dichotomy, A) == _dichotomy(
        classify_interval_double_b_dichotomy, AI)
    assert check_z(A).holds() is is_interval_z(AI)


@settings(max_examples=150, deadline=None)
@given(grid_circulants())
def test_circulant_status_equals_its_degenerate_form(A):
    got = check_b_circulant(A).status
    assert got is check_interval_circulant(degenerate_interval(A)).status
    assert got is check_b(A).status


@pytest.mark.parametrize("kind", ("is_b", "critical_row", "not_double_b"))
def test_the_draws_reach_every_dichotomy_kind(kind):
    find(grid_tensors(),
         lambda A: _dichotomy(classify_double_b_dichotomy, A)[0] == kind,
         settings=settings(max_examples=2000, deadline=None))


@pytest.mark.parametrize("holds", (True, False))
def test_the_circulant_draws_hold_and_fail(holds):
    find(grid_circulants(), lambda A: check_b_circulant(A).holds() is holds,
         settings=settings(max_examples=2000, deadline=None))

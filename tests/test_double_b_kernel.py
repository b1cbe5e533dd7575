"""The array kernel of check_interval_double_b against the scalar loop.

``reference_double_b`` is the six-condition evaluator the library used
before its ledger became columnar, kept here verbatim in its arithmetic:
Python floats, sums accumulated from zero in ascending offset order, and
``max(0.0, x)``.  Every record of the kernel must match it bit for bit;
values are compared through ``float.hex`` so that a zero of the wrong sign
counts as a mismatch.
"""

import numpy as np
import pytest

from itensor import (
    GeneratorSpec,
    Status,
    boundary_interval,
    check_interval_double_b,
    make_interval,
    make_tensor,
    random_interval_tensor,
)
from itensor.classify import _ge, _gt
from itensor.tensor import diag_tail_flat, offdiag_tail_flats, tail1

TOLS = (0.0, 1e-9, 0.5)


def reference_double_b(AI, tol):
    """Records (condition, rows, lhs, rhs, passed, tail, pair_tail) in the
    order a, b1, b2, c1, c2, c3, with 1-based rows and tails."""
    n = AI.dim
    low = [AI.lower.row_list(i) for i in range(n)]
    up = [AI.upper.row_list(i) for i in range(n)]
    od = [offdiag_tail_flats(AI.lower, i) for i in range(n)]
    ld = [low[i][diag_tail_flat(i, AI.order, n)] for i in range(n)]
    recs = []

    def add(cond, rows, lhs, rhs, passed, tail=None, pair_tail=None):
        recs.append((
            cond,
            tuple(i + 1 for i in rows),
            lhs,
            rhs,
            passed,
            None if tail is None else tail1(AI, tail),
            None if pair_tail is None else tail1(AI, pair_tail),
        ))

    for i in range(n):
        best = None
        for t in od[i]:
            if best is None or up[i][t] > up[i][best]:
                best = t
        rhs = max(0.0, up[i][best]) if best is not None else 0.0
        add("a", (i,), ld[i], rhs, _gt(ld[i], rhs, tol))

    gap = [dict() for _ in range(n)]
    slack = [dict() for _ in range(n)]
    for i in range(n):
        for j in od[i]:
            gap[i][j] = ld[i] - up[i][j]
            s = 0.0
            for t in od[i]:
                if t != j:
                    s += up[i][j] - low[i][t]
            slack[i][j] = s
            rhs = max(0.0, s)
            add("b1", (i,), gap[i][j], rhs, _ge(gap[i][j], rhs, tol), j)

    negsum = [max(0.0, -sum(low[i][t] for t in od[i])) for i in range(n)]
    for i in range(n):
        add("b2", (i,), ld[i], negsum[i], _ge(ld[i], negsum[i], tol))

    for i in range(n):
        for j in range(i + 1, n):
            for ti in od[i]:
                for tj in od[j]:
                    lhs = gap[i][ti] * gap[j][tj]
                    rhs = max(0.0, slack[i][ti]) * max(0.0, slack[j][tj])
                    add("c1", (i, j), lhs, rhs, _gt(lhs, rhs, tol), ti, tj)

    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            for ti in od[i]:
                lhs = gap[i][ti] * ld[j]
                rhs = max(0.0, slack[i][ti]) * negsum[j]
                add("c2", (i, j), lhs, rhs, _gt(lhs, rhs, tol), ti)

    for i in range(n):
        for j in range(i + 1, n):
            lhs = ld[i] * ld[j]
            rhs = negsum[i] * negsum[j]
            add("c3", (i, j), lhs, rhs, _gt(lhs, rhs, tol))
    return recs


def _bits(rec):
    cond, rows, lhs, rhs, passed, tail, pair_tail = rec
    return (cond, rows, float(lhs).hex(), float(rhs).hex(), passed, tail, pair_tail)


def assert_matches_reference(AI, tol):
    v = check_interval_double_b(AI, tol=tol)
    ref = reference_double_b(AI, tol)
    got = [
        (r.condition, r.rows, r.lhs, r.rhs, r.passed, r.tail, r.pair_tail)
        for r in v.conditions
    ]
    assert len(got) == len(ref)
    for g, e in zip(got, ref):
        assert type(g[2]) is float and type(g[3]) is float and type(g[4]) is bool
        assert _bits(g) == _bits(e)
    # Indexed access builds the same records as iteration.
    for k in {0, len(ref) // 2, len(ref) - 1}:
        assert _bits(got[k]) == _bits(tuple(vars(v.conditions[k]).values()))

    first = next((e for e in ref if not e[4]), None)
    if first is None:
        assert v.status is Status.HOLDS and v.witness is None
    else:
        w = v.witness
        assert v.status is Status.FAILS
        cond, rows, lhs, rhs, _, tail, pair_tail = first
        assert (w.condition, w.row, w.tail, w.pair_tail) == (cond, rows[0], tail, pair_tail)
        assert w.pair_row == (rows[1] if len(rows) > 1 else None)
        assert (w.lhs.hex(), w.rhs.hex()) == (lhs.hex(), rhs.hex())


def _off_grid(order, dim, seed, signed_zeros=False):
    """Uniform bounds off the 1/16 grid; with ``signed_zeros`` some lower
    off-diagonals are -0.0 and some upper bounds equal their lower bound."""
    rng = np.random.default_rng(seed)
    size = dim**order
    r = dim ** (order - 1)
    lower = rng.uniform(-1.0, 1.0, size)
    for i in range(dim):
        lower[i * r + diag_tail_flat(i, order, dim)] = rng.uniform(0.5, 3.0 * r)
    upper = lower + rng.uniform(0.0, 0.5, size)
    if signed_zeros:
        zero = rng.random(size) < 0.4
        zero[:r] = np.arange(r) != 0  # row 0's lower off-diagonals are all -0.0
        lower[zero] = -0.0
        upper = np.maximum(upper, lower)
        upper[zero & (rng.random(size) < 0.5)] = -0.0
    return make_interval(make_tensor(order, dim, lower), make_tensor(order, dim, upper))


GRID_SHAPES = ((3, 2), (2, 3), (4, 2), (3, 4))


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("shape", GRID_SHAPES)
def test_grid_families(shape, tol):
    m, n = shape
    for seed in range(12):
        AI = random_interval_tensor(GeneratorSpec(m, n, seed=seed + 900))
        assert_matches_reference(AI, tol)
    # Diagonally strong families reach the c conditions with passing rows.
    for seed in range(4):
        spec = GeneratorSpec(m, n, diag_range=(4.0 * n**m, 6.0 * n**m),
                             offdiag_range=(-0.5, 0.5), radius_scale=0.25,
                             seed=seed + 950)
        assert_matches_reference(random_interval_tensor(spec), tol)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("shape", GRID_SHAPES + ((3, 3),))
def test_off_grid_families(shape, tol):
    m, n = shape
    for seed in range(6):
        assert_matches_reference(_off_grid(m, n, seed), tol)
        assert_matches_reference(_off_grid(m, n, seed + 50, signed_zeros=True), tol)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("shape", ((3, 2), (2, 3), (3, 3), (4, 2)))
def test_boundary_families(shape, tol):
    # Zero lower off-diagonals: the b2 sums are -(+0.0) before the clamp.
    assert_matches_reference(boundary_interval(*shape), tol)
    assert_matches_reference(boundary_interval(*shape, scale=0.1), tol)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("order", (2, 3, 4))
def test_dim_one_family(order, tol):
    for lo in (2.0, -0.0, -1.5):
        AI = make_interval(make_tensor(order, 1, [lo]), make_tensor(order, 1, [lo + 1.0]))
        assert_matches_reference(AI, tol)


def test_kernel_reaches_every_condition():
    """The sweep above is only meaningful if failures land in every block."""
    failing = set()
    for (m, n) in GRID_SHAPES:
        for seed in range(6):
            for AI in (_off_grid(m, n, seed), _off_grid(m, n, seed + 50, True)):
                for rec in check_interval_double_b(AI).conditions:
                    if not rec.passed:
                        failing.add(rec.condition)
    assert failing == {"a", "b1", "b2", "c1", "c2", "c3"}

"""The array row kernel of the interval criteria against the scalar loops.

The reference criteria below are the per-position loops the library used
before every interval criterion moved onto one array row kernel, kept here
in their arithmetic: Python floats, sums accumulated from zero in ascending
offset order, ``max(0.0, x)`` and first-maximum scans.  Every record of a
converted criterion must match its reference bit for bit and in type
(values through ``float.hex``, so a zero of the wrong sign counts as a
mismatch); so must the status, the witness, the dichotomy outcome and the
row list of a ``DichotomyAnomaly``.  ``rowmax`` records come in the
double-B order a, b1, b2, c1, c2, c3, so they are compared sorted by
(condition, rows).
"""

import numpy as np
import pytest

from itensor import (
    DichotomyAnomaly,
    GeneratorSpec,
    Status,
    Witness,
    boundary_interval,
    check_interval_b,
    check_interval_b_zfast,
    check_interval_circulant,
    check_interval_double_b,
    check_interval_double_b_dominance,
    check_interval_double_b_hat_sufficient,
    classify_interval_double_b_dichotomy,
    degenerate_interval,
    interval_b_necessary,
    interval_double_b_necessary,
    make_interval,
    make_tensor,
    random_interval_tensor,
)
from itensor.classify import check_double_b
from itensor.interval import extreme_hat, is_interval_z
from itensor.interval_classify import INTERVAL_B_METHODS
from itensor.tensor import (
    circulant_from_first_row,
    diag_tail_flat,
    is_circulant,
    offdiag_tail_flats,
    ordered_sum,
    tail1,
)

TOLS = (0.0, 1e-9, 0.5)


# The comparisons, stated here rather than imported from the library.
def _gt(lhs, rhs, tol):
    return lhs > rhs - tol


def _ge(lhs, rhs, tol):
    return lhs >= rhs - tol
SHAPES = ((3, 2), (2, 3), (4, 2), (3, 3), (2, 4), (4, 3), (3, 8))


class _Rows:
    """Per-row endpoint quantities, as the scalar criteria read them."""

    def __init__(self, AI):
        n = AI.dim
        self.lrow = [AI.lower.row_list(i) for i in range(n)]
        self.urow = [AI.upper.row_list(i) for i in range(n)]
        self.od = [offdiag_tail_flats(AI.lower, i) for i in range(n)]
        self.ldiag = [self.lrow[i][diag_tail_flat(i, AI.order, n)] for i in range(n)]
        self.neg_lsum_od = [
            -ordered_sum(self.lrow[i][t] for t in self.od[i]) if self.od[i] else 0.0
            for i in range(n)
        ]

    def lrow_total(self, i1):
        return ordered_sum(self.lrow[i1])

    def excl(self, i1, j):
        s = 0.0
        for t in self.od[i1]:
            if t != j:
                s += self.urow[i1][j] - self.lrow[i1][t]
        return s

    def argmax_upper(self, i1):
        best = None
        for f in self.od[i1]:
            if best is None or self.urow[i1][f] > self.urow[i1][best]:
                best = f
        return best


class _Records(list):
    """Records (condition, rows, lhs, rhs, passed, tail, pair_tail), 1-based."""

    def __init__(self, AI):
        super().__init__()
        self.AI = AI

    def add(self, cond, row, lhs, rhs, passed, tail=None, pair_row=None,
            pair_tail=None):
        rows = (row + 1,) if pair_row is None else (row + 1, pair_row + 1)
        self.append((
            cond, rows, lhs, rhs, passed,
            None if tail is None else tail1(self.AI, tail),
            None if pair_tail is None else tail1(self.AI, pair_tail),
        ))


def ref_interval_b(AI, method, tol):
    rows = _Rows(AI)
    n, r = AI.dim, AI.row_len
    led = _Records(AI)
    if method == "theorem":
        for i1 in range(n):
            s = rows.lrow_total(i1)
            led.add("a", i1, s, 0.0, _gt(s, 0.0, tol))
        for i1 in range(n):
            lrow, urow = rows.lrow[i1], rows.urow[i1]
            for j in rows.od[i1]:
                lhs = 0.0
                for t in range(r):
                    if t != j:
                        lhs += lrow[t]
                rhs = (r - 1) * urow[j]
                led.add("b", i1, lhs, rhs, _gt(lhs, rhs, tol), j)
    elif method == "compact":
        for i1 in range(n):
            s = rows.lrow_total(i1)
            if not rows.od[i1]:
                led.add("a", i1, s, 0.0, _gt(s, 0.0, tol))
                continue
            for j in rows.od[i1]:
                rhs = max(0.0, (r - 1) * rows.urow[i1][j] + rows.lrow[i1][j])
                led.add("b", i1, s, rhs, _gt(s, rhs, tol), j)
    elif method == "slack":
        for i1 in range(n):
            s = rows.lrow_total(i1)
            led.add("a", i1, s, 0.0, _gt(s, 0.0, tol))
        for i1 in range(n):
            lrow, urow = rows.lrow[i1], rows.urow[i1]
            for j in rows.od[i1]:
                lhs = rows.ldiag[i1] - lrow[j]
                rhs = 0.0
                for t in rows.od[i1]:
                    rhs += urow[j] - lrow[t]
                led.add("b", i1, lhs, rhs, _gt(lhs, rhs, tol), j)
    else:
        for i1 in range(n):
            s = rows.lrow_total(i1)
            led.add("a", i1, s, 0.0, _gt(s, 0.0, tol))
        for i1 in range(n):
            for j in rows.od[i1]:
                lhs = rows.ldiag[i1] - rows.urow[i1][j]
                rhs = rows.excl(i1, j)
                led.add("b", i1, lhs, rhs, _gt(lhs, rhs, tol), j)
    return led


def ref_zfast(AI, tol):
    rows = _Rows(AI)
    led = _Records(AI)
    for i1 in range(AI.dim):
        s = rows.lrow_total(i1)
        led.add("a", i1, s, 0.0, _gt(s, 0.0, tol))
    return led


def ref_b_necessary(AI, tol):
    rows = _Rows(AI)
    led = _Records(AI)
    for i1 in range(AI.dim):
        lrow = rows.lrow[i1]
        neg = 0.0
        for t in rows.od[i1]:
            if lrow[t] < 0.0:
                neg += -lrow[t]
        led.add("a", i1, rows.ldiag[i1], neg, _gt(rows.ldiag[i1], neg, tol))
    for i1 in range(AI.dim):
        for t in rows.od[i1]:
            rhs = max(abs(rows.urow[i1][t]), abs(rows.lrow[i1][t]))
            led.add("b", i1, rows.ldiag[i1], rhs, _gt(rows.ldiag[i1], rhs, tol), t)
    for i1 in range(AI.dim):
        k = rows.argmax_upper(i1)
        m = None if k is None else rows.urow[i1][k]
        rhs = max(0.0, m) if m is not None else 0.0
        led.add("r", i1, rows.ldiag[i1], rhs, _gt(rows.ldiag[i1], rhs, tol))
    return led


def ref_rowmax(AI, tol):
    rows = _Rows(AI)
    n = AI.dim
    led = _Records(AI)
    arg = [rows.argmax_upper(i1) for i1 in range(n)]
    maxu = [None if arg[i1] is None else rows.urow[i1][arg[i1]] for i1 in range(n)]
    positive = [m is not None and m > 0.0 for m in maxu]
    for i1 in range(n):
        rhs = max(0.0, maxu[i1]) if maxu[i1] is not None else 0.0
        led.add("a", i1, rows.ldiag[i1], rhs, _gt(rows.ldiag[i1], rhs, tol))
    for i1 in range(n):
        if positive[i1]:
            lhs = rows.ldiag[i1] - maxu[i1]
            rhs = rows.excl(i1, arg[i1])
            led.add("b1", i1, lhs, rhs, _ge(lhs, rhs, tol), arg[i1])
        else:
            rhs = rows.neg_lsum_od[i1]
            led.add("b2", i1, rows.ldiag[i1], rhs, _ge(rows.ldiag[i1], rhs, tol))
    for i1 in range(n):
        for j1 in range(i1 + 1, n):
            if positive[i1] and positive[j1]:
                lhs = (rows.ldiag[i1] - maxu[i1]) * (rows.ldiag[j1] - maxu[j1])
                rhs = rows.excl(i1, arg[i1]) * rows.excl(j1, arg[j1])
                led.add("c1", i1, lhs, rhs, _gt(lhs, rhs, tol), arg[i1], j1, arg[j1])
            elif not positive[i1] and not positive[j1]:
                lhs = rows.ldiag[i1] * rows.ldiag[j1]
                rhs = rows.neg_lsum_od[i1] * rows.neg_lsum_od[j1]
                led.add("c3", i1, lhs, rhs, _gt(lhs, rhs, tol), pair_row=j1)
    for i1 in range(n):
        for j1 in range(n):
            if j1 == i1 or not positive[i1] or positive[j1]:
                continue
            lhs = (rows.ldiag[i1] - maxu[i1]) * rows.ldiag[j1]
            rhs = rows.excl(i1, arg[i1]) * rows.neg_lsum_od[j1]
            led.add("c2", i1, lhs, rhs, _gt(lhs, rhs, tol), arg[i1], j1)
    return led


def ref_circulant(AI, tol):
    rows = _Rows(AI)
    led = _Records(AI)
    rhs = rows.neg_lsum_od[0]
    led.add("c1", 0, rows.ldiag[0], rhs, _gt(rows.ldiag[0], rhs, tol))
    for j in rows.od[0]:
        lhs = rows.ldiag[0] - rows.urow[0][j]
        rhs = rows.excl(0, j)
        led.add("c2", 0, lhs, rhs, _gt(lhs, rhs, tol), j)
    return led


def ref_dichotomy(AI, tol):
    """(kind, critical row, failing mode, failing tail), or the row list of
    the anomaly."""
    if not check_interval_double_b(AI, tol=tol).holds():
        return ("not_double_b", None, None, None)
    rows = _Rows(AI)
    failing = []
    for i1 in range(AI.dim):
        s = rows.lrow_total(i1)
        if not _gt(s, 0.0, tol):
            failing.append((i1, "nonpositive_row_sum", None))
            continue
        for j in rows.od[i1]:
            lhs = rows.ldiag[i1] - rows.urow[i1][j]
            if not _gt(lhs, rows.excl(i1, j), tol):
                failing.append((i1, "slack_equality", j))
                break
    if not failing:
        return ("interval_b", None, None, None)
    if len(failing) > 1:
        return ("anomaly", [f[0] + 1 for f in failing])
    i1, mode, j = failing[0]
    return ("critical_row", i1 + 1, mode, None if j is None else tail1(AI, j))


def ref_dominance(AI, tol):
    """(status, witness) of the dominance test, up to its extremes sweep,
    which the kernel does not touch."""
    method = "double_b_dominance"
    if AI.dim < 3:
        return Status.INCONCLUSIVE, None
    rows = _Rows(AI)
    for i1 in range(AI.dim):
        lrow, urow = rows.lrow[i1], rows.urow[i1]
        found = None
        for k in rows.od[i1]:
            if all(urow[t] <= lrow[k] for t in rows.od[i1] if t != k):
                found = k
                break
        if found is None:
            best = max(rows.od[i1], key=lambda t: lrow[t])
            block = max(urow[t] for t in rows.od[i1] if t != best)
            return Status.INCONCLUSIVE, Witness(
                i1 + 1, "hypothesis", lrow[best], block, tail1(AI, best))
    report = interval_double_b_necessary(AI, "extremes", tol=tol)
    if report.passed:
        return Status.HOLDS, None
    for _, v in report.member_verdicts:
        if not v.holds():
            return Status.FAILS, v.witness
    raise AssertionError(method)


def ref_hat(AI, tol):
    rows = _Rows(AI)
    for i1 in range(AI.dim):
        if not rows.od[i1]:
            continue
        maxl = max(rows.lrow[i1][t] for t in rows.od[i1])
        if not _ge(maxl, 0.0, tol):
            return Status.INCONCLUSIVE, Witness(i1 + 1, "hypothesis", maxl, 0.0)
    v = check_double_b(extreme_hat(AI), tol=tol)
    if v.holds():
        return Status.HOLDS, None
    return Status.INCONCLUSIVE, v.witness


def _bits(rec):
    cond, rows, lhs, rhs, passed, tail, pair_tail = rec
    types = (type(lhs), type(rhs), type(passed))
    types += tuple(type(c) for c in rows + (tail or ()) + (pair_tail or ()))
    return (cond, rows, lhs.hex(), rhs.hex(), passed, tail, pair_tail, types)


def _witness_bits(w):
    if w is None:
        return None
    return (w.row, w.condition, w.lhs.hex(), w.rhs.hex(), type(w.lhs),
            type(w.rhs), w.tail, w.pair_row, w.pair_tail)


def _got(ledger):
    return [
        _bits((r.condition, r.rows, r.lhs, r.rhs, r.passed, r.tail, r.pair_tail))
        for r in ledger
    ]


def assert_ledger(v, ref, sort=False):
    """The records of ``v`` equal ``ref``; a verdict's status and witness
    are those of the first failing reference record."""
    ledger = getattr(v, "conditions", None) or v.records
    got, want = _got(ledger), [_bits(rec) for rec in ref]
    if sort:
        got.sort(key=lambda b: (b[0], b[1]))
        want.sort(key=lambda b: (b[0], b[1]))
    assert got == want
    first = next((rec for rec in ref if not rec[4]), None)
    if hasattr(v, "passed"):
        assert v.passed is (first is None)
        return
    if first is None:
        assert (v.status, v.witness) == (Status.HOLDS, None)
        return
    cond, rows, lhs, rhs, _, tail, pair_tail = first
    pair_row = rows[1] if len(rows) > 1 else None
    assert v.status is Status.FAILS
    assert _witness_bits(v.witness) == _witness_bits(
        Witness(rows[0], cond, lhs, rhs, tail, pair_row, pair_tail))


def assert_matches_reference(AI, tol):
    for method in INTERVAL_B_METHODS:
        assert_ledger(check_interval_b(AI, method, tol=tol),
                      ref_interval_b(AI, method, tol))
    assert_ledger(interval_b_necessary(AI, tol=tol), ref_b_necessary(AI, tol))
    assert_ledger(interval_double_b_necessary(AI, "rowmax", tol=tol),
                  ref_rowmax(AI, tol), sort=True)
    if is_interval_z(AI):
        assert_ledger(check_interval_b_zfast(AI, tol=tol), ref_zfast(AI, tol))
    if is_circulant(AI.lower) and is_circulant(AI.upper):
        assert_ledger(check_interval_circulant(AI, tol=tol), ref_circulant(AI, tol))
    try:
        d = classify_interval_double_b_dichotomy(AI, tol=tol)
        got = (d.kind, d.critical_row, d.failing_mode, d.failing_tail)
    except DichotomyAnomaly as exc:
        got = ("anomaly", exc.rows)
    assert got == ref_dichotomy(AI, tol)
    for check, ref in ((check_interval_double_b_dominance, ref_dominance),
                       (check_interval_double_b_hat_sufficient, ref_hat)):
        v = check(AI, tol=tol)
        status, witness = ref(AI, tol)
        assert (v.status, _witness_bits(v.witness)) == (status, _witness_bits(witness))


def _off_grid(order, dim, seed, signed_zeros=False):
    """Uniform bounds off the 1/16 grid; with ``signed_zeros`` some bounds
    are -0.0 and some upper bounds equal their lower bound."""
    rng = np.random.default_rng(seed)
    size, r = dim**order, dim ** (order - 1)
    lower = rng.uniform(-1.0, 1.0, size)
    for i in range(dim):
        lower[i * r + diag_tail_flat(i, order, dim)] = rng.uniform(0.5, 3.0 * r)
    upper = lower + rng.uniform(0.0, 0.5, size)
    if signed_zeros:
        zero = rng.random(size) < 0.4
        lower[zero] = -0.0
        upper = np.maximum(upper, lower)
        upper[zero & (rng.random(size) < 0.5)] = -0.0
    return make_interval(make_tensor(order, dim, lower), make_tensor(order, dim, upper))


def _wild(order, dim, seed):
    """Magnitudes from 1e-300 to 1e300 and diagonals near the top of the
    double range: some sums and products overflow."""
    rng = np.random.default_rng(seed)
    size, r = dim**order, dim ** (order - 1)
    lower = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300, 300, size)
    for i in range(dim):
        lower[i * r + diag_tail_flat(i, order, dim)] = rng.uniform(1e307, 1e308)
    upper = lower + np.abs(lower) * rng.uniform(0.0, 0.5, size)
    return make_interval(make_tensor(order, dim, lower), make_tensor(order, dim, upper))


def _circulant_off_grid(order, dim, seed):
    rng = np.random.default_rng(seed)
    r = dim ** (order - 1)
    lower = rng.uniform(-1.0, 1.0, r)
    lower[0] = rng.uniform(0.5, 1.5 * r)
    lower[rng.random(r) < 0.3] = -0.0
    upper = lower + np.where(rng.random(r) < 0.3, 0.0, rng.uniform(0.0, 0.5, r))
    return make_interval(circulant_from_first_row(lower, order, dim),
                         circulant_from_first_row(upper, order, dim))


def families(order, dim):
    for s in ("general", "z", "circulant", "symmetric"):
        for seed in range(2):
            yield random_interval_tensor(GeneratorSpec(order, dim, structure=s,
                                                       seed=seed + 700))
    # Diagonally strong families pass the row conditions and reach the pairs.
    for s in ("general", "circulant"):
        yield random_interval_tensor(GeneratorSpec(
            order, dim, diag_range=(4.0 * dim**order, 6.0 * dim**order),
            offdiag_range=(-0.5, 0.5), radius_scale=0.25, structure=s, seed=710))
    yield _off_grid(order, dim, 720)
    yield _off_grid(order, dim, 721, signed_zeros=True)
    yield _circulant_off_grid(order, dim, 722)
    yield degenerate_interval(_off_grid(order, dim, 723).lower)
    yield boundary_interval(order, dim)
    yield boundary_interval(order, dim, scale=0.1)
    yield _wild(order, dim, 724)
    yield _wild(order, dim, 725)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("shape", SHAPES)
def test_criteria_match_scalar_loops(shape, tol):
    for AI in families(*shape):
        assert_matches_reference(AI, tol)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("order", (2, 3, 4))
def test_dim_one_matches_scalar_loops(order, tol):
    for lo in (2.0, -0.0, -1.5):
        AI = make_interval(make_tensor(order, 1, [lo]),
                           make_tensor(order, 1, [lo + 1.0]))
        assert_matches_reference(AI, tol)


def test_reference_sweep_reaches_every_branch():
    """The sweep is only meaningful if it meets every outcome it compares."""
    kinds, rowmax, hat, dominance = set(), set(), set(), set()
    for shape in SHAPES[:6]:
        for AI in families(*shape):
            kinds.add(classify_interval_double_b_dichotomy(AI).kind)
            for rec in interval_double_b_necessary(AI, "rowmax").records:
                rowmax.add((rec.condition, rec.passed))
            hat.add(check_interval_double_b_hat_sufficient(AI).status)
            dominance.add(check_interval_double_b_dominance(AI).status)
    assert kinds == {"not_double_b", "interval_b", "critical_row"}
    assert {c for c, _ in rowmax} == {"a", "b1", "b2", "c1", "c2", "c3"}
    assert (False in {p for _, p in rowmax}) and (True in {p for _, p in rowmax})
    assert hat == {Status.HOLDS, Status.INCONCLUSIVE}
    assert dominance == set(Status)


def test_criteria_restore_the_callers_floating_point_settings():
    # Every criterion enters its own errstate, also when one runs another
    # (the dichotomy runs the double-B test): overflow inside neither raises
    # nor warns, and the caller's settings hold afterwards.
    AI = _wild(3, 2, 724)
    with np.errstate(over="raise", invalid="warn"):
        before = np.geterr()
        assert not np.isfinite(check_interval_double_b(AI).conditions[-1].lhs)
        classify_interval_double_b_dichotomy(AI)
        interval_double_b_necessary(AI, "rowmax")
        assert np.geterr() == before
        with pytest.raises(FloatingPointError):
            np.float64(1e308) * 10.0


def test_kernel_is_read_only_and_follows_the_bounds():
    AI, other = _off_grid(3, 2, 730), _off_grid(3, 2, 731)
    ledger = check_interval_double_b(AI).conditions
    with pytest.raises(ValueError):
        ledger.blocks[0].lhs[0] = 0.0
    AI.lower, AI.upper = other.lower, other.upper
    assert check_interval_double_b(AI).conditions == check_interval_double_b(
        other).conditions

"""Ledger.summary() and Ledger equality against references built from the
records themselves.

``reference_summary`` groups ``list(ledger)`` record by record in plain
Python: one group per (condition id, rows) in order of first occurrence,
the tightest record the first one with the smallest lhs - rhs (a NaN
difference never wins; an all-NaN group reports its first record), and the
first failing record.  Values are compared through ``float.hex`` together
with their type, so a zero of the wrong sign or an int for a float counts
as a mismatch.
"""

import math

import numpy as np
import pytest

from itensor import (
    GeneratorSpec,
    boundary_interval,
    check_interval_b,
    check_interval_b_zfast,
    check_interval_circulant,
    check_interval_double_b,
    interval_b_necessary,
    interval_double_b_necessary,
    make_interval,
    make_tensor,
    random_interval_tensor,
)
from itensor import interval_classify
from itensor.cli import dumps_report
from itensor.interval import is_interval_z
from itensor.interval_classify import INTERVAL_B_METHODS, Ledger, LedgerBlock
from itensor.tensor import diag_tail_flat, is_circulant, row_layout

TOLS = (0.0, 1e-9, 0.5)


def _sides(rec):
    out = {"lhs": rec.lhs, "rhs": rec.rhs}
    if rec.tail is not None:
        out["tail"] = list(rec.tail)
    if rec.pair_tail is not None:
        out["pair_tail"] = list(rec.pair_tail)
    return out


def reference_summary(records):
    groups = {}
    for rec in records:
        d = rec.lhs - rec.rhs
        entry = groups.get((rec.condition, rec.rows))
        if entry is None:
            group = {"id": rec.condition, "rows": list(rec.rows), "evaluated": 0,
                     "failed": 0, "tightest": _sides(rec), "first_failure": None}
            entry = groups[(rec.condition, rec.rows)] = [group, d]
        elif not math.isnan(d) and (math.isnan(entry[1]) or d < entry[1]):
            entry[0]["tightest"], entry[1] = _sides(rec), d
        group = entry[0]
        group["evaluated"] += 1
        if not rec.passed:
            group["failed"] += 1
            if group["first_failure"] is None:
                group["first_failure"] = _sides(rec)
    return [group for group, _ in groups.values()]


def _canon(x):
    if isinstance(x, dict):
        return {k: _canon(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_canon(v) for v in x]
    if isinstance(x, float):
        return ("float", x.hex())
    return (type(x).__name__, x)


def _off_grid(order, dim, seed, signed_zeros=False, degenerate=False):
    """Uniform bounds off the 1/16 grid; with ``signed_zeros`` some bounds
    are -0.0, with ``degenerate`` the upper bound equals the lower."""
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
    if degenerate:
        upper = lower
    return make_interval(make_tensor(order, dim, lower), make_tensor(order, dim, upper))


def _wild(order, dim, seed):
    """Magnitudes from 1e-300 to 1e300 and diagonals near the top of the
    double range: some products overflow, so some differences are inf - inf
    (NaN) and some are infinite, next to finite ones in the same group."""
    rng = np.random.default_rng(seed)
    size, r = dim**order, dim ** (order - 1)
    lower = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300, 300, size)
    for i in range(dim):
        lower[i * r + diag_tail_flat(i, order, dim)] = rng.uniform(1e307, 1e308)
    upper = lower + np.abs(lower) * rng.uniform(0.0, 0.5, size)
    return make_interval(make_tensor(order, dim, lower), make_tensor(order, dim, upper))


def _dim_one():
    for order in (2, 3, 4):
        for lo in (2.0, -0.0, -1.5):
            yield make_interval(make_tensor(order, 1, [lo]),
                                make_tensor(order, 1, [lo + 1.0]))


SHAPES = ((3, 2), (2, 3), (4, 2), (3, 3))

FAMILIES = {
    "grid": lambda: [
        random_interval_tensor(GeneratorSpec(m, n, structure=s, seed=seed))
        for m, n in SHAPES
        for s in ("general", "z", "circulant", "symmetric")
        for seed in range(3)
    ] + [
        random_interval_tensor(GeneratorSpec(
            m, n, diag_range=(4.0 * n**m, 6.0 * n**m), offdiag_range=(-0.5, 0.5),
            radius_scale=0.25, seed=seed))
        for m, n in SHAPES
        for seed in range(3)
    ],
    "off_grid": lambda: [_off_grid(m, n, seed) for m, n in SHAPES for seed in range(3)],
    "signed_zero": lambda: [
        _off_grid(m, n, seed, signed_zeros=True) for m, n in SHAPES for seed in range(3)
    ],
    "boundary": lambda: [
        boundary_interval(m, n, scale) for m, n in SHAPES for scale in (1.0, 0.1)
    ],
    "dim_one": lambda: list(_dim_one()),
    "degenerate": lambda: [
        _off_grid(m, n, seed, degenerate=True) for m, n in SHAPES for seed in range(2)
    ] + [make_interval(AI.lower, AI.lower) for AI in (boundary_interval(3, 3),)],
    "overflow": lambda: [_wild(m, n, seed) for m, n in SHAPES for seed in range(3)],
}


def ledgers(AI, tol):
    """(label, ledger) for every criterion that keeps a ledger."""
    for meth in INTERVAL_B_METHODS:
        yield f"interval_b {meth}", check_interval_b(AI, meth, tol=tol).conditions
    yield "interval_double_b", check_interval_double_b(AI, tol=tol).conditions
    yield "interval_b_necessary", interval_b_necessary(AI, tol=tol).records
    yield "rowmax", interval_double_b_necessary(AI, "rowmax", tol=tol).records
    if is_interval_z(AI):
        yield "interval_b_zfast", check_interval_b_zfast(AI, tol=tol).conditions
    if is_circulant(AI.lower) and is_circulant(AI.upper):
        yield "interval_circulant", check_interval_circulant(AI, tol=tol).conditions


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("kind", sorted(FAMILIES))
@pytest.mark.parametrize("small_ledger", (0, 1 << 30), ids=("sort", "records"))
def test_summary_matches_reference(kind, tol, small_ledger, monkeypatch):
    # Every ledger through the numpy pass, then record by record.
    monkeypatch.setattr(interval_classify, "SMALL_LEDGER", small_ledger)
    for AI in FAMILIES[kind]():
        for label, ledger in ledgers(AI, tol):
            want = _canon(reference_summary(list(ledger)))
            got = ledger.summary()
            assert _canon(got) == want, label
            assert sum(g["evaluated"] for g in got) == len(ledger)
            # Groups cut into one block per record merge to the same summary.
            assert _canon(_reblocked(ledger, 1).summary()) == want, label


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_reaches_every_tie_rule():
    """The sweep above is only meaningful if it meets groups mixing NaN with
    other differences, infinite differences, ties, and failing groups."""
    seen = set()
    for kind in FAMILIES:
        for AI in FAMILIES[kind]():
            for _, ledger in ledgers(AI, 0.0):
                diffs = {}
                for rec in ledger:
                    diffs.setdefault((rec.condition, rec.rows), []).append(
                        (rec.lhs - rec.rhs, rec.passed))
                for ds in diffs.values():
                    nans = [d for d, _ in ds if math.isnan(d)]
                    real = [d for d, _ in ds if not math.isnan(d)]
                    if nans and real:
                        seen.add("nan_and_real")
                    if nans and not real:
                        seen.add("all_nan")
                    if any(math.isinf(d) for d in real):
                        seen.add("inf")
                    if real and real.count(min(real)) > 1:
                        seen.add("tie")
                    if any(not ok for _, ok in ds):
                        seen.add("failed")
    assert seen == {"nan_and_real", "all_nan", "inf", "tie", "failed"}


def _no_records(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a ConditionRecord was built")

    monkeypatch.setattr(interval_classify, "ConditionRecord", boom)


def test_summary_and_equality_build_no_record(monkeypatch):
    AI = random_interval_tensor(GeneratorSpec(3, 8, seed=1))
    v, w = check_interval_double_b(AI), check_interval_double_b(AI)
    _no_records(monkeypatch)
    assert len(v.conditions.summary()) == 8 * 3 + 28 * 2 + 56
    assert v.conditions == w.conditions
    assert v == w


def _lists(b):
    """Block ``b`` with every column as a list of Python scalars, one per
    record: a grid flattened, its index columns broadcast to it."""
    return LedgerBlock(b.condition, *map(b.column, LedgerBlock._fields[1:]))


def _reblocked(ledger, step):
    """The same records as Python-list blocks of at most ``step`` records."""
    blocks = []
    for b in map(_lists, ledger.blocks):
        size = len(b.lhs)
        cuts = [*range(0, size, step), size]
        for lo, hi in zip(cuts, cuts[1:]):
            blocks.append(LedgerBlock(
                b.condition, *(None if c is None else c[lo:hi] for c in b[1:])))
    return Ledger(blocks, ledger.order, ledger.dim)


def _flat(ledger, kind):
    """The same records with every column a flat Python list or numpy array
    of one value per record, as blocks are built by hand: no grid left."""
    make = list if kind == "lists" else np.array
    return Ledger([LedgerBlock(b.condition, *(None if c is None else make(c)
                                              for c in _lists(b)[1:]))
                   for b in ledger.blocks], ledger.order, ledger.dim)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("tol", (0.0, 0.5))
@pytest.mark.parametrize("shape", ((3, 3), (4, 3), (2, 5)), ids=str)
def test_grid_and_flat_blocks_agree(shape, tol):
    m, n = shape
    families = [random_interval_tensor(GeneratorSpec(m, n, seed=seed))
                for seed in range(3)]
    families += [boundary_interval(m, n), _off_grid(m, n, 1, signed_zeros=True)]
    grids = 0
    for AI in families:
        for label, grid in ledgers(AI, tol):
            grids += any(np.ndim(b.lhs) > 1 for b in grid.blocks)
            full = dumps_report({"conditions": grid.dicts()})
            summary = dumps_report({"conditions": grid.summary_view()})
            for flat in (_flat(grid, "lists"), _flat(grid, "arrays")):
                assert grid == flat and flat == grid, label
                assert _canon(flat.summary()) == _canon(grid.summary()), label
                assert flat.first_failure() == grid.first_failure(), label
                assert dumps_report({"conditions": flat.dicts()}) == full, label
                assert dumps_report({"conditions": flat.summary_view()}) == summary
    assert grids  # the criteria's own blocks are grids


def _with(ledger, k, name, value):
    """A copy whose k-th record has column ``name`` replaced."""
    blocks, seen = [], 0
    for b in map(_lists, ledger.blocks):
        size = len(b.lhs)
        if seen <= k < seen + size:
            col = list(getattr(b, name))
            col[k - seen] = value
            b = b._replace(**{name: col})
        seen += size
        blocks.append(b)
    return Ledger(blocks, ledger.order, ledger.dim)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_equality_matches_records(kind):
    pool = []
    for AI in FAMILIES[kind]()[:6]:
        pool += [ledger for _, ledger in ledgers(AI, 0.0)]
        pool.append(check_interval_double_b(AI, tol=0.5).conditions)
    for a in pool:
        for other in (_reblocked(a, 5), list(a), tuple(a)):
            assert (a == other) is (tuple(a) == tuple(other))
    for a in pool[:12]:
        for b in pool:
            assert (a == b) is (tuple(a) == tuple(b))


def test_equality_by_value():
    AI = _off_grid(3, 3, 7, signed_zeros=True)
    ledger = check_interval_double_b(AI).conditions
    zero = next(k for k, rec in enumerate(ledger) if rec.lhs == 0.0)
    flipped = _with(ledger, zero, "lhs", -ledger[zero].lhs)
    assert flipped == ledger and tuple(flipped) == tuple(ledger)
    for changed in (_with(ledger, 5, "lhs", ledger[5].lhs + 1.0),
                    _with(ledger, 5, "passed", not ledger[5].passed),
                    _with(ledger, 5, "tails", ledger.blocks[1].column("tails")[0])):
        assert changed != ledger and tuple(changed) != tuple(ledger)
    assert ledger != list(ledger)[:-1]
    assert Ledger((), 3, 3) == Ledger((), 3, 3) == ()


@pytest.mark.parametrize("tol", TOLS)
def test_dim_one_sides_are_floats(tol):
    """A dim-1 row has no off-diagonal position; its empty off-diagonal sum
    enters every ledger and witness as a float, not as the integer 0."""
    for AI in FAMILIES["dim_one"]():
        verdicts = [check_interval_b(AI, meth, tol=tol) for meth in INTERVAL_B_METHODS]
        verdicts += [check_interval_double_b(AI, tol=tol),
                     check_interval_b_zfast(AI, tol=tol),
                     check_interval_circulant(AI, tol=tol)]
        sides = [(w.lhs, w.rhs) for w in (v.witness for v in verdicts) if w]
        for label, ledger in ledgers(AI, tol):
            assert len(ledger) > 0, label
            sides += [(rec.lhs, rec.rhs) for rec in ledger]
        assert all(isinstance(x, float) for pair in sides for x in pair)


def _reordered(b, rng, whole_runs):
    """Block ``b`` as flat numpy-array columns (so no grid is known) with
    its records reordered: its runs of one (row, pair row) shuffled whole
    when ``whole_runs``, so rows run out of order in runs of one length,
    else record by record."""
    cols = [None if c is None else np.array(c) for c in _lists(b)[1:]]
    rows, pair_rows = cols[0], cols[4]
    size = len(rows)
    order = rng.permutation(size)
    if whole_runs:
        change = rows[1:] != rows[:-1]
        if pair_rows is not None:
            change |= pair_rows[1:] != pair_rows[:-1]
        runs = np.split(np.arange(size), np.flatnonzero(change) + 1)
        order = np.concatenate([runs[k] for k in rng.permutation(len(runs))])
    return LedgerBlock(b.condition, *(None if c is None else c[order] for c in cols))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("whole_runs", (True, False), ids=("runs", "records"))
@pytest.mark.parametrize("small_ledger", (0, 1 << 30), ids=("arrays", "records"))
@pytest.mark.parametrize("kind", ("grid", "boundary", "signed_zero", "overflow"))
def test_summary_merges_reordered_array_blocks(kind, whole_runs, small_ledger,
                                               monkeypatch):
    # Two ledgers of one family (at tolerances 0 and 0.5) as one ledger of
    # numpy-array blocks: every key of the second comes back in a later
    # block, with other sides and failures, and rows run out of order inside
    # each block.
    monkeypatch.setattr(interval_classify, "SMALL_LEDGER", small_ledger)
    reduced = []
    runs = interval_classify._runs
    monkeypatch.setattr(interval_classify, "_runs",
                        lambda b, shape: reduced.append(shape) or runs(b, shape))
    rng = np.random.default_rng(sorted(FAMILIES).index(kind))
    for AI in FAMILIES[kind]():
        exact = [ledger for _, ledger in ledgers(AI, 0.0)]
        loose = [ledger for _, ledger in ledgers(AI, 0.5)]
        for first, second in zip(exact, loose[1:] + loose):
            blocks = [_reordered(b, rng, whole_runs)
                      for b in (*first.blocks, *second.blocks)]
            ledger = Ledger(blocks, AI.order, AI.dim)
            want = _canon(reference_summary(list(ledger)))
            assert _canon(ledger.summary()) == want
    if small_ledger:
        assert not reduced  # every ledger went record by record


@pytest.mark.parametrize("rows", [
    [1, 1, 0, 0, 1, 1],  # one length, row 1 back later in the block
    [0, 0, 1, 1, 2],  # a shorter last run
    [0, 1, 1, 0],  # runs of mixed lengths
    [2, 2, 2],  # one run
    [0],
])
def test_summary_cuts_array_runs(rows, monkeypatch):
    monkeypatch.setattr(interval_classify, "SMALL_LEDGER", 0)
    size = len(rows)
    lhs = np.array([3.0, 1.0, 2.0, 1.0, 0.5, 4.0][:size])
    rhs = np.array([1.0, 1.5, 1.0, 0.0, 0.5, 1.0][:size])
    block = LedgerBlock("b", np.array(rows), lhs, rhs, lhs > rhs,
                        tails=np.arange(size) % 3)
    ledger = Ledger([block, block._replace(lhs=lhs - 1.0)], 3, 3)
    assert _canon(ledger.summary()) == _canon(reference_summary(list(ledger)))


def _by_record(b):
    """Block ``b`` as lists of one value per record, read through numpy's own
    broadcasting of each column to the grid of ``lhs``."""
    shape = b.lhs.shape
    return LedgerBlock(b.condition, *(
        None if c is None else np.broadcast_to(c, shape).ravel().tolist()
        for c in b[1:]))


@pytest.mark.parametrize("tol", (0.0, 0.5))
@pytest.mark.parametrize("small_ledger", (0, 1 << 30), ids=("groups", "records"))
def test_hand_built_grid_blocks_read_as_their_records(tol, small_ledger, monkeypatch):
    """The LedgerBlock contract: lhs, rhs and passed of one shape, records in
    row-major order, index columns that broadcast to the grid, whether or
    not the rows follow the first axis."""
    monkeypatch.setattr(interval_classify, "SMALL_LEDGER", small_ledger)
    order, dim = 3, 3
    od = row_layout(order, dim).od
    q = od.shape[1]
    iu, ju = np.triu_indices(dim, 1)
    rng = np.random.default_rng(5)

    def sides(shape):
        lhs, rhs = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0], (2, *shape))
        return lhs, rhs, lhs > rhs - tol

    rows = LedgerBlock("b1", np.arange(dim)[:, None], *sides((dim, q)), tails=od)
    pairs = LedgerBlock(
        "c1", iu[:, None, None], *sides((len(iu), q, q)),
        pair_rows=ju[:, None, None], tails=od[iu][:, :, None],
        pair_tails=od[ju][:, None, :])
    # Rows that change along the second axis: no group per first index.
    mixed = LedgerBlock("b1", np.arange(dim * q).reshape(dim, q) % dim,
                        *sides((dim, q)), tails=od)
    for blocks in ([rows, pairs], [pairs], [pairs, rows, rows._replace(lhs=-rows.lhs)],
                   [rows, mixed]):
        grid = Ledger(blocks, order, dim)
        flat = Ledger([_by_record(b) for b in blocks], order, dim)
        assert len(grid) == len(flat) == sum(b.lhs.size for b in blocks)
        assert grid == flat and flat == grid
        assert list(grid) == list(flat)
        assert grid.first_failure() == flat.first_failure() is not None
        want = _canon(reference_summary(list(flat)))
        assert _canon(grid.summary()) == _canon(flat.summary()) == want
        for form in ("dicts", "summary_view"):
            assert (dumps_report({"conditions": getattr(grid, form)()})
                    == dumps_report({"conditions": getattr(flat, form)()}))

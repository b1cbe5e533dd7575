"""Membership criteria for interval tensor families.

Every criterion here depends only on the two bound tensors, yet decides a
property quantified over the whole (uncountable) box.  The B-family test
comes in four equivalent shapes (theorem, compact, slack, pairwise); the
double-B test evaluates six named endpoint conditions (a, b1, b2, c1, c2,
c3); faster paths exist for families whose members are all Z tensors, for
circulant bounds, and for rows with a dominating off-diagonal position.
Necessary-condition reports and the sufficient hat criterion bracket the
exact tests from both sides, and the dichotomy separates the strict
interval-B case from the unique critical row.

Every criterion returns the package's one :class:`~itensor.classify.Verdict`,
whose ``conditions`` carry the full ledger of evaluated conditions so a
reported status can be recomputed from the inputs.  A :class:`Ledger` is a
sequence of :class:`ConditionRecord` stored as columns, one block per run
of a condition id, and builds each record only when it is read.  Every
criterion fills its blocks with numpy arrays from one row kernel, kept with
the family (``_RowKernel``); the alternative forms of a test are
restatements over its arrays.  ``verdict_report`` (also bound here as
``interval_verdict_report``) writes it as ``Ledger.dicts()``, a lazy
sequence of dicts, not a list; ``Ledger.summary()`` condenses it to one
group per condition id and row (or row pair), the form the CLI writes by
default (as ``Ledger.summary_view()``, the same groups as tuples).  Rows
and trailing indices in records and witnesses are 1-based.

Grids: each block keeps the shape its condition has (``LedgerBlock``), its
records in row-major order: (n,) per row for a and b2, (pairs,) per row
pair for c3, (n, q) per row and off-diagonal position for b1 and the
interval-B b, (pairs, q, q) per row pair and position pair for c1 and
(ordered pairs, q) for c2.  The first axis is the summary's groups.  The
grid is a block's only form: every column is a numpy array, hand-built
blocks included, so no reader branches on a column's type.

Memory: a verdict's ledger holds only its lhs, rhs and passed columns.  Its
index columns are read-only arrays that broadcast to the grid, such as
``arange(n)[:, None]`` for the rows of an (n, q) grid, kept in per-shape
caches (``_layout``, ``_pair_layout``) that hold the pair grids' O(n**2 * q)
tail offsets and nothing per record.  The kernel's sums over (n, q, q)-sized
terms, and the summary's reduction of each block by its groups, run in
slices of at most ``CHUNK_ENTRIES`` entries.  The CLI's ``--ledger full``
report is still built whole in memory, as one string.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from itertools import accumulate, combinations, product, repeat
from typing import NamedTuple

import numpy as np

from .classify import (
    Status,
    Verdict,
    Witness,
    DichotomyAnomaly,
    beats,
    check_double_b,
    verdict_report,
)
from .interval import (
    IntervalTensor,
    extreme_hat,
    extreme_row_max_except,
    is_interval_z,
    is_symmetric_interval,
)
from .tensor import is_circulant, read_only, row_layout, tail1

__all__ = [
    "ConditionRecord",
    "LedgerBlock",
    "Ledger",
    "LedgerDicts",
    "LedgerSummary",
    "IntervalDichotomy",
    "NecessaryReport",
    "INTERVAL_B_METHODS",
    "check_interval_b",
    "check_interval_b_zfast",
    "interval_b_necessary",
    "check_interval_double_b",
    "classify_interval_double_b_dichotomy",
    "interval_double_b_necessary",
    "check_interval_double_b_dominance",
    "check_interval_double_b_zfast",
    "check_interval_double_b_hat_sufficient",
    "check_interval_circulant",
    "interval_p_sufficient",
    "interval_verdict_report",
]

INTERVAL_B_METHODS = ("theorem", "compact", "slack", "pairwise")


def _ieee(criterion):
    """Run ``criterion`` in a fresh errstate of its own: overflow gives the
    IEEE values the scalar definitions give, without numpy's warnings."""
    @wraps(criterion)
    def run(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return criterion(*args, **kwargs)
    return run


@dataclass(frozen=True)
class ConditionRecord:
    """One evaluated inequality: id, the row(s) it binds, and both sides."""

    condition: str
    rows: tuple[int, ...]
    lhs: float
    rhs: float
    passed: bool
    tail: tuple[int, ...] | None = None
    pair_tail: tuple[int, ...] | None = None


class LedgerBlock(NamedTuple):
    """A run of records sharing one condition id, stored as numpy columns
    over one grid (``shape``), its records in row-major order.

    ``lhs`` and ``rhs`` are float arrays and ``passed`` is a bool array, all
    of the grid's shape.  ``rows`` and ``pair_rows`` are integer arrays of
    0-based rows with one value per index of the grid's first axis: shape
    (G,) or (G, 1, ...), as many axes as the grid.  The summary reduces the
    grid along that axis, one group per index.  ``tails`` and ``pair_tails``
    are integer arrays of flat offsets inside a row that broadcast to the
    grid (for an (n, q) grid, ``rows = arange(n)[:, None]`` and ``tails``
    the (n, q) offsets).  Records convert rows and tails to the 1-based
    form.  An optional column is None when the condition binds one row or
    no position.
    """

    condition: str
    rows: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    passed: np.ndarray
    pair_rows: np.ndarray | None = None
    tails: np.ndarray | None = None
    pair_tails: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        """The grid, ``lhs.shape``."""
        return self.lhs.shape

    def column(self, name: str) -> list | None:
        """Column ``name`` with one value per record, in record order: the
        array broadcast to the grid as a list of Python scalars, None for a
        missing index column."""
        return _list(getattr(self, name), self.shape)


def _grid(col: np.ndarray, shape: tuple) -> np.ndarray:
    """Array ``col`` broadcast to the grid ``shape``, as a new array: filling
    an empty grid broadcasts in one C call, a fraction of the fixed cost of
    np.broadcast_to."""
    full = np.empty(shape, dtype=col.dtype)
    full[...] = col
    return full


def _list(col: np.ndarray | None, shape: tuple) -> list | None:
    """Array ``col`` broadcast to the grid ``shape`` as a flat list of Python
    scalars, one per record; None stays None."""
    if col is None:
        return None
    return (col if col.shape == shape else _grid(col, shape)).ravel().tolist()


def _at(col: np.ndarray, k: int, shape: tuple):
    """Record ``k`` of column ``col`` over a grid of ``shape``, as a Python
    scalar: the array is read at k's grid index, each axis wrapped to the
    array's extent, so an axis it broadcasts along reads 0."""
    if col.shape == shape:
        return col.item(k)
    at = []
    for d, w in zip(shape[::-1], col.shape[::-1]):
        k, i = divmod(k, d)
        at.append(i % w)
    return col.item(tuple(at[::-1]))


def _gather(col: np.ndarray, idx: np.ndarray, shape: tuple) -> list:
    """Records ``idx`` (flat) of column ``col`` over a grid of ``shape``, as
    Python scalars: each record's grid index, 0 on the axes the array
    broadcasts along."""
    if col.shape == shape:
        return col.take(idx).tolist()
    at = np.unravel_index(idx, shape)[len(shape) - col.ndim:]
    out = col[tuple([a if w > 1 else 0 for a, w in zip(at, col.shape)])]
    return out.tolist() if out.ndim else [out.item()] * len(idx)


# Ledgers up to this many records are summarized record by record in
# Python, longer ones group by group in numpy, whose fixed cost of some 15
# array calls per block exceeds a short ledger's whole loop.
SMALL_LEDGER = 256

# The columns that decide record equality.
_COLUMNS = ("rows", "pair_rows", "tails", "pair_tails", "lhs", "rhs", "passed")


class Ledger(Sequence):
    """The records of one criterion in evaluation order, built on access."""

    __slots__ = ("blocks", "order", "dim", "_ends")

    def __init__(self, blocks: Sequence[LedgerBlock], order: int, dim: int):
        self.blocks = tuple(blocks)
        self.order = order
        self.dim = dim
        self._ends = list(accumulate(b.lhs.size for b in self.blocks))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        size = len(self)
        if k < 0:
            k += size
        if not 0 <= k < size:
            raise IndexError("ledger index out of range")
        b = bisect_right(self._ends, k)
        return self._record(self.blocks[b], k - (self._ends[b - 1] if b else 0))

    def __iter__(self):
        for b in self.blocks:
            if b.pair_rows is None:
                rows = [(i + 1,) for i in b.column("rows")]
            else:
                pairs = zip(b.column("rows"), b.column("pair_rows"))
                rows = [(i + 1, j + 1) for i, j in pairs]
            tail, pair_tail = (
                repeat(None) if col is None else [tail1(self, f) for f in col]
                for col in (b.column("tails"), b.column("pair_tails"))
            )
            values = map(b.column, ("lhs", "rhs", "passed"))
            for fields in zip(rows, *values, tail, pair_tail):
                yield ConditionRecord(b.condition, *fields)

    def __eq__(self, other):
        """Record-by-record equality, as ``tuple(self) == tuple(other)``
        gives it (floats by ``==``, so -0.0 equals 0.0); two ledgers of one
        shape are compared by their columns, whatever their blocks."""
        if isinstance(other, Ledger) and (other.order, other.dim) == (
            self.order, self.dim
        ):
            if len(self) != len(other) or not len(self):
                return len(self) == len(other)
            return self._ids() == other._ids() and all(
                np.array_equal(self._column(c), other._column(c))
                for c in _COLUMNS
            )
        if isinstance(other, (Ledger, tuple, list)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def _ids(self) -> list[list]:
        """The condition ids as [id, record count] runs."""
        runs: list[list] = []
        for b, lo, hi in zip(self.blocks, [0, *self._ends], self._ends):
            if runs and runs[-1][0] == b.condition:
                runs[-1][1] += hi - lo
            elif hi > lo:
                runs.append([b.condition, hi - lo])
        return runs

    def _column(self, name: str) -> np.ndarray:
        """Column ``name`` of every block as one flat array; a missing index
        column (None) reads -1, which no 0-based row or offset takes."""
        parts = []
        for b in self.blocks:
            col = getattr(b, name)
            if col is None:
                col = np.full(b.lhs.size, -1, dtype=np.intp)
            elif col.shape != b.shape:
                col = _grid(col, b.shape)
            parts.append(col.reshape(-1))
        return np.concatenate(parts)

    def __hash__(self):
        return hash(tuple(self))

    def _record(self, b: LedgerBlock, k: int) -> ConditionRecord:
        shape = b.shape
        row, lhs, rhs, passed, pair, tail, pair_tail = (
            None if c is None else _at(c, k, shape) for c in b[1:])
        return ConditionRecord(
            b.condition,
            (row + 1,) if pair is None else (row + 1, pair + 1),
            lhs,
            rhs,
            passed,
            None if tail is None else tail1(self, tail),
            None if pair_tail is None else tail1(self, pair_tail),
        )

    def dicts(self) -> LedgerDicts:
        """The report form: each record as a dict, built on access."""
        return LedgerDicts(self)

    def first_failure(self) -> ConditionRecord | None:
        """The first record whose inequality failed, in ledger order: in a
        block the first False of ``passed`` in row-major order."""
        for b in self.blocks:
            passed = b.passed
            if passed.size:
                k = int(passed.argmin())  # the first False, else 0
                if not passed.item(k):
                    return self._record(b, k)
        return None

    def summary(self) -> list[dict]:
        """The report's default form: one group per (condition id, row or
        row pair), in the order the groups first occur.

        Each group holds ``id``, ``rows`` (1-based), ``evaluated``,
        ``failed``, ``tightest`` (``lhs``, ``rhs`` and ``tail``/``pair_tail``
        of the record with the smallest lhs - rhs in double arithmetic; ties
        go to the earlier record, a NaN difference never wins, and a group
        whose differences are all NaN reports its first record) and
        ``first_failure`` (the same fields of its first failing record, or
        None).  Groups come from the columns; no record is built.
        """
        return list(self.summary_view())

    def summary_view(self) -> LedgerSummary:
        """``summary()`` as a lazy sequence: each group's dict is built on
        access, and the CLI's report writer reads the group tuples."""
        return LedgerSummary(self)

    @_ieee
    def _groups(self) -> list[tuple]:
        """The summary groups in first-occurrence order, as in
        ``LedgerSummary.groups``.

        A block of two or more axes is reduced in numpy by its first axis,
        one group per first index (``_runs``); a ledger of at most
        ``SMALL_LEDGER`` records, and every one-axis block, go record by
        record.  A key that comes back in a later group or block adds to its
        first group: a later tightest record wins only with a smaller
        difference (or when every earlier one was NaN), and the earliest
        failure stays.
        """
        small = len(self) <= SMALL_LEDGER
        # (id, row, pair) -> [evaluated, failed, tightest, its lhs - rhs
        # (NaN while every difference is NaN), first failure]
        groups: dict[tuple, list] = {}
        for b in self.blocks:
            shape = b.shape
            grid = not small and len(shape) > 1 and 0 not in shape
            for row, pair, count, failed, d, tight, first in (
                _runs(b, shape) if grid else _record_runs(b, shape)
            ):
                g = groups.get((b.condition, row, pair))
                if g is None:
                    groups[b.condition, row, pair] = [count, failed, tight, d, first]
                    continue
                g[0] += count
                g[1] += failed
                if d == d and (g[3] != g[3] or d < g[3]):
                    g[2:4] = tight, d
                if g[4] is None:
                    g[4] = first
        return [
            (*key, evaluated, failed, tight, first)
            for key, (evaluated, failed, tight, _, first) in groups.items()
        ]


def _record_runs(b: LedgerBlock, shape: tuple):
    """The groups of ``_runs``, one per record."""
    rows, lhs, rhs, passed, pairs, tails, pair_tails = [_list(c, shape) for c in b[1:]]
    for row, pair, x, y, ok, t, pt in zip(
        rows, pairs or repeat(-1), lhs, rhs, passed, tails or repeat(None),
        pair_tails or repeat(None)
    ):
        side = (x, y, t, pt)
        yield row, pair, 1, 0 if ok else 1, x - y, side, None if ok else side


def _runs(b: LedgerBlock, shape: tuple) -> list[tuple]:
    """Grid block ``b`` as its groups, one per index of the first axis: per
    group its row, pair row (-1 when none), records, failed records, the
    least lhs - rhs (NaN when every difference is NaN), the tightest record
    (the first at that least, else the group's first) and the first failing
    record (None when none), each record as (lhs, rhs, flat tail or None,
    flat pair tail or None).  The groups are reduced ``CHUNK_ENTRIES``
    records at a time, so no temporary spans the block."""
    run = math.prod(shape[1:])
    starts = np.arange(0, shape[0] * run, run)
    rows = b.rows.reshape(-1).tolist()
    pairs = repeat(-1) if b.pair_rows is None else b.pair_rows.reshape(-1).tolist()
    lhs, rhs = b.lhs.reshape(-1, run), b.rhs.reshape(-1, run)
    least, idx = [], []
    step = max(1, CHUNK_ENTRIES // run)
    for lo in range(0, len(lhs), step):
        diff = lhs[lo:lo + step] - rhs[lo:lo + step]
        # fmin skips NaN: a group's least is NaN only when all of it is, and
        # NaN equals nothing, so such a group reports its first record.
        low = np.fmin.reduce(diff, axis=1)
        least += low.tolist()
        idx.append((diff == low[:, None]).argmax(axis=1))
        del diff  # freed before the next slice is subtracted
    idx = [np.concatenate(idx) + starts]
    passed = b.passed.reshape(-1, run)
    failed = repeat(0)
    if not passed.all():
        count = run - passed.sum(axis=1)
        failed = count.tolist()
        idx.append((passed.argmin(axis=1) + starts)[count > 0])
    idx = np.concatenate(idx)
    sides = list(zip(*(
        repeat(None) if c is None else _gather(c, idx, shape)
        for c in (b.lhs, b.rhs, b.tails, b.pair_tails)
    )))
    first = iter(sides[len(least):])
    return [
        (row, pair, run, f, d, side, next(first) if f else None)
        for row, pair, f, d, side in zip(rows, pairs, failed, least, sides)
    ]


class LedgerSummary(Sequence):
    """Default report form of a ledger (``Ledger.summary``): one group per
    (condition id, row or row pair), each as a dict built on access.

    ``groups`` holds one tuple per group: (id, 0-based row, pair row or -1,
    evaluated, failed, tightest, first failure), each record as (lhs, rhs,
    flat tail or None, flat pair tail or None) and the first failure None
    when no record failed.  The CLI's report writer fills templates written
    from ``_dict`` and ``_side_dict`` with these tuples, to the same bytes.
    """

    __slots__ = ("order", "dim", "groups")

    def __init__(self, ledger: Ledger):
        self.order, self.dim = ledger.order, ledger.dim
        self.groups = ledger._groups()

    def __len__(self) -> int:
        return len(self.groups)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self._group(g) for g in self.groups[k]]
        return self._group(self.groups[k])

    def __iter__(self):
        return map(self._group, self.groups)

    def _group(self, group: tuple) -> dict:
        cond, row, pair, evaluated, failed, tight, first = group
        rows = [row + 1] if pair < 0 else [row + 1, pair + 1]
        return self._dict(cond, rows, evaluated, failed, self._side(tight),
                          None if first is None else self._side(first))

    def _side(self, side: tuple) -> dict:
        lhs, rhs, *tails = side
        tails = (None if t is None else list(tail1(self, t)) for t in tails)
        return self._side_dict(lhs, rhs, *tails)

    @staticmethod
    def _dict(cond, rows, evaluated, failed, tight, first) -> dict:
        """A group from its leaf values: the one statement of its keys."""
        return {"id": cond, "rows": rows, "evaluated": evaluated,
                "failed": failed, "tightest": tight, "first_failure": first}

    @staticmethod
    def _side_dict(lhs, rhs, tail, pair_tail) -> dict:
        """A group's tightest record or first failure from its leaf values."""
        return _with_tails({"lhs": lhs, "rhs": rhs}, tail, pair_tail)


def _with_tails(out: dict, tail, pair_tail) -> dict:
    """``out`` with the tail and pair tail that are not None."""
    if tail is not None:
        out["tail"] = tail
    if pair_tail is not None:
        out["pair_tail"] = pair_tail
    return out


def _record_dict(cond, rows, lhs, rhs, passed, tail, pair_tail) -> dict:
    """A full-ledger record from its leaf values: the one statement of its
    keys and their order."""
    record = {"id": cond, "rows": rows, "lhs": lhs, "rhs": rhs, "passed": passed}
    return _with_tails(record, tail, pair_tail)


class LedgerDicts(Sequence):
    """Report form of a ledger: each record as a dict, built on access.

    The CLI's report writer does not build these dicts; it fills templates
    written from ``_record_dict`` with the ledger's columns, to the same
    bytes.
    """

    __slots__ = ("ledger",)

    def __init__(self, ledger: Ledger):
        self.ledger = ledger

    def __len__(self) -> int:
        return len(self.ledger)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self._record(rec) for rec in self.ledger[k]]
        return self._record(self.ledger[k])

    def __iter__(self):
        return map(self._record, self.ledger)

    @staticmethod
    def _record(rec: ConditionRecord) -> dict:
        tails = (None if t is None else list(t) for t in (rec.tail, rec.pair_tail))
        return _record_dict(rec.condition, list(rec.rows), rec.lhs, rec.rhs,
                            rec.passed, *tails)


@dataclass(frozen=True)
class IntervalDichotomy:
    """kind is ``interval_b``, ``critical_row`` or ``not_double_b``; a
    critical row reports its 1-based index and which row condition failed
    (``nonpositive_row_sum`` or ``slack_equality`` with the tail)."""

    kind: str
    critical_row: int | None = None
    failing_mode: str | None = None
    failing_tail: tuple[int, ...] | None = None


@dataclass(frozen=True)
class NecessaryReport:
    """Outcome of a necessary- or finite-member condition sweep."""

    variant: str
    passed: bool
    records: Ledger | tuple = ()
    member_verdicts: tuple[tuple[str, Verdict], ...] = ()


# The most entries a kernel or summary temporary holds: larger quantities
# are built in slices of rows (or groups) of at most this many entries, at
# least one row each, so memory stays bounded at large n**(m-1).
CHUNK_ENTRIES = 1 << 18


def _by_rows(n: int, per_row: int, part) -> np.ndarray:
    """``part(rows)`` over slices of the n rows, each of at most
    ``CHUNK_ENTRIES`` entries of ``per_row`` a row (at least one row),
    joined along axis 0; with one slice, ``part``'s own array."""
    step = max(1, CHUNK_ENTRIES // max(per_row, 1))
    if step >= n:
        return part(slice(0, n))
    parts = [part(slice(lo, lo + step)) for lo in range(0, n, step)]
    return read_only(np.concatenate(parts))


class _Layout(NamedTuple):
    """The tables of one (order, dim): index columns as LedgerBlock keywords
    (read-only arrays of 0-based rows and flat tails)."""

    row: dict  # the (n,) grid, one record per row
    position: dict  # the (n, q) grid, one record per off-diagonal position
    zeros: np.ndarray  # (n,) the right side 0.0 of the row-sum conditions
    drop: np.ndarray  # (n * q,) flat offset of [i, k, od[i, k]] in (n, q, r)


@lru_cache(maxsize=32)
def _layout(order: int, dim: int) -> _Layout:
    od = row_layout(order, dim).od
    q, rows = od.shape[1], read_only(np.arange(dim))
    return _Layout(
        {"rows": rows},
        {"rows": rows[:, None], "tails": od},
        read_only(np.zeros(dim)),
        read_only(np.arange(dim * q) * (q + 1) + od.ravel()),
    )


@lru_cache(maxsize=32)
def _pair_layout(order: int, dim: int) -> tuple[dict, dict, dict]:
    """The index columns of the double-B pair grids: c1 (pairs, q, q), c2
    (ordered pairs, q) and c3 (pairs,); the c1 and c2 tails hold O(n**2 * q)
    offsets."""
    lay = row_layout(order, dim)
    od, iu, ju, ii, jj = lay.od, lay.iu, lay.ju, lay.ii, lay.jj
    return (
        {"rows": iu[:, None, None], "pair_rows": ju[:, None, None],
         "tails": read_only(od[iu][:, :, None]),
         "pair_tails": read_only(od[ju][:, None, :])},
        {"rows": ii[:, None], "pair_rows": jj[:, None], "tails": read_only(od[ii])},
        {"rows": iu, "pair_rows": ju},
    )


def _ordered_sum(x: np.ndarray) -> np.ndarray:
    """Read-only sums over the last axis, added to +0.0 in ascending order:
    ``np.add.accumulate`` starts from the first term, which differs only
    when every term is -0.0, and adding +0.0 mends that.  A term left out
    is set to +0.0, not multiplied by a mask (inf * 0 is NaN)."""
    if not x.shape[-1]:
        return read_only(np.zeros(x.shape[:-1]))
    return read_only(np.add.accumulate(x, axis=-1)[..., -1] + 0.0)


def _pos(x: np.ndarray) -> np.ndarray:
    """max(0.0, x) as Python evaluates it: +0.0 unless x > 0, so a -0.0
    reads +0.0 (np.maximum would keep the -0.0)."""
    return np.where(x > 0.0, x, 0.0)


class _RowKernel:
    """The endpoint quantities every criterion reads, (n,) per row and
    (n, q) per off-diagonal position in ascending offset order, each built
    on first use and kept with the family (``_kernel``), so the criteria
    run on one family gather and sum it once; read-only, since ledgers hand
    them out.  Each is the double the scalar definition gives: differences
    and products are elementwise, sums run from +0.0 in ascending offset
    order (``_ordered_sum``), and ``_pos`` is max(0.0, x)."""

    def __init__(self, AI: IntervalTensor):
        self.bounds = (AI.lower, AI.upper)
        self.idx = row_layout(AI.order, AI.dim)
        self.lay = _layout(AI.order, AI.dim)
        lower, upper = AI.lower.entries, AI.upper.entries
        self.ldiag = read_only(lower[self.idx.diag_flat])  # lower diagonals
        self.lod = read_only(lower[self.idx.od_flat])  # lower off-diagonals
        self.uod = read_only(upper[self.idx.od_flat])  # upper off-diagonals

    @cached_property
    def total(self) -> np.ndarray:  # lower row sums over every position
        return _ordered_sum(self.bounds[0].entries.reshape(len(self.ldiag), -1))

    @cached_property
    def others(self) -> np.ndarray:  # ... over every position but od[i, k]
        lower = self.bounds[0].entries.reshape(len(self.ldiag), -1)
        n, r = lower.shape
        q, drop = r - 1, self.lay.drop

        def part(rows):
            x = np.repeat(lower[rows, None, :], q, axis=1)
            x.reshape(-1)[drop[rows.start * q:rows.stop * q] - rows.start * q * r] = 0.0
            return _ordered_sum(x)

        return _by_rows(n, q * r, part)

    @cached_property
    def slack(self) -> np.ndarray:  # sum over t of uod[i, k] - lod[i, t]
        return self._terms(False)

    @cached_property
    def excl(self) -> np.ndarray:  # ... over t != k
        return self._terms(True)

    def _terms(self, exclude: bool) -> np.ndarray:
        n, q = self.uod.shape

        def part(rows):
            terms = self.uod[rows, :, None] - self.lod[rows, None, :]
            if exclude:
                terms.reshape(len(terms), -1)[:, :: q + 1] = 0.0
            return _ordered_sum(terms)

        return _by_rows(n, q * q, part)

    @cached_property
    def gap(self) -> np.ndarray:  # lower diagonal - upper off-diagonal
        return read_only(self.ldiag[:, None] - self.uod)

    @cached_property
    def upos(self) -> np.ndarray:  # max(0, every upper off-diagonal)
        return read_only(_pos(self.uod.max(axis=1, initial=0.0)))

    @cached_property
    def negl(self) -> np.ndarray:  # minus the lower off-diagonal sum
        if not self.lod.shape[1]:  # +0.0, not minus an empty sum
            return self.lay.zeros
        return read_only(-_ordered_sum(self.lod))


def _kernel(AI: IntervalTensor) -> _RowKernel:
    k = AI._kernel
    if k is None or k.bounds[0] is not AI.lower or k.bounds[1] is not AI.upper:
        k = AI._kernel = _RowKernel(AI)
    return k


def _block(condition, lhs, rhs, tol, strict=True, **index) -> LedgerBlock:
    """The records of one condition, passed where ``beats(lhs, rhs, tol,
    strict)``; ``index`` holds the index columns."""
    passed = beats(lhs, rhs, tol, strict)
    return LedgerBlock(condition, lhs=lhs, rhs=rhs, passed=passed, **index)


def _ledger(AI: IntervalTensor, blocks) -> Ledger:
    return Ledger([b for b in blocks if math.prod(b.shape)], AI.order, AI.dim)


def _verdict(method: str, ledger: Ledger) -> Verdict:
    rec = ledger.first_failure()
    if rec is None:
        return Verdict(Status.HOLDS, method, conditions=ledger)
    pair_row = rec.rows[1] if len(rec.rows) > 1 else None
    witness = Witness(rec.rows[0], rec.condition, rec.lhs, rec.rhs, rec.tail,
                      pair_row, rec.pair_tail)
    return Verdict(Status.FAILS, method, witness, ledger)


def _interval_b_blocks(k: _RowKernel, method: str, tol: float) -> tuple:
    lay, q = k.lay, k.uod.shape[1]
    if method == "compact" and q:
        lhs = np.repeat(k.total[:, None], q, axis=1)
        return (_block("b", lhs, _pos(q * k.uod + k.lod), tol, **lay.position),)
    total = _block("a", k.total, lay.zeros, tol, **lay.row)
    if method == "compact":
        return (total,)
    if method == "theorem":
        lhs, rhs = k.others, q * k.uod
    elif method == "slack":
        lhs, rhs = k.ldiag[:, None] - k.lod, k.slack
    else:  # pairwise
        lhs, rhs = k.gap, k.excl
    return total, _block("b", lhs, rhs, tol, **lay.position)


@_ieee
def check_interval_b(
    AI: IntervalTensor, method: str = "theorem", tol: float = 0.0
) -> Verdict:
    """Decide whether every member of the box is a B-tensor.

    theorem: lower row sums positive, and for each off-diagonal position j
    the lower-bound sum over the other positions beats (n**(m-1)-1) times
    j's upper bound.  compact folds both into a single inequality per
    position; slack and pairwise restate it through the diagonal surplus.
    All four methods agree in status on every input.
    """
    if method not in INTERVAL_B_METHODS:
        raise ValueError(f"unknown interval B method {method!r}")
    blocks = _interval_b_blocks(_kernel(AI), method, tol)
    return _verdict(f"interval_b_{method}", _ledger(AI, blocks))


@_ieee
def check_interval_b_zfast(AI: IntervalTensor, tol: float = 0.0) -> Verdict:
    """Fast B-family test for interval Z tensors: positive lower row sums
    alone decide membership."""
    if not is_interval_z(AI):
        raise ValueError("interval is not an interval Z tensor")
    k = _kernel(AI)
    block = _block("a", k.total, k.lay.zeros, tol, **k.lay.row)
    return _verdict("interval_b_zfast", _ledger(AI, (block,)))


@_ieee
def interval_b_necessary(AI: IntervalTensor, tol: float = 0.0) -> NecessaryReport:
    """Necessary conditions for the interval B class.

    Per row: the lower diagonal beats the absolute sum of negative lower
    off-diagonal entries (id a); it beats every off-diagonal magnitude from
    either bound (id b); and it beats the largest off-diagonal upper bound
    (id r).  Any failure certifies the family is not interval B.
    """
    k = _kernel(AI)
    lay, ldiag, lod = k.lay, k.ldiag, k.lod
    neg = _ordered_sum(np.where(lod < 0.0, -lod, 0.0))
    magnitude = np.maximum(np.abs(k.uod), np.abs(lod))
    ledger = _ledger(AI, (
        _block("a", ldiag, neg, tol, **lay.row),
        _block("b", np.repeat(ldiag[:, None], lod.shape[1], axis=1), magnitude, tol,
               **lay.position),
        _block("r", ldiag, k.upos, tol, **lay.row),
    ))
    passed = ledger.first_failure() is None
    return NecessaryReport("interval_b_necessary", passed, ledger)


@_ieee
def check_interval_double_b(AI: IntervalTensor, tol: float = 0.0) -> Verdict:
    """Decide whether every member of the box is a double B-tensor.

    Six endpoint conditions, evaluated exhaustively and recorded:

    a   per row, the lower diagonal beats max(0, every off-diagonal upper);
    b1  per row and off-diagonal position j, the gap (lower diagonal minus
        j's upper bound) covers max(0, sum over other off-diagonal
        positions of (j's upper bound minus their lower bounds));
    b2  per row, the lower diagonal covers max(0, minus the off-diagonal
        lower-bound sum);
    c1  per row pair and position pair, the product of the b1 left sides
        strictly beats the product of the b1 right sides;
    c2  per ordered row pair and position in the first row, the b1 left
        side times the second row's lower diagonal strictly beats the b1
        right side times that row's b2 right side;
    c3  per row pair, the product of lower diagonals strictly beats the
        product of the b2 right sides.

    The witness is the lexicographically first failure in the order
    a, b1, b2, c1, c2, c3, then rows, then tail offsets.  Each condition is
    one block of array columns from the row kernel.
    """
    k = _kernel(AI)
    ldiag, gap, idx = k.ldiag, k.gap, k.idx
    b1_rhs, negsum = _pos(k.excl), _pos(k.negl)
    iu, ju, ii, jj = idx.iu, idx.ju, idx.ii, idx.jj
    # Both c1 sides in one buffer: one large allocation, which the allocator
    # keeps for the next check of the shape instead of returning it to the
    # system (two buffers of half the size are returned and fault in anew).
    q = gap.shape[1]
    c1 = np.empty((2, len(iu), q, q))
    np.multiply(gap[iu][:, :, None], gap[ju][:, None, :], out=c1[0])
    np.multiply(b1_rhs[iu][:, :, None], b1_rhs[ju][:, None, :], out=c1[1])
    c2_lhs = gap[ii] * ldiag[jj][:, None]
    c2_rhs = b1_rhs[ii] * negsum[jj][:, None]
    c1_index, c2_index, c3_index = _pair_layout(AI.order, AI.dim)
    blocks = (
        _block("a", ldiag, k.upos, tol, **k.lay.row),
        _block("b1", gap, b1_rhs, tol, False, **k.lay.position),
        _block("b2", ldiag, negsum, tol, False, **k.lay.row),
        _block("c1", *c1, tol, **c1_index),
        _block("c2", c2_lhs, c2_rhs, tol, **c2_index),
        _block("c3", ldiag[iu] * ldiag[ju], negsum[iu] * negsum[ju], tol, **c3_index),
    )
    return _verdict("interval_double_b", _ledger(AI, blocks))


@_ieee
def classify_interval_double_b_dichotomy(
    AI: IntervalTensor, tol: float = 0.0
) -> IntervalDichotomy:
    """Separate interval double B families into the interval-B case and the
    unique-critical-row case.

    The critical row is the single row failing the pairwise-form row
    conditions, either through a nonpositive lower row sum or through slack
    equality at some position; more than one such row raises
    DichotomyAnomaly.
    """
    if not check_interval_double_b(AI, tol=tol).holds():
        return IntervalDichotomy("not_double_b")
    total, pairwise = _interval_b_blocks(_kernel(AI), "pairwise", tol)
    slack_ok = pairwise.passed
    failing = np.flatnonzero(~total.passed | ~slack_ok.all(axis=1)).tolist()
    if not failing:
        return IntervalDichotomy("interval_b")
    if len(failing) > 1:
        rows = [i + 1 for i in failing]
        raise DichotomyAnomaly(
            f"critical-row conditions fail in rows {rows}, expected exactly one", rows)
    i = failing[0]
    if not total.passed[i]:
        return IntervalDichotomy("critical_row", i + 1, "nonpositive_row_sum")
    j = row_layout(AI.order, AI.dim).od[i, slack_ok[i].argmin()]
    return IntervalDichotomy("critical_row", i + 1, "slack_equality", tail1(AI, j))


@_ieee
def interval_double_b_necessary(
    AI: IntervalTensor, variant: str = "extremes", tol: float = 0.0
) -> NecessaryReport:
    """Necessary conditions for the interval double B class.

    extremes: the lower bound and, for each row index i, the member raising
    every other row's largest-upper off-diagonal position must all be double
    B-tensors.  rowmax: the six endpoint conditions evaluated only at each
    row's argmax position, with the branch chosen by that maximum's sign:
    rows whose largest off-diagonal upper bound is positive take b1 at it,
    the others b2 (without the clamp at 0), and each row pair c1, c2 or c3
    by the branches of its rows.  Records come in the order a, b1, b2, c1,
    c2, c3, then rows.
    """
    if variant == "extremes":
        members = [("lower", AI.lower)] + [
            (f"row_max_except_{i + 1}", extreme_row_max_except(AI, i))
            for i in range(AI.dim)
        ]
        verdicts = tuple((label, check_double_b(T, tol=tol)) for label, T in members)
        passed = all(v.holds() for _, v in verdicts)
        return NecessaryReport("extremes", passed, member_verdicts=verdicts)
    if variant != "rowmax":
        raise ValueError(f"unknown variant {variant!r}")

    k = _kernel(AI)
    n, q = k.uod.shape
    # Each row's first largest off-diagonal upper bound: a positive one takes
    # b1 there, the others (and rows at dim 1) b2.  left and right are the
    # sides of that condition, the factors of the row's c sides.
    rows, up, left, right = np.arange(n), k.upos > 0.0, k.ldiag, k.negl
    tails = np.zeros(n, dtype=np.intp)
    if q:
        at = (rows, k.uod.argmax(axis=1))
        tails = k.idx.od[at]
        left, right = np.where(up, k.gap[at], left), np.where(up, k.excl[at], right)
    # Rows grouped by branch once, b1 then b2, each ascending; the row pairs
    # follow from the groups in lexicographic order: c1 two b1 rows, c2 a b1
    # row then a b2 row, c3 two b2 rows.
    upl = up.tolist()
    b1 = [i for i in range(n) if upl[i]]
    b2 = [i for i in range(n) if not upl[i]]
    pairs = [*combinations(b1, 2), *product(b1, b2), *combinations(b2, 2)]
    nb1, c1 = len(b1), len(b1) * (len(b1) - 1) // 2
    c2 = c1 + len(b1) * len(b2)
    r, i, j = (np.array(x, dtype=np.intp) for x in (
        b1 + b2, [p[0] for p in pairs], [p[1] for p in pairs]))
    b = _block("b", left[r], right[r], tol, strict=False, rows=r, tails=tails[r])
    c = _block("c", left[i] * left[j], right[i] * right[j], tol, rows=i,
               pair_rows=j, tails=tails[i], pair_tails=tails[j])

    def cut(block, condition, part, keep):
        """Records ``part`` of ``block`` as ``condition``, with its first
        ``keep`` of the two tail columns."""
        return LedgerBlock(condition, *(
            None if x is None else x[part] for x in block[1:6 + keep]))

    ledger = _ledger(AI, (
        _block("a", k.ldiag, k.upos, tol, **k.lay.row),
        cut(b, "b1", slice(nb1), 1),
        cut(b, "b2", slice(nb1, None), 0),
        cut(c, "c1", slice(c1), 2),
        cut(c, "c2", slice(c1, c2), 1),
        cut(c, "c3", slice(c2, None), 0),
    ))
    return NecessaryReport("rowmax", ledger.first_failure() is None, ledger)


def check_interval_double_b_dominance(AI: IntervalTensor, tol: float = 0.0) -> Verdict:
    """Exact double-B test under the per-row dominance hypothesis.

    Requires dim >= 3 and, in every row, one off-diagonal position whose
    lower bound is at or above every other off-diagonal upper bound of that
    row.  Under the hypothesis the finite extreme-member conditions are not
    just necessary but sufficient, so the verdict equals the general one;
    otherwise the result is inconclusive, naming the first failing row.
    """
    method = "double_b_dominance"
    if AI.dim < 3:
        return Verdict(Status.INCONCLUSIVE, method)
    k = _kernel(AI)
    lod, uod = k.lod, k.uod
    # Position k dominates row i when lod[i, k] >= uod[i, t] for every t != k:
    # >= the row's largest upper bound, or where k holds it, >= the second
    # largest (the same number when the largest is tied).  Bounds are finite
    # (make_tensor), so the largest is never NaN.
    top = np.sort(uod, axis=1)[:, -2:]
    bound = np.where(uod == top[:, 1:], top[:, :1], top[:, 1:])
    dominated = (lod >= bound).any(axis=1)
    if not dominated.all():
        # Best candidate is the largest lower entry; report the upper bound
        # elsewhere in the row that blocks it.
        i = int(dominated.argmin())
        best = int(lod[i].argmax())
        block = max(u for t, u in enumerate(uod[i].tolist()) if t != best)
        tail = tail1(AI, row_layout(AI.order, AI.dim).od[i, best])
        witness = Witness(i + 1, "hypothesis", lod[i, best].item(), block, tail)
        return Verdict(Status.INCONCLUSIVE, method, witness)
    report = interval_double_b_necessary(AI, "extremes", tol=tol)
    if report.passed:
        return Verdict(Status.HOLDS, method)
    for _, v in report.member_verdicts:
        if not v.holds():
            return Verdict(Status.FAILS, method, v.witness)
    raise AssertionError("unreachable: failing report without failing member")


def check_interval_double_b_zfast(AI: IntervalTensor, tol: float = 0.0) -> Verdict:
    """Fast double-B test for interval Z tensors: the family is interval
    double B exactly when its lower bound tensor is a double B-tensor."""
    if not is_interval_z(AI):
        raise ValueError("interval is not an interval Z tensor")
    v = check_double_b(AI.lower, tol=tol)
    return Verdict(v.status, "interval_double_b_zfast", v.witness)


def check_interval_double_b_hat_sufficient(
    AI: IntervalTensor, tol: float = 0.0
) -> Verdict:
    """Sufficient double-B test via the hat rearrangement (never FAILS).

    Requires every row's largest off-diagonal lower bound to be
    nonnegative; then double-B membership of the single hat tensor certifies
    the whole family.  When either part fails the verdict is inconclusive.
    """
    method = "double_b_hat"
    lod = _kernel(AI).lod
    if lod.shape[1]:
        # The first largest entry, as Python's max picks it among equal zeros.
        maxl = lod[np.arange(AI.dim), lod.argmax(axis=1)]
        ok = beats(maxl, 0.0, tol, strict=False)
        if not ok.all():
            i = int(ok.argmin())
            witness = Witness(i + 1, "hypothesis", maxl[i].item(), 0.0)
            return Verdict(Status.INCONCLUSIVE, method, witness)
    v = check_double_b(extreme_hat(AI), tol=tol)
    if v.holds():
        return Verdict(Status.HOLDS, method)
    return Verdict(Status.INCONCLUSIVE, method, v.witness)


@_ieee
def check_interval_circulant(AI: IntervalTensor, tol: float = 0.0) -> Verdict:
    """Row-0 criterion for families with circulant bounds.

    For circulant bounds the interval B and interval double B classes
    coincide and are decided by two first-row conditions: a positive lower
    row sum (c1) and the strict pairwise slack inequality at every
    off-diagonal position (c2).
    """
    if not (is_circulant(AI.lower) and is_circulant(AI.upper)):
        raise ValueError("interval bounds are not circulant")
    k = _kernel(AI)
    first = {name: col[:1] for name, col in k.lay.position.items()}
    blocks = (
        _block("c1", k.ldiag[:1], k.negl[:1], tol, rows=k.lay.row["rows"][:1]),
        _block("c2", k.gap[:1], k.excl[:1], tol, **first),
    )
    return _verdict("interval_circulant", _ledger(AI, blocks))


def interval_p_sufficient(AI: IntervalTensor, tol: float = 0.0) -> Verdict:
    """Sufficient conditions for the interval P class (never FAILS).

    Holds for even order when the family is interval B and either interval
    Z or symmetric, or when it is symmetric and interval double B.
    """
    if AI.order % 2 != 0:
        return Verdict(Status.INCONCLUSIVE, "even_order_required")
    z = is_interval_z(AI)
    sym = is_symmetric_interval(AI)
    if z or sym:
        ib = check_interval_b(AI, tol=tol)
        if z and ib.holds():
            return Verdict(Status.HOLDS, "interval_z_and_interval_b")
        if sym and ib.holds():
            return Verdict(Status.HOLDS, "symmetric_and_interval_b")
        if sym and check_interval_double_b(AI, tol=tol).holds():
            return Verdict(Status.HOLDS, "symmetric_and_interval_double_b")
    return Verdict(Status.INCONCLUSIVE, "no_sufficient_branch")


# perfbench traces this name; renaming it needs a change to the benchmark.
interval_verdict_report = verdict_report

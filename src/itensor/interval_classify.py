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
default.  Rows and trailing indices in records and witnesses are 1-based.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from itertools import combinations, product, repeat
from typing import NamedTuple

import numpy as np

from .classify import (
    Status,
    Verdict,
    Witness,
    DichotomyAnomaly,
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
from .tensor import is_circulant, row_layout, tail1

__all__ = [
    "ConditionRecord",
    "LedgerBlock",
    "Ledger",
    "LedgerDicts",
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
    """A run of records sharing one condition id, stored as columns.

    ``rows``/``pair_rows`` hold 0-based row indices and ``tails``/
    ``pair_tails`` flat offsets inside a row; records convert both to the
    1-based form.  Columns are lists or numpy arrays of one length; an
    optional column is None when the condition binds one row or no position.
    """

    condition: str
    rows: Sequence[int]
    lhs: Sequence[float]
    rhs: Sequence[float]
    passed: Sequence[bool]
    pair_rows: Sequence[int] | None = None
    tails: Sequence[int] | None = None
    pair_tails: Sequence[int] | None = None

    def values(self) -> tuple[list, list, list]:
        """The lhs, rhs and passed columns as lists of Python scalars."""
        return tuple(
            c.tolist() if isinstance(c, np.ndarray) else c
            for c in (self.lhs, self.rhs, self.passed)
        )


def _value(col, k: int):
    v = col[k]
    return v.item() if isinstance(v, np.generic) else v


def _first_at_or_after(hits: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Per segment [start, end): the first index of ``hits`` (ascending)
    inside it, or -1."""
    pos = np.searchsorted(hits, starts)
    found = np.append(hits, ends[-1])[pos]
    return np.where(found < ends, found, -1)


# Ledgers up to this many records are summarized record by record in
# Python, longer ones in one numpy pass, whose fixed cost of some 25 array
# calls exceeds a short ledger's whole loop.
SMALL_LEDGER = 256

# The columns that decide record equality, with their dtypes.
_COLUMNS = (
    ("rows", np.intp), ("pair_rows", np.intp), ("tails", np.intp),
    ("pair_tails", np.intp), ("lhs", float), ("rhs", float), ("passed", bool),
)


class Ledger(Sequence):
    """The records of one criterion in evaluation order, built on access."""

    __slots__ = ("blocks", "order", "dim", "_ends")

    def __init__(self, blocks: Sequence[LedgerBlock], order: int, dim: int):
        self.blocks = tuple(blocks)
        self.order = order
        self.dim = dim
        self._ends: list[int] = []
        total = 0
        for b in self.blocks:
            total += len(b.lhs)
            self._ends.append(total)

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
            size = len(b.lhs)
            if b.pair_rows is None:
                rows = [(i + 1,) for i in b.rows]
            else:
                rows = [(i + 1, j + 1) for i, j in zip(b.rows, b.pair_rows)]
            tail = (
                repeat(None, size)
                if b.tails is None
                else [tail1(self, f) for f in b.tails]
            )
            pair_tail = (
                repeat(None, size)
                if b.pair_tails is None
                else [tail1(self, f) for f in b.pair_tails]
            )
            for fields in zip(rows, *b.values(), tail, pair_tail):
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
                np.array_equal(self._column(*c), other._column(*c))
                for c in _COLUMNS
            )
        if isinstance(other, (Ledger, tuple, list)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def _ids(self) -> list[list]:
        """The condition ids as [id, record count] runs."""
        runs: list[list] = []
        for b in self.blocks:
            size = len(b.lhs)
            if runs and runs[-1][0] == b.condition:
                runs[-1][1] += size
            elif size:
                runs.append([b.condition, size])
        return runs

    def _column(self, name: str, dtype=np.intp) -> np.ndarray:
        """Column ``name`` of every block as one array; a missing index
        column (None) reads -1, which no 0-based row or offset takes."""
        parts = []
        for b in self.blocks:
            col = getattr(b, name)
            if col is None:
                col = np.full(len(b.lhs), -1, dtype=dtype)
            parts.append(np.asarray(getattr(col, "array", col), dtype=dtype))
        return np.concatenate(parts)

    def __hash__(self):
        return hash(tuple(self))

    def _record(self, b: LedgerBlock, k: int) -> ConditionRecord:
        rows = (b.rows[k] + 1,)
        if b.pair_rows is not None:
            rows += (b.pair_rows[k] + 1,)
        return ConditionRecord(
            b.condition,
            rows,
            _value(b.lhs, k),
            _value(b.rhs, k),
            _value(b.passed, k),
            None if b.tails is None else tail1(self, b.tails[k]),
            None if b.pair_tails is None else tail1(self, b.pair_tails[k]),
        )

    def dicts(self) -> LedgerDicts:
        """The report form: each record as a dict, built on access."""
        return LedgerDicts(self)

    def first_failure(self) -> ConditionRecord | None:
        """The first record whose inequality failed, in ledger order."""
        for b in self.blocks:
            if isinstance(b.passed, np.ndarray):
                if not b.passed.all():
                    return self._record(b, int(b.passed.argmin()))
            elif False in b.passed:
                return self._record(b, b.passed.index(False))
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
        if len(self) <= SMALL_LEDGER:
            groups = self._groups_by_record()
        else:
            groups = self._groups_by_sort()
        return [
            {
                "id": cond,
                "rows": [row + 1] if pair < 0 else [row + 1, pair + 1],
                "evaluated": evaluated,
                "failed": failed,
                "tightest": self._sides(tk),
                "first_failure": None if fk < 0 else self._sides(fk),
            }
            for cond, row, pair, evaluated, failed, tk, fk in groups
        ]

    def _groups_by_record(self) -> list[tuple]:
        """The summary groups in first-occurrence order, record by record:
        (id, row, pair row or -1, evaluated, failed, index of the tightest
        record, index of the first failing record or -1)."""
        # (id, row, pair) -> [evaluated, failed, tightest index, its lhs - rhs
        # (None while every difference is NaN), first failing index]
        groups: dict[tuple, list] = {}
        k = 0
        for b in self.blocks:
            pairs = repeat(-1) if b.pair_rows is None else b.pair_rows
            for row, pair, lhs, rhs, ok in zip(b.rows, pairs, *b.values()):
                d = lhs - rhs
                g = groups.get((b.condition, row, pair))
                if g is None:
                    g = groups[b.condition, row, pair] = [0, 0, k, None, -1]
                if d == d and (g[3] is None or d < g[3]):
                    g[2:4] = k, d
                g[0] += 1
                if not ok:
                    g[1] += 1
                    if g[4] < 0:
                        g[4] = k
                k += 1
        return [
            (*key, evaluated, failed, tk, fk)
            for key, (evaluated, failed, tk, _, fk) in groups.items()
        ]

    @_ieee
    def _groups_by_sort(self) -> list[tuple]:
        """The groups of ``_groups_by_record``, in one numpy pass."""
        runs = self._ids()
        ids = list(dict.fromkeys(cond for cond, _ in runs))
        codes = np.repeat([ids.index(c) for c, _ in runs], [n for _, n in runs])
        # One integer key per (id, row, pair row); a stable sort keeps each
        # group's records in ledger order, so the first hit is the earliest.
        width = self.dim + 1
        key = codes * width + self._column("rows") + 1
        key = key * width + self._column("pair_rows") + 1
        order = np.argsort(key, kind="stable")
        key = key[order]
        new = np.ones(len(key), dtype=bool)
        new[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], len(key))
        diff = (self._column("lhs", float) - self._column("rhs", float))[order]
        least = np.minimum.reduceat(np.where(np.isnan(diff), np.inf, diff), starts)
        # NaN equals nothing, so a NaN difference is never the least; a group
        # of NaN differences only reports its first record.
        tight = _first_at_or_after(
            np.flatnonzero(diff == np.repeat(least, ends - starts)), starts, ends
        )
        tight = np.where(tight < 0, starts, tight)
        fails = ~self._column("passed", bool)[order]
        first = _first_at_or_after(np.flatnonzero(fails), starts, ends)
        groups = sorted(zip(
            order[starts].tolist(),
            key[starts].tolist(),
            (ends - starts).tolist(),
            np.add.reduceat(fails, starts).tolist(),
            order[tight].tolist(),
            np.where(first < 0, -1, order[first]).tolist(),
        ))
        return [
            (ids[k // width // width], k // width % width - 1, k % width - 1, *rest)
            for _, k, *rest in groups
        ]

    def _sides(self, k: int) -> dict:
        """Both sides of record ``k`` and its tail(s)."""
        b = bisect_right(self._ends, k)
        k -= self._ends[b - 1] if b else 0
        b = self.blocks[b]
        out = {"lhs": _value(b.lhs, k), "rhs": _value(b.rhs, k)}
        if b.tails is not None:
            out["tail"] = list(tail1(self, b.tails[k]))
        if b.pair_tails is not None:
            out["pair_tail"] = list(tail1(self, b.pair_tails[k]))
        return out


def _record_dict(rec: ConditionRecord) -> dict:
    out = {
        "id": rec.condition,
        "rows": list(rec.rows),
        "lhs": rec.lhs,
        "rhs": rec.rhs,
        "passed": rec.passed,
    }
    if rec.tail is not None:
        out["tail"] = list(rec.tail)
    if rec.pair_tail is not None:
        out["pair_tail"] = list(rec.pair_tail)
    return out


class LedgerDicts(Sequence):
    """Report form of a ledger: each record as a dict, built on access.

    The CLI's report writer does not build these dicts; it writes the
    ledger's columns directly, to the same bytes.
    """

    __slots__ = ("ledger",)

    def __init__(self, ledger: Ledger):
        self.ledger = ledger

    def __len__(self) -> int:
        return len(self.ledger)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [_record_dict(rec) for rec in self.ledger[k]]
        return _record_dict(self.ledger[k])

    def __iter__(self):
        return map(_record_dict, self.ledger)


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


class _IndexColumn(tuple):
    """A cached layout index column: a tuple of ints for records and the
    full report writer, whose integer array ``Ledger._column`` builds once,
    on first use."""

    @cached_property
    def array(self) -> np.ndarray:
        return np.array(self, dtype=np.intp)


def _col(a) -> _IndexColumn:
    return _IndexColumn(np.asarray(a).ravel().tolist())


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _Layout(NamedTuple):
    """The tables of one (order, dim): index columns as LedgerBlock keywords
    (``_IndexColumn``s of 0-based rows and flat tails) and kernel masks."""

    row: dict  # one record per row
    position: dict  # one record per off-diagonal position
    zeros: np.ndarray  # (n,) the right side 0.0 of the row-sum conditions
    not_self: np.ndarray  # (q, q) off-diagonal t is not k
    not_at: np.ndarray  # (n, q, q + 1) position p is not od[i, k]


@lru_cache(maxsize=32)
def _layout(order: int, dim: int) -> _Layout:
    od = row_layout(order, dim).od
    n, q = od.shape
    rows = np.arange(n)
    return _Layout(
        {"rows": _col(rows)},
        {"rows": _col(np.repeat(rows, q)), "tails": _col(od)},
        _frozen(np.zeros(n)),
        _frozen(~np.eye(q, dtype=bool)),
        _frozen(od[:, :, None] != np.arange(q + 1)),
    )


@lru_cache(maxsize=32)
def _pair_layout(order: int, dim: int) -> tuple[dict, dict, dict]:
    """The c1, c2 and c3 index columns of the double-B ledger, apart from
    ``_layout`` because c1 alone holds n (n - 1) q**2 / 2 records."""
    lay = row_layout(order, dim)
    iu, ju, ii, jj, od = lay.iu, lay.ju, lay.ii, lay.jj, lay.od
    q = od.shape[1]
    square = (len(iu), q, q)
    return (
        {"rows": _col(np.repeat(iu, q * q)), "pair_rows": _col(np.repeat(ju, q * q)),
         "tails": _col(np.broadcast_to(od[iu][:, :, None], square)),
         "pair_tails": _col(np.broadcast_to(od[ju][:, None, :], square))},
        {"rows": _col(np.repeat(ii, q)), "pair_rows": _col(np.repeat(jj, q)),
         "tails": _col(od[ii])},
        {"rows": _col(iu), "pair_rows": _col(ju)},
    )


def _ordered_sum(x: np.ndarray) -> np.ndarray:
    """Read-only sums over the last axis, added to +0.0 in ascending order:
    ``np.add.accumulate`` starts from the first term, which differs only
    when every term is -0.0, and adding +0.0 mends that.  A term left out
    is set to +0.0, not multiplied by a mask (inf * 0 is NaN)."""
    if not x.shape[-1]:
        return _frozen(np.zeros(x.shape[:-1]))
    return _frozen(np.add.accumulate(x, axis=-1)[..., -1] + 0.0)


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
        self.ldiag = _frozen(lower[self.idx.diag_flat])  # lower diagonals
        self.lod = _frozen(lower[self.idx.od_flat])  # lower off-diagonals
        self.uod = _frozen(upper[self.idx.od_flat])  # upper off-diagonals

    @cached_property
    def total(self) -> np.ndarray:  # lower row sums over every position
        return _ordered_sum(self.bounds[0].entries.reshape(len(self.ldiag), -1))

    @cached_property
    def others(self) -> np.ndarray:  # ... over every position but od[i, k]
        lower = self.bounds[0].entries.reshape(len(self.ldiag), 1, -1)
        return _ordered_sum(np.where(self.lay.not_at, lower, 0.0))

    @cached_property
    def slack(self) -> np.ndarray:  # sum over t of uod[i, k] - lod[i, t]
        return _ordered_sum(self.uod[:, :, None] - self.lod[:, None, :])

    @cached_property
    def excl(self) -> np.ndarray:  # ... over t != k
        terms = self.uod[:, :, None] - self.lod[:, None, :]
        return _ordered_sum(np.where(self.lay.not_self, terms, 0.0))

    @cached_property
    def gap(self) -> np.ndarray:  # lower diagonal - upper off-diagonal
        return _frozen(self.ldiag[:, None] - self.uod)

    @cached_property
    def upos(self) -> np.ndarray:  # max(0, every upper off-diagonal)
        return _frozen(_pos(self.uod.max(axis=1, initial=0.0)))

    @cached_property
    def negl(self) -> np.ndarray:  # minus the lower off-diagonal sum
        if not self.lod.shape[1]:  # +0.0, not minus an empty sum
            return self.lay.zeros
        return _frozen(-_ordered_sum(self.lod))


def _kernel(AI: IntervalTensor) -> _RowKernel:
    k = AI._kernel
    if k is None or k.bounds[0] is not AI.lower or k.bounds[1] is not AI.upper:
        k = AI._kernel = _RowKernel(AI)
    return k


def _block(condition, lhs, rhs, tol, strict=True, **index) -> LedgerBlock:
    """The records of one condition, ``lhs > rhs - tol`` (``>=`` unless
    ``strict``); ``index`` holds the index columns."""
    rhs_tol = rhs - tol if tol else rhs  # x - 0.0 is x, also for -0.0
    passed = lhs > rhs_tol if strict else lhs >= rhs_tol
    return LedgerBlock(condition, lhs=lhs, rhs=rhs, passed=passed, **index)


def _ledger(AI: IntervalTensor, blocks) -> Ledger:
    return Ledger([b for b in blocks if len(b.lhs)], AI.order, AI.dim)


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
        rhs = _pos(q * k.uod + k.lod).ravel()
        return (_block("b", np.repeat(k.total, q), rhs, tol, **lay.position),)
    total = _block("a", k.total, lay.zeros, tol, **lay.row)
    if method == "compact":
        return (total,)
    if method == "theorem":
        lhs, rhs = k.others, q * k.uod
    elif method == "slack":
        lhs, rhs = k.ldiag[:, None] - k.lod, k.slack
    else:  # pairwise
        lhs, rhs = k.gap, k.excl
    return total, _block("b", lhs.ravel(), rhs.ravel(), tol, **lay.position)


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
    magnitude = np.maximum(np.abs(k.uod), np.abs(lod)).ravel()
    ledger = _ledger(AI, (
        _block("a", ldiag, neg, tol, **lay.row),
        _block("b", np.repeat(ldiag, lod.shape[1]), magnitude, tol, **lay.position),
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
    c1_lhs = (gap[iu][:, :, None] * gap[ju][:, None, :]).ravel()
    c1_rhs = (b1_rhs[iu][:, :, None] * b1_rhs[ju][:, None, :]).ravel()
    c2_lhs = (gap[ii] * ldiag[jj][:, None]).ravel()
    c2_rhs = (b1_rhs[ii] * negsum[jj][:, None]).ravel()
    c1, c2, c3 = _pair_layout(AI.order, AI.dim)
    blocks = (
        _block("a", ldiag, k.upos, tol, **k.lay.row),
        _block("b1", gap.ravel(), b1_rhs.ravel(), tol, False, **k.lay.position),
        _block("b2", ldiag, negsum, tol, False, **k.lay.row),
        _block("c1", c1_lhs, c1_rhs, tol, **c1),
        _block("c2", c2_lhs, c2_rhs, tol, **c2),
        _block("c3", ldiag[iu] * ldiag[ju], negsum[iu] * negsum[ju], tol, **c3),
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
    slack_ok = pairwise.passed.reshape(AI.dim, -1)
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
    rl, il, jl = b1 + b2, [p[0] for p in pairs], [p[1] for p in pairs]
    nb1, c1 = len(b1), len(b1) * (len(b1) - 1) // 2
    c2 = c1 + len(b1) * len(b2)
    r, i, j = (np.array(x, dtype=np.intp) for x in (rl, il, jl))
    b = _block("b", left[r], right[r], tol, strict=False, rows=rl)
    c = _block("c", left[i] * left[j], right[i] * right[j], tol, rows=il)
    bl, br, bp, rt = (x.tolist() for x in (b.lhs, b.rhs, b.passed, tails[r]))
    cl, cr, cp, it, jt = (
        x.tolist() for x in (c.lhs, c.rhs, c.passed, tails[i], tails[j]))
    ledger = _ledger(AI, (
        _block("a", k.ldiag, k.upos, tol, **k.lay.row),
        LedgerBlock("b1", rl[:nb1], bl[:nb1], br[:nb1], bp[:nb1], tails=rt[:nb1]),
        LedgerBlock("b2", rl[nb1:], bl[nb1:], br[nb1:], bp[nb1:]),
        LedgerBlock("c1", il[:c1], cl[:c1], cr[:c1], cp[:c1], jl[:c1], it[:c1],
                    jt[:c1]),
        LedgerBlock("c2", il[c1:c2], cl[c1:c2], cr[c1:c2], cp[c1:c2], jl[c1:c2],
                    it[c1:c2]),
        LedgerBlock("c3", il[c2:], cl[c2:], cr[c2:], cp[c2:], jl[c2:]),
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
    n, q = lod.shape
    # covers[i, k, t]: position t's upper bound is at or below k's lower bound.
    covers = uod[:, None, :] <= lod[:, :, None]
    covers.reshape(n, q * q)[:, :: q + 1] = True
    dominated = covers.all(axis=2).any(axis=1)
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
        ok = maxl >= 0.0 - tol
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
    q = k.lod.shape[1]
    tails = k.lay.position["tails"][:q]
    blocks = (
        _block("c1", k.ldiag[:1], k.negl[:1], tol, rows=(0,)),
        _block("c2", k.gap[0], k.excl[0], tol, rows=(0,) * q, tails=tails),
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

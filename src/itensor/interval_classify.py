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
of a condition id, and builds each record only when it is read; the
double-B test fills its blocks as numpy arrays, the other criteria from
Python lists.  ``verdict_report`` (also bound here as
``interval_verdict_report``) writes it as ``Ledger.dicts()``, a lazy
sequence of dicts, not a list; ``Ledger.summary()`` condenses it to one
group per condition id and row (or row pair), the form the CLI writes by
default.  Rows and trailing indices in records and witnesses are 1-based.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .classify import (
    Status,
    Verdict,
    Witness,
    DichotomyAnomaly,
    check_double_b,
    verdict_report,
    _ge,
    _gt,
)
from .interval import (
    IntervalTensor,
    argmax_upper_offdiag,
    extreme_hat,
    extreme_row_max_except,
    is_interval_z,
    is_symmetric_interval,
)
from .tensor import (
    diag_tail_flat,
    is_circulant,
    offdiag_tail_flats,
    ordered_sum,
    row_layout,
    tail1,
)

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


class _LedgerBuilder:
    """Fills a ledger one record at a time from Python values.

    A new block opens whenever the condition id, or which of the optional
    columns it uses, changes from the previous record.
    """

    def __init__(self, AI: IntervalTensor):
        self.AI = AI
        self.blocks: list[LedgerBlock] = []
        self._key = None

    def add(self, condition, row, lhs, rhs, passed, tail=None, pair_row=None,
            pair_tail=None) -> None:
        key = (condition, pair_row is None, tail is None, pair_tail is None)
        if key != self._key:
            self._key = key
            self.blocks.append(
                LedgerBlock(
                    condition, [], [], [], [],
                    None if pair_row is None else [],
                    None if tail is None else [],
                    None if pair_tail is None else [],
                )
            )
        b = self.blocks[-1]
        b.rows.append(row)
        b.lhs.append(lhs)
        b.rhs.append(rhs)
        b.passed.append(passed)
        if pair_row is not None:
            b.pair_rows.append(pair_row)
        if tail is not None:
            b.tails.append(tail)
        if pair_tail is not None:
            b.pair_tails.append(pair_tail)

    def ledger(self) -> Ledger:
        return Ledger(self.blocks, self.AI.order, self.AI.dim)


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


def _excl_sum(u_val: float, lrow: list[float], od: tuple[int, ...], skip: int) -> float:
    """Sum of (u_val - lower entry) over off-diagonal positions except ``skip``."""
    s = 0.0
    for t in od:
        if t != skip:
            s += u_val - lrow[t]
    return s


class _Rows:
    """Per-row endpoint quantities shared by the interval criteria."""

    def __init__(self, AI: IntervalTensor):
        self.AI = AI
        n = AI.dim
        self.lrow = [AI.lower.row_list(i) for i in range(n)]
        self.urow = [AI.upper.row_list(i) for i in range(n)]
        self.od = [offdiag_tail_flats(AI.lower, i) for i in range(n)]
        self.ldiag = [
            self.lrow[i][diag_tail_flat(i, AI.order, n)] for i in range(n)
        ]
        # Negated lower off-diagonal row sums; a row without off-diagonal
        # positions (dim 1) gets the float +0.0, not the empty sum's int 0.
        self.neg_lsum_od = [
            -ordered_sum(self.lrow[i][t] for t in self.od[i]) if self.od[i] else 0.0
            for i in range(n)
        ]

    def lrow_total(self, i1: int) -> float:
        return ordered_sum(self.lrow[i1])

    def excl(self, i1: int, j: int) -> float:
        """Slack sum of row i1 anchored at j's upper bound, skipping j."""
        return _excl_sum(self.urow[i1][j], self.lrow[i1], self.od[i1], j)

    def max_upper_od(self, i1: int) -> float | None:
        k = argmax_upper_offdiag(self.AI, i1)
        return None if k is None else self.urow[i1][k]


def _verdict(method: str, ledger: Ledger) -> Verdict:
    rec = ledger.first_failure()
    if rec is None:
        return Verdict(Status.HOLDS, method, conditions=ledger)
    witness = Witness(
        rec.rows[0],
        rec.condition,
        rec.lhs,
        rec.rhs,
        rec.tail,
        rec.rows[1] if len(rec.rows) > 1 else None,
        rec.pair_tail,
    )
    return Verdict(Status.FAILS, method, witness, ledger)


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
    rows = _Rows(AI)
    n, r = AI.dim, AI.row_len
    led = _LedgerBuilder(AI)

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
    else:  # pairwise
        for i1 in range(n):
            s = rows.lrow_total(i1)
            led.add("a", i1, s, 0.0, _gt(s, 0.0, tol))
        for i1 in range(n):
            for j in rows.od[i1]:
                lhs = rows.ldiag[i1] - rows.urow[i1][j]
                rhs = rows.excl(i1, j)
                led.add("b", i1, lhs, rhs, _gt(lhs, rhs, tol), j)
    return _verdict(f"interval_b_{method}", led.ledger())


def check_interval_b_zfast(AI: IntervalTensor, tol: float = 0.0) -> Verdict:
    """Fast B-family test for interval Z tensors: positive lower row sums
    alone decide membership."""
    if not is_interval_z(AI):
        raise ValueError("interval is not an interval Z tensor")
    rows = _Rows(AI)
    led = _LedgerBuilder(AI)
    for i1 in range(AI.dim):
        s = rows.lrow_total(i1)
        led.add("a", i1, s, 0.0, _gt(s, 0.0, tol))
    return _verdict("interval_b_zfast", led.ledger())


def interval_b_necessary(AI: IntervalTensor, tol: float = 0.0) -> NecessaryReport:
    """Necessary conditions for the interval B class.

    Per row: the lower diagonal beats the absolute sum of negative lower
    off-diagonal entries (id a); it beats every off-diagonal magnitude from
    either bound (id b); and it beats the largest off-diagonal upper bound
    (id r).  Any failure certifies the family is not interval B.
    """
    rows = _Rows(AI)
    led = _LedgerBuilder(AI)
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
        m = rows.max_upper_od(i1)
        rhs = max(0.0, m) if m is not None else 0.0
        led.add("r", i1, rows.ldiag[i1], rhs, _gt(rows.ldiag[i1], rhs, tol))
    ledger = led.ledger()
    return NecessaryReport(
        "interval_b_necessary", ledger.first_failure() is None, ledger
    )


class _IndexColumn(tuple):
    """A cached layout index column: a tuple of ints for records and the
    full report writer, whose integer array ``Ledger._column`` builds once,
    on first use."""

    @cached_property
    def array(self) -> np.ndarray:
        return np.array(self, dtype=np.intp)


class _DoubleBLayout(NamedTuple):
    """Index columns of the double-B ledger blocks for one (order, dim):
    ``_IndexColumn``s of 0-based rows and flat tails."""

    rows: tuple  # a, b2
    b1: tuple  # (rows, tails)
    c1: tuple  # (rows, pair_rows, tails, pair_tails)
    c2: tuple  # (rows, pair_rows, tails)
    c3: tuple  # (rows, pair_rows)


@lru_cache(maxsize=32)
def _double_b_layout(order: int, dim: int) -> _DoubleBLayout:
    lay = row_layout(order, dim)
    n, q = lay.od.shape
    row_ids = np.arange(n)
    iu, ju, ii, jj, od = lay.iu, lay.ju, lay.ii, lay.jj, lay.od

    def col(a) -> _IndexColumn:
        return _IndexColumn(np.asarray(a).ravel().tolist())

    return _DoubleBLayout(
        rows=col(row_ids),
        b1=(col(np.repeat(row_ids, q)), col(od)),
        c1=(
            col(np.repeat(iu, q * q)),
            col(np.repeat(ju, q * q)),
            col(np.broadcast_to(od[iu][:, :, None], (len(iu), q, q))),
            col(np.broadcast_to(od[ju][:, None, :], (len(iu), q, q))),
        ),
        c2=(col(np.repeat(ii, q)), col(np.repeat(jj, q)), col(od[ii])),
        c3=(col(iu), col(ju)),
    )


def _pos(x: np.ndarray) -> np.ndarray:
    """max(0.0, x) as Python evaluates it: +0.0 unless x > 0, so a -0.0
    reads +0.0 (np.maximum would keep the -0.0)."""
    return np.where(x > 0.0, x, 0.0)


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
    a, b1, b2, c1, c2, c3, then rows, then tail offsets.

    Each condition is one block of array columns.  Every value is the same
    double the scalar definition gives: differences and products are
    elementwise, and sums run from +0.0 in ascending offset order.
    """
    idx = row_layout(AI.order, AI.dim)
    lay = _double_b_layout(AI.order, AI.dim)
    n, q = idx.od.shape
    rows = np.arange(n)
    lower = AI.lower.entries.reshape(n, -1)
    ldiag = lower[rows, idx.diag]
    lod = lower[rows[:, None], idx.od]
    uod = AI.upper.entries.reshape(n, -1)[rows[:, None], idx.od]

    a_rhs = _pos(uod.max(axis=1, initial=0.0))
    gap = ldiag[:, None] - uod
    # terms[i, k, t] = u[i, k] - l[i, t]; position k skips itself, and
    # adding +0.0 leaves a sum that starts from +0.0 unchanged.
    terms = uod[:, :, None] - lod[:, None, :]
    terms[:, np.arange(q), np.arange(q)] = 0.0
    slack = np.zeros((n, q))
    lsum = np.zeros(n)
    for t in range(q):
        slack += terms[:, :, t]
        lsum += lod[:, t]
    b1_rhs = _pos(slack)
    negsum = _pos(-lsum)

    iu, ju, ii, jj = idx.iu, idx.ju, idx.ii, idx.jj
    c1_lhs = (gap[iu][:, :, None] * gap[ju][:, None, :]).ravel()
    c1_rhs = (b1_rhs[iu][:, :, None] * b1_rhs[ju][:, None, :]).ravel()
    c2_lhs = (gap[ii] * ldiag[jj][:, None]).ravel()
    c2_rhs = (b1_rhs[ii] * negsum[jj][:, None]).ravel()
    c3_lhs = ldiag[iu] * ldiag[ju]
    c3_rhs = negsum[iu] * negsum[ju]
    gap, b1_rhs = gap.ravel(), b1_rhs.ravel()

    b1_rows, b1_tails = lay.b1
    c1_rows, c1_pairs, c1_tails, c1_pair_tails = lay.c1
    c2_rows, c2_pairs, c2_tails = lay.c2
    c3_rows, c3_pairs = lay.c3
    blocks = (
        LedgerBlock("a", lay.rows, ldiag, a_rhs, ldiag > a_rhs - tol),
        LedgerBlock("b1", b1_rows, gap, b1_rhs, gap >= b1_rhs - tol,
                    tails=b1_tails),
        LedgerBlock("b2", lay.rows, ldiag, negsum, ldiag >= negsum - tol),
        LedgerBlock("c1", c1_rows, c1_lhs, c1_rhs, c1_lhs > c1_rhs - tol,
                    c1_pairs, c1_tails, c1_pair_tails),
        LedgerBlock("c2", c2_rows, c2_lhs, c2_rhs, c2_lhs > c2_rhs - tol,
                    c2_pairs, c2_tails),
        LedgerBlock("c3", c3_rows, c3_lhs, c3_rhs, c3_lhs > c3_rhs - tol,
                    c3_pairs),
    )
    return _verdict("interval_double_b", Ledger(blocks, AI.order, AI.dim))


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
    rows = _Rows(AI)
    failing: list[tuple[int, str, int | None]] = []
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
        return IntervalDichotomy("interval_b")
    if len(failing) > 1:
        raise DichotomyAnomaly(
            f"critical-row conditions fail in rows {[f[0] + 1 for f in failing]},"
            " expected exactly one",
            [f[0] + 1 for f in failing],
        )
    i1, mode, j = failing[0]
    return IntervalDichotomy(
        "critical_row",
        i1 + 1,
        mode,
        None if j is None else tail1(AI, j),
    )


def interval_double_b_necessary(
    AI: IntervalTensor, variant: str = "extremes", tol: float = 0.0
) -> NecessaryReport:
    """Necessary conditions for the interval double B class.

    extremes: the lower bound and, for each row index i, the member raising
    every other row's largest-upper off-diagonal position must all be double
    B-tensors.  rowmax: the six endpoint conditions evaluated only at each
    row's argmax position, with the branch chosen by that maximum's sign.
    """
    if variant == "extremes":
        members = [("lower", AI.lower)]
        for i1 in range(AI.dim):
            members.append(
                (f"row_max_except_{i1 + 1}", extreme_row_max_except(AI, i1))
            )
        verdicts = tuple((label, check_double_b(T, tol=tol)) for label, T in members)
        return NecessaryReport(
            "extremes",
            all(v.holds() for _, v in verdicts),
            member_verdicts=verdicts,
        )
    if variant != "rowmax":
        raise ValueError(f"unknown variant {variant!r}")

    rows = _Rows(AI)
    n = AI.dim
    led = _LedgerBuilder(AI)
    arg = [argmax_upper_offdiag(AI, i1) for i1 in range(n)]
    maxu = [None if arg[i1] is None else rows.urow[i1][arg[i1]] for i1 in range(n)]
    # Rows without off-diagonal positions behave like the nonpositive branch.
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
    ledger = led.ledger()
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
    rows = _Rows(AI)
    for i1 in range(AI.dim):
        lrow, urow = rows.lrow[i1], rows.urow[i1]
        found = None
        for k in rows.od[i1]:
            if all(urow[t] <= lrow[k] for t in rows.od[i1] if t != k):
                found = k
                break
        if found is None:
            # Best candidate is the largest lower entry; report the upper
            # bound elsewhere in the row that blocks it.
            best = max(rows.od[i1], key=lambda t: lrow[t])
            block = max(urow[t] for t in rows.od[i1] if t != best)
            return Verdict(
                Status.INCONCLUSIVE,
                method,
                Witness(i1 + 1, "hypothesis", lrow[best], block, tail1(AI, best)),
            )
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
    rows = _Rows(AI)
    for i1 in range(AI.dim):
        if not rows.od[i1]:
            continue
        maxl = max(rows.lrow[i1][t] for t in rows.od[i1])
        if not _ge(maxl, 0.0, tol):
            return Verdict(
                Status.INCONCLUSIVE,
                method,
                Witness(i1 + 1, "hypothesis", maxl, 0.0),
            )
    v = check_double_b(extreme_hat(AI), tol=tol)
    if v.holds():
        return Verdict(Status.HOLDS, method)
    return Verdict(Status.INCONCLUSIVE, method, v.witness)


def check_interval_circulant(AI: IntervalTensor, tol: float = 0.0) -> Verdict:
    """Row-0 criterion for families with circulant bounds.

    For circulant bounds the interval B and interval double B classes
    coincide and are decided by two first-row conditions: a positive lower
    row sum (c1) and the strict pairwise slack inequality at every
    off-diagonal position (c2).
    """
    if not (is_circulant(AI.lower) and is_circulant(AI.upper)):
        raise ValueError("interval bounds are not circulant")
    rows = _Rows(AI)
    led = _LedgerBuilder(AI)
    rhs = rows.neg_lsum_od[0]
    led.add("c1", 0, rows.ldiag[0], rhs, _gt(rows.ldiag[0], rhs, tol))
    for j in rows.od[0]:
        lhs = rows.ldiag[0] - rows.urow[0][j]
        rhs = rows.excl(0, j)
        led.add("c2", 0, lhs, rhs, _gt(lhs, rhs, tol), j)
    return _verdict("interval_circulant", led.ledger())


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

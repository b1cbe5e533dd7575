"""Membership checks for a single dense tensor.

Covers the B class (three equivalent criteria), strict/weak diagonal
domination, the Z class (nonpositive off-diagonal convention), the double B
class with its three named conditions, the double-B trichotomy, the
single-row criterion for circulant tensors, P-tensor sufficiency, and a
deterministic sampling falsifier for the P property.

The falsifier's candidates depend only on (dim, budget, seed) and the block
length.  A candidate set of at most ``P_BLOCK_ENTRIES`` entries (512 KB) is
drawn once and replayed to every later call with the same key, so the
members of one family share one draw, and larger sets are drawn anew on
every call.  When the whole set's Kronecker power at the tensor's order has
at most twice as many entries (1 MB), each block's contiguous transpose and
power are kept with it, so a replayed call is one matrix product per block.
The last 16 sets are kept: 512 KB of candidates and at most 1.5 MB of
transposes and powers each, 32 MB in all.  Candidates, block boundaries, the
exact recheck and the early stop are the same either way, and so is every
result.

Verdicts are three-valued.  A failing verdict carries a witness holding the
1-based row, the offending trailing multi-index or row pair, and the two
sides of the violated inequality, all recomputable from the input.  Strict
and non-strict comparisons are evaluated exactly by default; an optional
tolerance ``tol`` relaxes every comparison toward acceptance by that amount.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .tensor import (
    Tensor,
    diag_tail_flat,
    gamma_plus,
    is_circulant,
    is_symmetric,
    kron_power_t,
    offdiag_tail_flats,
    ordered_sum,
    tail1,
    tensor_apply,
    tensor_apply_many,
)

__all__ = [
    "Status",
    "Witness",
    "Verdict",
    "FalsifyResult",
    "DoubleBDichotomy",
    "DichotomyAnomaly",
    "B_METHODS",
    "check_b",
    "check_dd",
    "check_z",
    "check_double_b",
    "classify_double_b_dichotomy",
    "check_b_circulant",
    "p_sufficient",
    "falsify_p",
    "verdict_report",
]


class Status(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Witness:
    """The first violated inequality: its location and both sides.

    ``row`` and ``pair_row`` are 1-based; ``tail``/``pair_tail`` are 1-based
    trailing multi-indices.  ``condition`` names the violated clause (a, b,
    c for point criteria; a, b1, b2, c1, c2, c3 for interval criteria).
    """

    row: int
    condition: str
    lhs: float
    rhs: float
    tail: tuple[int, ...] | None = None
    pair_row: int | None = None
    pair_tail: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Verdict:
    """The outcome of every criterion: point, interval and vertex oracle.

    ``conditions`` is the interval criteria's condition ledger (an
    ``interval_classify.Ledger``, empty elsewhere); ``failing_tensor`` and
    ``vertices_checked`` are the vertex oracle's failing member and the
    number of vertices it checked.  Both are left out of the hash: a
    ``Tensor`` is unhashable, and hashing a ledger would build every record.
    """

    status: Status
    method: str
    witness: Witness | None = None
    conditions: Sequence = field(default=(), hash=False)
    failing_tensor: Tensor | None = field(default=None, hash=False)
    vertices_checked: int = 0

    def holds(self) -> bool:
        return self.status is Status.HOLDS


@dataclass(frozen=True)
class FalsifyResult:
    falsified: bool
    counterexample_x: tuple[float, ...] | None
    samples_used: int
    seed: int


@dataclass(frozen=True)
class DoubleBDichotomy:
    """Trichotomy for the double-B class: kind is one of ``is_b``,
    ``critical_row`` (with the unique 1-based slack-equality row), or
    ``not_double_b``."""

    kind: str
    critical_row: int | None = None


class DichotomyAnomaly(RuntimeError):
    """Raised when a dichotomy's uniqueness claim fails on the given input."""

    def __init__(self, message: str, rows: Sequence[int]):
        super().__init__(message)
        self.rows = tuple(rows)


B_METHODS = ("definition", "rowsum_gamma", "slack")


def _gt(lhs: float, rhs: float, tol: float) -> bool:
    return lhs > rhs - tol


def _ge(lhs: float, rhs: float, tol: float) -> bool:
    return lhs >= rhs - tol


def _eq(lhs: float, rhs: float, tol: float) -> bool:
    return abs(lhs - rhs) <= tol


def _slack_parts(A: Tensor, i1: int) -> tuple[float, float]:
    """(diag - gamma_plus, sum of (gamma_plus - entry) over off-diagonal)."""
    row = A.row_list(i1)
    g = gamma_plus(A, i1)
    d = row[diag_tail_flat(i1, A.order, A.dim)]
    s = 0.0
    for f in offdiag_tail_flats(A, i1):
        s += g - row[f]
    return d - g, s


def check_b(A: Tensor, method: str = "definition", tol: float = 0.0) -> Verdict:
    """Decide B membership; the three methods agree in status on every input.

    definition: positive row sums and (row sum)/n**(m-1) above every
    off-diagonal entry; rowsum_gamma: row sum above n**(m-1) times the
    nonnegative row maximum; slack: diagonal surplus above the summed gaps
    to the row maximum.  Failure reports the first violated row in row-major
    order.
    """
    if method not in B_METHODS:
        raise ValueError(f"unknown B method {method!r}")
    r = A.row_len
    for i1 in range(A.dim):
        row = A.row_list(i1)
        if method == "definition":
            s = ordered_sum(row)
            if not _gt(s, 0.0, tol):
                return _fails(method, i1, "a", s, 0.0)
            mean = s / r
            for f in offdiag_tail_flats(A, i1):
                if not _gt(mean, row[f], tol):
                    return _fails(method, i1, "b", mean, row[f], tail1(A, f))
        elif method == "rowsum_gamma":
            s = ordered_sum(row)
            g = gamma_plus(A, i1)
            if not _gt(s, r * g, tol):
                cond, tail = "a", None
                if g > 0.0:
                    cond = "b"
                    for f in offdiag_tail_flats(A, i1):
                        if row[f] == g:
                            tail = tail1(A, f)
                            break
                return _fails(method, i1, cond, s, r * g, tail)
        else:  # slack
            lhs, rhs = _slack_parts(A, i1)
            if not _gt(lhs, rhs, tol):
                return _fails(method, i1, "b", lhs, rhs)
    return Verdict(Status.HOLDS, method)


def _fails(method, i1, cond, lhs, rhs, tail=None, pair_row=None, pair_tail=None):
    return Verdict(
        Status.FAILS,
        method,
        Witness(i1 + 1, cond, lhs, rhs, tail, pair_row, pair_tail),
    )


def check_dd(A: Tensor, strict: bool = True, tol: float = 0.0) -> Verdict:
    """Diagonal domination: each diagonal entry exceeds (strict) or reaches
    (weak) the absolute sum of its row's off-diagonal entries."""
    method = "dd_strict" if strict else "dd_weak"
    cmp = _gt if strict else _ge
    for i1 in range(A.dim):
        row = A.row_list(i1)
        d = row[diag_tail_flat(i1, A.order, A.dim)]
        s = 0.0
        for f in offdiag_tail_flats(A, i1):
            s += abs(row[f])
        if not cmp(d, s, tol):
            return _fails(method, i1, "a", d, s)
    return Verdict(Status.HOLDS, method)


def check_z(A: Tensor, tol: float = 0.0) -> Verdict:
    """Z membership: every off-diagonal entry <= 0."""
    for i1 in range(A.dim):
        row = A.row_list(i1)
        for f in offdiag_tail_flats(A, i1):
            if row[f] > tol:
                return _fails("offdiag_sign", i1, "a", row[f], 0.0, tail1(A, f))
    return Verdict(Status.HOLDS, "offdiag_sign")


def check_double_b(A: Tensor, tol: float = 0.0) -> Verdict:
    """Decide double-B membership via its three conditions.

    Per row: (a) the diagonal entry exceeds the nonnegative row maximum,
    (b) the diagonal surplus covers the summed gaps to the row maximum;
    (c) per row pair, the product of surpluses strictly exceeds the product
    of summed gaps.  Conditions are scanned in the order a, b, c.
    """
    n = A.dim
    gam = [gamma_plus(A, i) for i in range(n)]
    diag = [A.row_list(i)[diag_tail_flat(i, A.order, n)] for i in range(n)]
    parts = [_slack_parts(A, i) for i in range(n)]
    for i1 in range(n):
        if not _gt(diag[i1], gam[i1], tol):
            return _fails("double_b", i1, "a", diag[i1], gam[i1])
    for i1 in range(n):
        lhs, rhs = parts[i1]
        if not _ge(lhs, rhs, tol):
            return _fails("double_b", i1, "b", lhs, rhs)
    for i1 in range(n):
        for j1 in range(i1 + 1, n):
            lhs = parts[i1][0] * parts[j1][0]
            rhs = parts[i1][1] * parts[j1][1]
            if not _gt(lhs, rhs, tol):
                return _fails("double_b", i1, "c", lhs, rhs, pair_row=j1 + 1)
    return Verdict(Status.HOLDS, "double_b")


def classify_double_b_dichotomy(A: Tensor, tol: float = 0.0) -> DoubleBDichotomy:
    """For a double-B tensor, separate the B case from the unique critical row.

    A double-B tensor either satisfies every row's strict slack inequality
    (and is then a B-tensor) or has exactly one row where the slack holds
    with equality.  Inputs outside the double-B class map to
    ``not_double_b``; a non-unique equality row raises DichotomyAnomaly.
    """
    if not check_double_b(A, tol=tol).holds():
        return DoubleBDichotomy("not_double_b")
    equal_rows = []
    for i1 in range(A.dim):
        lhs, rhs = _slack_parts(A, i1)
        if _eq(lhs, rhs, tol):
            equal_rows.append(i1)
    if not equal_rows:
        return DoubleBDichotomy("is_b")
    if len(equal_rows) > 1:
        raise DichotomyAnomaly(
            f"slack equality in rows {[i + 1 for i in equal_rows]}, expected one",
            [i + 1 for i in equal_rows],
        )
    return DoubleBDichotomy("critical_row", equal_rows[0] + 1)


def check_b_circulant(A: Tensor, tol: float = 0.0) -> Verdict:
    """Single-row B criterion for circulant tensors: the row-0 slack
    inequality decides membership for the whole tensor."""
    if not is_circulant(A):
        raise ValueError("input tensor is not circulant")
    lhs, rhs = _slack_parts(A, 0)
    if _gt(lhs, rhs, tol):
        return Verdict(Status.HOLDS, "circulant_row")
    return _fails("circulant_row", 0, "b", lhs, rhs)


def p_sufficient(A: Tensor, tol: float = 0.0) -> Verdict:
    """Sufficient conditions for the P property (never returns FAILS).

    Holds for even order when the tensor is a B-tensor that is Z or
    symmetric, or a symmetric double B-tensor; otherwise inconclusive.
    """
    if A.order % 2 != 0:
        return Verdict(Status.INCONCLUSIVE, "even_order_required")
    is_b = check_b(A, tol=tol).holds()
    if is_b and check_z(A, tol=tol).holds():
        return Verdict(Status.HOLDS, "b_and_z")
    sym = is_symmetric(A)
    if is_b and sym:
        return Verdict(Status.HOLDS, "b_and_symmetric")
    if sym and check_double_b(A, tol=tol).holds():
        return Verdict(Status.HOLDS, "double_b_and_symmetric")
    return Verdict(Status.INCONCLUSIVE, "no_sufficient_branch")


# Rows per candidate block of falsify_p, as entries of the block's Kronecker
# power (rows * n**(m-1)); bounds its memory whatever the budget.  A whole
# candidate set of at most this many entries (512 KB) is also kept for reuse.
P_BLOCK_ENTRIES = 1 << 16


def _p_blocks(n: int, budget: int, seed: int, rows: int) -> Iterator[np.ndarray]:
    """Deterministic candidate vectors: the signed basis vectors as one
    block, then in blocks of at most ``rows`` all sign vectors (dim <= 20;
    sign vector s negates component i when bit i of s is set) and
    ``budget`` seeded unit-sphere samples.  The samples are drawn block by
    block from one generator, which gives the same numbers as one draw."""
    yield np.vstack([np.eye(n), -np.eye(n)])
    if n <= 20:
        bits = np.arange(n, dtype=np.int64)
        for start in range(0, 1 << n, rows):
            s = np.arange(start, min(start + rows, 1 << n), dtype=np.int64)
            yield 1.0 - 2.0 * ((s[:, None] >> bits) & 1)
    rng = np.random.default_rng(seed)
    for start in range(0, budget, rows):
        draws = rng.standard_normal((min(rows, budget - start), n))
        norms = np.linalg.norm(draws, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        yield draws / norms


class _Replay:
    """``_p_blocks(*key)`` drawn once and replayed: ``blocks`` holds the
    blocks drawn so far, read-only, and the generator continues the stream.
    Each block is drawn by the first iteration to reach it, so an early
    stop leaves the later blocks undrawn.  ``powers`` holds, per (block
    index, order), the block's contiguous transpose and its transposed
    Kronecker power, read-only, built by the first ``power`` call."""

    def __init__(self, key: tuple[int, int, int, int]):
        self.key = key
        self.blocks: list[np.ndarray] = []
        self.powers: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._source = _p_blocks(*key)
        self._lock = threading.Lock()

    def __iter__(self) -> Iterator[np.ndarray]:
        k = 0
        while True:
            if k == len(self.blocks):
                with self._lock:
                    if k == len(self.blocks) and not self._draw():
                        return
            yield self.blocks[k]
            k += 1

    def _draw(self) -> bool:
        try:
            X = next(self._source, None)
        except BaseException:
            # A draw cut short (an interrupt, no memory) ends the generator:
            # restart it past the blocks already kept.
            self._source = itertools.islice(
                _p_blocks(*self.key), len(self.blocks), None)
            raise
        if X is None:
            return False
        X.flags.writeable = False
        self.blocks.append(X)
        return True

    def power(self, k: int, order: int) -> tuple[np.ndarray, np.ndarray]:
        """(contiguous X.T, ``kron_power_t(X.T, order)``) of block k, kept
        only once both are built."""
        got = self.powers.get((k, order))
        if got is None:
            with self._lock:
                got = self.powers.get((k, order))
                if got is None:
                    XT = np.ascontiguousarray(self.blocks[k].T)
                    got = (XT, kron_power_t(XT, order))
                    for arr in got:
                        arr.flags.writeable = False
                    self.powers[k, order] = got
        return got


@lru_cache(maxsize=16)
def _p_stream(n: int, budget: int, seed: int, rows: int) -> _Replay:
    return _Replay((n, budget, seed, rows))


# Held around ``_p_stream``: two threads missing the cache at once would
# otherwise each get a replay of their own, and each keep its own blocks.
_p_stream_lock = threading.Lock()


def falsify_p(A: Tensor, budget: int, seed: int) -> FalsifyResult:
    """Search for a vector refuting the P property of A.

    A candidate x falsifies when max_i x_i * (A x^(m-1))_i <= 0.  Candidates
    are scanned in a fixed order, block by block, and the first falsifier
    (by index, under the exact entrywise evaluation) is reported; the scan
    stops at the first block holding one.  Absence of a falsifier is not a
    membership certificate.  With an integer seed, a candidate set of at
    most ``P_BLOCK_ENTRIES`` entries is replayed from ``_p_stream``; when
    its whole Kronecker power has at most twice that many entries, each
    block's power is replayed too and the contraction is one product.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    # Batched accumulation order can differ from tensor_apply by a few ulps;
    # anything at or below this margin is re-decided exactly.
    margin = 1e-9 * (1.0 + float(np.max(np.abs(A.entries))) * A.row_len)
    n, rows = A.dim, max(1, P_BLOCK_ENTRIES // A.row_len)
    count = 2 * n + (1 << n if n <= 20 else 0) + budget
    kept = count * n <= P_BLOCK_ENTRIES and isinstance(seed, (int, np.integer))
    replay_power = kept and count * A.row_len <= 2 * P_BLOCK_ENTRIES
    if kept:
        with _p_stream_lock:
            stream = _p_stream(n, budget, seed, rows)
    else:
        stream = _p_blocks(n, budget, seed, rows)
    seen = 0
    for k, X in enumerate(stream):
        XT, power = stream.power(k, A.order) if replay_power else (X.T, None)
        # Reduced over the transposed views, which is faster; the order of
        # a maximum changes at most the sign of a zero, which the filter
        # below ignores.
        vals = np.max(XT * tensor_apply_many(A, X, power=power).T, axis=0)
        for idx in np.nonzero(vals <= margin)[0]:
            x = X[int(idx)]
            exact = max(x[i] * v for i, v in enumerate(tensor_apply(A, x)))
            if exact <= 0.0:
                return FalsifyResult(
                    True, tuple(float(v) for v in x), seen + int(idx) + 1, seed
                )
        seen += len(X)
    return FalsifyResult(False, None, seen, seed)


def verdict_report(v: Verdict, class_id: str) -> dict:
    """Serializable report form of a verdict; a condition ledger is added as
    a lazy sequence of dicts, not a list."""
    out = {"class": class_id, "method": v.method, "status": v.status.value}
    if v.witness is not None:
        w = v.witness
        wd = {"row": w.row, "condition": w.condition, "lhs": w.lhs, "rhs": w.rhs}
        if w.tail is not None:
            wd["index"] = list(w.tail)
        if w.pair_row is not None:
            wd["pair_row"] = w.pair_row
        if w.pair_tail is not None:
            wd["pair_index"] = list(w.pair_tail)
        out["witness"] = wd
    if v.conditions:
        out["conditions"] = v.conditions.dicts()
    return out

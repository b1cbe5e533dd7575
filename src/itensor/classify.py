"""Membership checks for a single dense tensor.

Covers the B class (three equivalent criteria), strict/weak diagonal
domination, the Z class (nonpositive off-diagonal convention), the double B
class with its three named conditions, the double-B trichotomy, the
single-row criterion for circulant tensors, P-tensor sufficiency, and a
deterministic sampling falsifier for the P property.

Every point criterion reads its rows from one pass, ``_rows``: per row the
entries, the off-diagonal offsets, the diagonal entry, gamma_plus (the
nonnegative off-diagonal maximum) and the summed gaps to it.  Each criterion
keeps its own formula, witness and order of operations over those.

The falsifier's candidates depend only on (dim, budget, seed) and the block
length.  A candidate set of at most ``P_BLOCK_ENTRIES`` entries (512 KB) is
drawn whole by the first call with its key and kept, read-only, for every
later one, so the members of one family share one draw; larger sets are
drawn block by block on every call.  When the set's Kronecker power at the
tensor's order has at most twice as many entries (1 MB), each block's
contiguous transpose and power are kept too, so a later call is one matrix
product per block.  The last 16 sets and 16 powers are kept: 512 KB and at
most 1.5 MB each, 32 MB in all.  A draw or build that raises keeps nothing,
and nothing kept is written to, so threads share it without a lock.  Every
result is the same either way.

Verdicts are three-valued.  A failing verdict carries a witness holding the
1-based row, the offending trailing multi-index or row pair, and the two
sides of the violated inequality, all recomputable from the input.  Every
criterion inequality is ``beats`` on doubles, ``lhs > rhs - tol`` or ``>=``:
exact where the sides are, as on the generators' 1/16 grid, while off it a
side can round and a tie go either way.  A tolerance ``tol`` > 0 relaxes
every comparison toward acceptance by that amount.
"""

from __future__ import annotations

import itertools
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
    read_only,
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
    "beats",
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


def beats(lhs, rhs, tol=0.0, strict=True):
    """``lhs > rhs - tol`` (``>=`` unless ``strict``), on floats and
    elementwise on arrays: every criterion inequality of the package."""
    if tol:
        rhs = rhs - tol  # x - 0.0 is x, also for -0.0, so tol 0 skips it
    return lhs > rhs if strict else lhs >= rhs


def _rows(A: Tensor) -> Iterator[tuple]:
    """Per row of A, in order: (0-based index, entries, off-diagonal
    offsets, diagonal entry, gamma_plus, summed gaps to gamma_plus).  The
    gaps add the off-diagonal positions in ascending order from +0.0."""
    for i1 in range(A.dim):
        row = A.row_list(i1)
        offs = offdiag_tail_flats(A, i1)
        g = gamma_plus(A, i1)
        gaps = 0.0
        for f in offs:
            gaps += g - row[f]
        yield i1, row, offs, row[diag_tail_flat(i1, A.order, A.dim)], g, gaps


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
    for i1, row, offs, d, g, gaps in _rows(A):
        if method == "definition":
            s = ordered_sum(row)
            if not beats(s, 0.0, tol):
                return _fails(method, i1, "a", s, 0.0)
            mean = s / r
            for f in offs:
                if not beats(mean, row[f], tol):
                    return _fails(method, i1, "b", mean, row[f], tail1(A, f))
        elif method == "rowsum_gamma":
            s = ordered_sum(row)
            if not beats(s, r * g, tol):
                cond, tail = "a", None
                if g > 0.0:
                    cond = "b"
                    tail = tail1(A, next(f for f in offs if row[f] == g))
                return _fails(method, i1, cond, s, r * g, tail)
        elif not beats(d - g, gaps, tol):  # slack
            return _fails(method, i1, "b", d - g, gaps)
    return Verdict(Status.HOLDS, method)


def _fails(method, i1, cond, lhs, rhs, tail=None, pair_row=None):
    witness = Witness(i1 + 1, cond, lhs, rhs, tail, pair_row)
    return Verdict(Status.FAILS, method, witness)


def check_dd(A: Tensor, strict: bool = True, tol: float = 0.0) -> Verdict:
    """Diagonal domination: each diagonal entry exceeds (strict) or reaches
    (weak) the absolute sum of its row's off-diagonal entries."""
    method = "dd_strict" if strict else "dd_weak"
    for i1, row, offs, d, _, _ in _rows(A):
        s = 0.0
        for f in offs:
            s += abs(row[f])
        if not beats(d, s, tol, strict):
            return _fails(method, i1, "a", d, s)
    return Verdict(Status.HOLDS, method)


def check_z(A: Tensor, tol: float = 0.0) -> Verdict:
    """Z membership: every off-diagonal entry <= 0."""
    for i1, row, offs, *_ in _rows(A):
        for f in offs:
            if not beats(0.0, row[f], tol, strict=False):
                return _fails("offdiag_sign", i1, "a", row[f], 0.0, tail1(A, f))
    return Verdict(Status.HOLDS, "offdiag_sign")


def check_double_b(A: Tensor, tol: float = 0.0) -> Verdict:
    """Decide double-B membership via its three conditions.

    Per row: (a) the diagonal entry exceeds the nonnegative row maximum,
    (b) the diagonal surplus covers the summed gaps to the row maximum;
    (c) per row pair, the product of surpluses strictly exceeds the product
    of summed gaps.  Conditions are scanned in the order a, b, c.
    """
    rows = list(_rows(A))
    for i1, _, _, d, g, _ in rows:
        if not beats(d, g, tol):
            return _fails("double_b", i1, "a", d, g)
    parts = [(d - g, gaps) for _, _, _, d, g, gaps in rows]
    for i1, (lhs, rhs) in enumerate(parts):
        if not beats(lhs, rhs, tol, strict=False):
            return _fails("double_b", i1, "b", lhs, rhs)
    for i1, j1 in itertools.combinations(range(A.dim), 2):
        lhs = parts[i1][0] * parts[j1][0]
        rhs = parts[i1][1] * parts[j1][1]
        if not beats(lhs, rhs, tol):
            return _fails("double_b", i1, "c", lhs, rhs, pair_row=j1 + 1)
    return Verdict(Status.HOLDS, "double_b")


def classify_double_b_dichotomy(A: Tensor, tol: float = 0.0) -> DoubleBDichotomy:
    """For a double-B tensor, separate the B case from the unique critical row.

    A double-B tensor either satisfies every row's strict slack inequality
    (and is then a B-tensor) or has exactly one critical row, where the
    slack does not beat the summed gaps, as in ``check_b(A, "slack", tol)``;
    at tol 0 condition b makes that an equality.  Inputs outside the
    double-B class map to ``not_double_b``; a non-unique critical row raises
    DichotomyAnomaly.
    """
    if not check_double_b(A, tol=tol).holds():
        return DoubleBDichotomy("not_double_b")
    rows = [i1 + 1 for i1, _, _, d, g, gaps in _rows(A) if not beats(d - g, gaps, tol)]
    if not rows:
        return DoubleBDichotomy("is_b")
    if len(rows) > 1:
        raise DichotomyAnomaly(f"slack equality in rows {rows}, expected one", rows)
    return DoubleBDichotomy("critical_row", rows[0])


def check_b_circulant(A: Tensor, tol: float = 0.0) -> Verdict:
    """Single-row B criterion for circulant tensors: the row-0 slack
    inequality decides membership for the whole tensor."""
    if not is_circulant(A):
        raise ValueError("input tensor is not circulant")
    _, _, _, d, g, gaps = next(_rows(A))
    if beats(d - g, gaps, tol):
        return Verdict(Status.HOLDS, "circulant_row")
    return _fails("circulant_row", 0, "b", d - g, gaps)


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


@lru_cache(maxsize=16)
def _p_stream(n: int, budget: int, seed: int, rows: int) -> tuple[np.ndarray, ...]:
    """The whole ``_p_blocks`` set of the key, drawn at once, read-only."""
    return tuple(map(read_only, _p_blocks(n, budget, seed, rows)))


@lru_cache(maxsize=16)
def _p_powers(key: tuple[int, int, int, int], order: int) -> tuple:
    """Per block of ``_p_stream(*key)``: (contiguous X.T,
    ``kron_power_t(X.T, order)``), read-only."""
    out = []
    for X in _p_stream(*key):
        XT = read_only(np.ascontiguousarray(X.T))
        out.append((XT, read_only(kron_power_t(XT, order))))
    return tuple(out)


def falsify_p(A: Tensor, budget: int, seed: int) -> FalsifyResult:
    """Search for a vector refuting the P property of A.

    A candidate x falsifies when max_i x_i * (A x^(m-1))_i <= 0.  Candidates
    are scanned in a fixed order, block by block, and the first falsifier
    (by index, under the exact entrywise evaluation) is reported; the scan
    stops at the first block holding one.  Absence of a falsifier is not a
    membership certificate.  With an integer seed, a candidate set of at
    most ``P_BLOCK_ENTRIES`` entries is drawn whole once and reused from
    ``_p_stream``; when its whole Kronecker power has at most twice that
    many entries, each block's power is reused from ``_p_powers`` too and
    the contraction is one product.  A negative integer seed raises
    ValueError before anything is drawn.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    integer = isinstance(seed, (int, np.integer))
    if integer and seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    # Batched accumulation order can differ from tensor_apply by a few ulps;
    # anything at or below this margin is re-decided exactly.
    margin = 1e-9 * (1.0 + float(np.max(np.abs(A.entries))) * A.row_len)
    n = A.dim
    key = (n, budget, seed, max(1, P_BLOCK_ENTRIES // A.row_len))
    count = 2 * n + (1 << n if n <= 20 else 0) + budget
    kept = integer and count * n <= P_BLOCK_ENTRIES
    stream = _p_stream(*key) if kept else _p_blocks(*key)
    powers = ()
    if kept and count * A.row_len <= 2 * P_BLOCK_ENTRIES:
        powers = _p_powers(key, A.order)
    seen = 0
    for k, X in enumerate(stream):
        XT, power = powers[k] if powers else (X.T, None)
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

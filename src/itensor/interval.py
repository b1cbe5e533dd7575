"""Interval tensors (entrywise boxes of tensors) and their extreme points.

An interval tensor is the set of all tensors between a lower and an upper
bound tensor, compared entrywise.  The membership criteria for structured
classes over such a family are decided by finitely many extreme members;
this module provides those constructions: the all-off-diagonal-raised
member, single- and double-entry raises, the per-row argmax raises, the
hat rearrangement, the dominated-position reduction, and exhaustive vertex
enumeration.

Indices at this layer are 0-based; trailing multi-indices may be given as
tuples or as flat row offsets.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .tensor import (
    Tensor,
    diag_tail_flat,
    is_symmetric,
    json_order_dim,
    make_tensor,
    offdiag_tail_flats,
    row_layout,
    tail_to_flat,
)

__all__ = [
    "IntervalTensor",
    "BudgetExceeded",
    "make_interval",
    "degenerate_interval",
    "midpoint_radius",
    "contains",
    "is_interval_z",
    "is_symmetric_interval",
    "argmax_upper_offdiag",
    "extreme_prime",
    "extreme_single_raise",
    "extreme_double_raise",
    "extreme_row_max_except",
    "extreme_hat",
    "reduce_via_K",
    "vertex_count",
    "vertex_blocks",
    "vertex_iter",
    "interval_to_json",
    "interval_from_json",
]

DEFAULT_VERTEX_LIMIT = 2**20


class IntervalTensor:
    """The box of tensors between two entrywise-ordered bound tensors."""

    __slots__ = ("lower", "upper", "_kernel")

    def __init__(self, lower: Tensor, upper: Tensor):
        self.lower = lower
        self.upper = upper
        self._kernel = None  # interval_classify's row quantities, on first use

    @property
    def order(self) -> int:
        return self.lower.order

    @property
    def dim(self) -> int:
        return self.lower.dim

    @property
    def row_len(self) -> int:
        return self.lower.row_len

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalTensor):
            return NotImplemented
        return self.lower == other.lower and self.upper == other.upper

    __hash__ = None

    def __repr__(self) -> str:
        return f"IntervalTensor(order={self.order}, dim={self.dim})"


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed its budget; ``required`` holds the count."""

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


def make_interval(lower: Tensor, upper: Tensor) -> IntervalTensor:
    """Build an interval tensor, rejecting shape mismatch or crossed bounds."""
    if (lower.order, lower.dim) != (upper.order, upper.dim):
        raise ValueError(
            f"bound shapes differ: order/dim ({lower.order},{lower.dim}) vs "
            f"({upper.order},{upper.dim})"
        )
    bad = lower.entries > upper.entries
    if bad.any():
        pos = int(np.argmax(bad))
        idx = tuple(
            int(c) + 1 for c in np.unravel_index(pos, (lower.dim,) * lower.order)
        )
        raise ValueError(
            f"lower bound {lower.entries[pos]} exceeds upper bound "
            f"{upper.entries[pos]} at position {idx}"
        )
    return IntervalTensor(lower, upper)


def degenerate_interval(A: Tensor) -> IntervalTensor:
    return IntervalTensor(A, A)


def midpoint_radius(AI: IntervalTensor) -> tuple[Tensor, Tensor]:
    """(midpoint, radius) = ((lower+upper)/2, (upper-lower)/2)."""
    mid = (AI.lower.entries + AI.upper.entries) / 2.0
    rad = (AI.upper.entries - AI.lower.entries) / 2.0
    return (
        make_tensor(AI.order, AI.dim, mid),
        make_tensor(AI.order, AI.dim, rad),
    )


def contains(AI: IntervalTensor, A: Tensor) -> bool:
    """Entrywise two-sided membership test."""
    if (A.order, A.dim) != (AI.order, AI.dim):
        raise ValueError("tensor shape differs from interval shape")
    return bool(
        np.all(AI.lower.entries <= A.entries) and np.all(A.entries <= AI.upper.entries)
    )


def is_interval_z(AI: IntervalTensor) -> bool:
    """True iff every member is a Z tensor, i.e. every off-diagonal upper
    bound is <= 0."""
    od = row_layout(AI.order, AI.dim).od_flat
    return not (AI.upper.entries[od] > 0.0).any()


def is_symmetric_interval(AI: IntervalTensor) -> bool:
    """Symmetric interval: midpoint and radius are both symmetric tensors,
    which over the reals holds exactly when both bounds are symmetric; the
    bounds are tested, so no midpoint is computed, and none overflows."""
    return is_symmetric(AI.lower) and is_symmetric(AI.upper)


def _tail_flat(AI: IntervalTensor, tail: int | Sequence[int]) -> int:
    if isinstance(tail, (int, np.integer)):
        flat = int(tail)
        if not 0 <= flat < AI.row_len:
            raise ValueError(f"tail offset {flat} out of range [0, {AI.row_len})")
        return flat
    tail = tuple(int(c) for c in tail)
    if len(tail) != AI.order - 1:
        raise ValueError(f"tail length {len(tail)} != order-1 = {AI.order - 1}")
    for c in tail:
        if not 0 <= c < AI.dim:
            raise ValueError(f"tail component {c} out of range [0, {AI.dim})")
    return tail_to_flat(tail, AI.dim)


def argmax_upper_offdiag(AI: IntervalTensor, i1: int) -> int | None:
    """Flat offset of the largest off-diagonal upper entry of row i1; ties
    resolved to the smallest offset; None when the row has no off-diagonal."""
    flats = offdiag_tail_flats(AI.upper, i1)
    if not flats:
        return None
    row = AI.upper.row_list(i1)
    best = flats[0]
    for f in flats[1:]:
        if row[f] > row[best]:
            best = f
    return best


def extreme_prime(AI: IntervalTensor) -> Tensor:
    """Member with every diagonal entry at its lower bound and every
    off-diagonal entry at its upper bound."""
    arr = AI.upper.entries.copy()
    r = AI.row_len
    for i1 in range(AI.dim):
        d = i1 * r + diag_tail_flat(i1, AI.order, AI.dim)
        arr[d] = AI.lower.entries[d]
    return Tensor(AI.order, AI.dim, arr)


def extreme_single_raise(
    AI: IntervalTensor, i1: int, tail: int | Sequence[int]
) -> Tensor:
    """The lower bound with the single off-diagonal entry (i1, tail) raised
    to its upper bound."""
    if not 0 <= i1 < AI.dim:
        raise ValueError(f"row index {i1} out of range [0, {AI.dim})")
    f = _tail_flat(AI, tail)
    if f == diag_tail_flat(i1, AI.order, AI.dim):
        raise ValueError("raised position must be off-diagonal")
    arr = AI.lower.entries.copy()
    pos = i1 * AI.row_len + f
    arr[pos] = AI.upper.entries[pos]
    return Tensor(AI.order, AI.dim, arr)


def extreme_double_raise(
    AI: IntervalTensor,
    first: tuple[int, int | Sequence[int]],
    second: tuple[int, int | Sequence[int]],
) -> Tensor:
    """The lower bound with one off-diagonal entry raised in each of two
    distinct rows."""
    (i1, ti), (j1, tj) = first, second
    if i1 == j1:
        raise ValueError("the two raised positions must lie in distinct rows")
    fi, fj = _tail_flat(AI, ti), _tail_flat(AI, tj)
    if fi == diag_tail_flat(i1, AI.order, AI.dim):
        raise ValueError(f"row {i1}: raised position must be off-diagonal")
    if fj == diag_tail_flat(j1, AI.order, AI.dim):
        raise ValueError(f"row {j1}: raised position must be off-diagonal")
    arr = AI.lower.entries.copy()
    for row, f in ((i1, fi), (j1, fj)):
        pos = row * AI.row_len + f
        arr[pos] = AI.upper.entries[pos]
    return Tensor(AI.order, AI.dim, arr)


def extreme_row_max_except(AI: IntervalTensor, i1: int) -> Tensor:
    """The lower bound with, in every row other than i1, the position of the
    row's largest off-diagonal upper entry raised to its upper bound."""
    if not 0 <= i1 < AI.dim:
        raise ValueError(f"row index {i1} out of range [0, {AI.dim})")
    arr = AI.lower.entries.copy()
    r = AI.row_len
    for l1 in range(AI.dim):
        if l1 == i1:
            continue
        k = argmax_upper_offdiag(AI, l1)
        if k is None:
            continue
        pos = l1 * r + k
        arr[pos] = AI.upper.entries[pos]
    return Tensor(AI.order, AI.dim, arr)


def extreme_hat(AI: IntervalTensor) -> Tensor:
    """Per-row rearrangement: the argmax-upper position carries its upper
    bound, the diagonal its lower bound, and every other position the
    minimum of its own lower bound and the argmax position's lower bound.

    The minimum clause can dip below a position's lower bound, so the result
    is not necessarily a member of the interval.
    """
    n, r = AI.dim, AI.row_len
    arr = np.empty(n**AI.order)
    for l1 in range(n):
        lrow = AI.lower.row_list(l1)
        urow = AI.upper.row_list(l1)
        d = diag_tail_flat(l1, AI.order, n)
        k = argmax_upper_offdiag(AI, l1)
        base = l1 * r
        if k is None:
            arr[base + d] = lrow[d]
            continue
        anchor = lrow[k]
        for f in range(r):
            if f == k:
                arr[base + f] = urow[k]
            elif f == d:
                arr[base + f] = lrow[d]
            else:
                arr[base + f] = min(lrow[f], anchor)
    return Tensor(AI.order, AI.dim, arr)


def reduce_via_K(
    AI: IntervalTensor,
) -> tuple[IntervalTensor, tuple[tuple[int, int], ...]]:
    """Collapse dominated off-diagonal positions to their lower bounds.

    A position (i1, j) is dominated when some other off-diagonal position t
    of the same row (t distinct from both the diagonal tail and j) has a
    lower bound at or above j's upper bound.  Returns the reduced interval
    and the dominated positions as (row, tail offset) pairs.
    """
    n, r = AI.dim, AI.row_len
    upper = AI.upper.entries.copy()
    K: list[tuple[int, int]] = []
    for i1 in range(n):
        lrow = AI.lower.row_list(i1)
        urow = AI.upper.row_list(i1)
        flats = offdiag_tail_flats(AI.lower, i1)
        for j in flats:
            if any(lrow[t] >= urow[j] for t in flats if t != j):
                K.append((i1, j))
                upper[i1 * r + j] = lrow[j]
    return (
        IntervalTensor(AI.lower, Tensor(AI.order, AI.dim, upper)),
        tuple(K),
    )


def _varying_positions(AI: IntervalTensor) -> np.ndarray:
    return np.nonzero(AI.lower.entries < AI.upper.entries)[0]


def vertex_count(AI: IntervalTensor) -> int:
    """Number of distinct vertex tensors (2 ** number of non-degenerate
    entry positions)."""
    return 1 << len(_varying_positions(AI))


# Entries per block of vertex_blocks: bounds the memory of one block (and of
# the array checks run on it) whatever the vertex count.
VERTEX_BLOCK_ENTRIES = 1 << 16


def vertex_blocks(
    AI: IntervalTensor, limit: int = DEFAULT_VERTEX_LIMIT
) -> Iterator[tuple[int, np.ndarray]]:
    """Enumerate every distinct vertex of the box exactly once, in blocks.

    Selector bit b toggles the b-th non-degenerate position between lower
    (0) and upper (1); selectors ascend, so the first vertex is the lower
    bound and the last is the upper bound.  Yields ``(start, rows)``: the
    selector of the block's first vertex and a fresh ``(count, n**m)``
    array holding the vertices of selectors ``start, start + 1, ...``, one
    per row, with at most ``VERTEX_BLOCK_ENTRIES`` entries in all (at least
    one row).  Raises BudgetExceeded with the required count when 2**k
    exceeds ``limit``.
    """
    var = _varying_positions(AI)
    required = 1 << len(var)
    if required > limit:
        raise BudgetExceeded(
            f"vertex enumeration needs 2**{len(var)} tensors, limit is {limit}",
            required,
        )
    lower = AI.lower.entries
    lo, up = lower[var], AI.upper.entries[var]
    bits = np.arange(len(var), dtype=np.int64)
    step = max(1, VERTEX_BLOCK_ENTRIES // lower.size)
    for start in range(0, required, step):
        sel = np.arange(start, min(start + step, required), dtype=np.int64)
        rows = np.repeat(lower[None, :], len(sel), axis=0)
        rows[:, var] = np.where(((sel[:, None] >> bits) & 1).astype(bool), up, lo)
        yield start, rows


def vertex_iter(
    AI: IntervalTensor, limit: int = DEFAULT_VERTEX_LIMIT
) -> Iterator[Tensor]:
    """Every vertex of the box as a Tensor, in the order of vertex_blocks."""
    for _, rows in vertex_blocks(AI, limit):
        for row in rows:
            yield Tensor(AI.order, AI.dim, row.copy())


def interval_to_json(AI: IntervalTensor) -> dict:
    """JSON object form: {"order": m, "dim": n, "lower": [...], "upper": [...]}."""
    return {
        "order": AI.order,
        "dim": AI.dim,
        "lower": AI.lower.entries.tolist(),
        "upper": AI.upper.entries.tolist(),
    }


def interval_from_json(obj) -> IntervalTensor:
    """Parse the interval file schema, rejecting malformed input."""
    order, dim = json_order_dim(obj, "interval", ("lower", "upper"))
    return make_interval(
        make_tensor(order, dim, obj["lower"]),
        make_tensor(order, dim, obj["upper"]),
    )

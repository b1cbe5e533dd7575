"""Dense real tensors of order m and dimension n with flat row-major storage.

A tensor entry a[i1, i2, ..., im] lives at flat position
``i1 * n**(m-1) + i2 * n**(m-2) + ... + im`` (0-based indices, i1 slowest).
The slice of the ``n**(m-1)`` entries sharing a leading index i1 is called
the i1-th row; positions inside a row are addressed by the trailing
multi-index (i2, ..., im) or equivalently by its flat offset.

All indices at this layer are 0-based.  Report-facing layers (witnesses,
JSON, CLI) convert to 1-based.
"""

from __future__ import annotations

import operator
from functools import lru_cache, reduce
from typing import Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "MAX_ORDER",
    "Tensor",
    "make_tensor",
    "zeros",
    "diagonal_tensor",
    "tail_tuples",
    "tail_to_flat",
    "tail1",
    "diag_tail_flat",
    "offdiag_tail_flats",
    "RowLayout",
    "row_layout",
    "orbit_map",
    "circulant_source",
    "row_view",
    "row_sum",
    "gamma_plus",
    "tensor_apply",
    "kron_power_t",
    "tensor_apply_many",
    "sign_transform",
    "is_symmetric",
    "is_circulant",
    "circulant_from_first_row",
    "row_mix",
    "tensor_to_json",
    "tensor_from_json",
    "json_order_dim",
    "ordered_sum",
]

# Largest tensor order: numpy's limit on ndarray dimensions, which
# ``Tensor.nd`` reaches.  Checked before ``dim**order`` is computed.
MAX_ORDER = 64


def ordered_sum(xs) -> float:
    """Sum of floats added left to right from 0, as the builtin ``sum``
    does up to Python 3.11; later versions compensate float sums and can
    differ in the last bit from the array kernels' ordered sums.  An empty
    sum is the integer 0, as with ``sum``."""
    return reduce(operator.add, xs, 0)


class Tensor:
    """Immutable dense order-m dimension-n tensor over float64 entries."""

    __slots__ = ("order", "dim", "entries", "_rows")

    def __init__(self, order: int, dim: int, entries: np.ndarray):
        # Validation lives in make_tensor; this constructor trusts its input
        # apart from freezing the storage.
        self.order = order
        self.dim = dim
        entries = np.asarray(entries, dtype=np.float64).reshape(-1)
        entries.setflags(write=False)
        self.entries = entries
        self._rows: list[list[float]] | None = None

    @property
    def row_len(self) -> int:
        return self.dim ** (self.order - 1)

    @property
    def nd(self) -> np.ndarray:
        """The entries viewed as an ndarray of shape (dim,) * order."""
        return self.entries.reshape((self.dim,) * self.order)

    def row_list(self, i1: int) -> list[float]:
        """Row i1 as a plain list of floats, cached per tensor."""
        if self._rows is None:
            flat = self.entries.tolist()
            r = self.row_len
            self._rows = [flat[i * r : (i + 1) * r] for i in range(self.dim)]
        return self._rows[i1]

    def entry(self, index: Sequence[int]) -> float:
        """Entry at a full 0-based multi-index of length ``order``."""
        if len(index) != self.order:
            raise ValueError(f"multi-index length {len(index)} != order {self.order}")
        flat = 0
        for c in index:
            if not 0 <= c < self.dim:
                raise ValueError(f"index component {c} out of range [0, {self.dim})")
            flat = flat * self.dim + c
        return float(self.entries[flat])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.order == other.order
            and self.dim == other.dim
            and np.array_equal(self.entries, other.entries)
        )

    __hash__ = None  # mutable-adjacent storage; identity hashing would mislead

    def __repr__(self) -> str:
        return (f"Tensor(order={self.order}, dim={self.dim}, "
                f"entries={self.entries.tolist()!r})")


def make_tensor(order: int, dim: int, entries: Sequence[float] | np.ndarray) -> Tensor:
    """Build a tensor from flat row-major entries, validating shape and finiteness."""
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    if order > MAX_ORDER:
        raise ValueError(f"order must be <= {MAX_ORDER}, got {order}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    arr = np.asarray(entries, dtype=np.float64).reshape(-1)
    expected = dim**order
    if arr.size != expected:
        raise ValueError(
            f"entries length {arr.size} != dim**order = {dim}**{order} = {expected}"
        )
    finite = np.isfinite(arr)
    if not finite.all():
        pos = int(np.argmin(finite))
        idx = tuple(int(c) + 1 for c in np.unravel_index(pos, (dim,) * order))
        raise ValueError(f"non-finite entry {float(arr[pos])} at position {idx}")
    return Tensor(order, dim, arr.copy())


def zeros(order: int, dim: int) -> Tensor:
    return make_tensor(order, dim, np.zeros(dim**order))


def diagonal_tensor(order: int, dim: int, value: float = 1.0) -> Tensor:
    """Tensor with ``value`` on every diagonal entry a[i, i, ..., i], zero elsewhere."""
    arr = np.zeros(dim**order)
    r = dim ** (order - 1)
    for i in range(dim):
        arr[i * r + diag_tail_flat(i, order, dim)] = value
    return make_tensor(order, dim, arr)


@lru_cache(maxsize=None)
def tail_tuples(order: int, dim: int) -> tuple[tuple[int, ...], ...]:
    """All trailing multi-indices (i2, ..., im) in ascending flat order."""
    shape = (dim,) * (order - 1)
    count = dim ** (order - 1)
    return tuple(
        tuple(int(c) for c in np.unravel_index(f, shape)) for f in range(count)
    )


def tail_to_flat(tail: Sequence[int], dim: int) -> int:
    flat = 0
    for c in tail:
        flat = flat * dim + c
    return flat


@lru_cache(maxsize=None)
def _one_based_tails(order: int, dim: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(c + 1 for c in t) for t in tail_tuples(order, dim))


def tail1(A, flat: int) -> tuple[int, ...]:
    """The 1-based trailing multi-index that reports print for flat offset
    ``flat`` of a row of ``A`` (anything with ``order`` and ``dim``)."""
    return _one_based_tails(A.order, A.dim)[flat]


def diag_tail_flat(i1: int, order: int, dim: int) -> int:
    """Flat offset of the diagonal tail (i1, ..., i1) inside row i1."""
    flat = 0
    for _ in range(order - 1):
        flat = flat * dim + i1
    return flat


@lru_cache(maxsize=None)
def _offdiag_flats(i1: int, order: int, dim: int) -> tuple[int, ...]:
    d = diag_tail_flat(i1, order, dim)
    return tuple(f for f in range(dim ** (order - 1)) if f != d)


def offdiag_tail_flats(A: Tensor, i1: int) -> tuple[int, ...]:
    """Flat offsets of the off-diagonal positions of row i1, ascending."""
    return _offdiag_flats(i1, A.order, A.dim)


class RowLayout(NamedTuple):
    """Per-shape index arrays of the array kernels, 0-based offsets inside
    a row; read-only, since every caller of the cache shares them."""

    diag: np.ndarray  # (n,) offset of each row's diagonal
    od: np.ndarray  # (n, q) offsets of each row's off-diagonals, ascending
    offdiag: np.ndarray  # (r, n) True where offset f is off-diagonal in row i
    iu: np.ndarray  # row pairs i < j, lexicographic
    ju: np.ndarray
    ii: np.ndarray  # ordered row pairs i != j, lexicographic
    jj: np.ndarray
    diag_flat: np.ndarray  # (n,) flat entry positions of the diagonal
    od_flat: np.ndarray  # (n, q) flat entry positions of ``od``


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=32)
def row_layout(order: int, dim: int) -> RowLayout:
    """The index layout of one (order, dim), built once and shared."""
    r = dim ** (order - 1)
    diag = np.array([diag_tail_flat(i, order, dim) for i in range(dim)], dtype=np.intp)
    offdiag = np.arange(r)[:, None] != diag[None, :]
    od = np.nonzero(offdiag.T)[1].reshape(dim, r - 1)
    iu, ju = np.triu_indices(dim, 1)
    ii, jj = np.nonzero(~np.eye(dim, dtype=bool))
    start = np.arange(dim) * r
    fields = (diag, od, offdiag, iu, ju, ii, jj, start + diag, start[:, None] + od)
    return RowLayout(*map(_read_only, fields))


def _digits(order: int, dim: int) -> np.ndarray:
    """(order, dim**order) array whose column f is the multi-index of f."""
    return np.array(np.unravel_index(np.arange(dim**order), (dim,) * order))


def _to_flat(digits: np.ndarray, dim: int) -> np.ndarray:
    """Flat offsets of the multi-indices in the columns of ``digits``."""
    flat = np.zeros(digits.shape[1], dtype=np.intp)
    for row in digits:
        flat = flat * dim + row
    return flat


@lru_cache(maxsize=32)
def orbit_map(order: int, dim: int) -> np.ndarray:
    """For each flat position, the position of its multi-index sorted
    ascending: one representative per orbit under index permutations."""
    return _read_only(_to_flat(np.sort(_digits(order, dim), axis=0), dim))


@lru_cache(maxsize=32)
def circulant_source(order: int, dim: int) -> np.ndarray:
    """For each flat position (i1, i2, ..., im), the offset in row 0 of
    ((i2 - i1) mod n, ..., (im - i1) mod n): the row-0 entry a circulant
    tensor repeats there."""
    digits = _digits(order, dim)
    return _read_only(_to_flat((digits[1:] - digits[0]) % dim, dim))


def _check_row_index(A: Tensor, i1: int) -> None:
    if not 0 <= i1 < A.dim:
        raise ValueError(f"row index {i1} out of range [0, {A.dim})")


def row_view(A: Tensor, i1: int) -> tuple[int, tuple[float, ...]]:
    """Row i1 as ``(i1, values)``: the leading index and its n**(m-1) values."""
    _check_row_index(A, i1)
    return i1, tuple(A.row_list(i1))


def row_sum(A: Tensor, i1: int) -> float:
    """Sum of all entries of row i1, accumulated in ascending flat order."""
    _check_row_index(A, i1)
    return ordered_sum(A.row_list(i1))


def gamma_plus(A: Tensor, i1: int) -> float:
    """max(0, largest off-diagonal entry of row i1); 0 when the row has none."""
    _check_row_index(A, i1)
    row = A.row_list(i1)
    g = 0.0
    for f in offdiag_tail_flats(A, i1):
        if row[f] > g:
            g = row[f]
    return g


def tensor_apply(A: Tensor, x: Sequence[float]) -> list[float]:
    """The map x -> A x^(m-1): component i is sum over trailing indices of
    a[i, i2, ..., im] * x[i2] * ... * x[im], accumulated in ascending flat order."""
    if len(x) != A.dim:
        raise ValueError(f"vector length {len(x)} != dim {A.dim}")
    xs = [float(v) for v in x]
    tails = tail_tuples(A.order, A.dim)
    out = []
    for i in range(A.dim):
        row = A.row_list(i)
        acc = 0.0
        for f, tail in enumerate(tails):
            term = row[f]
            for c in tail:
                term *= xs[c]
            acc += term
        out.append(acc)
    return out


def kron_power_t(XT: np.ndarray, order: int) -> np.ndarray:
    """The transposed row-wise Kronecker power of a batch of vectors.

    ``XT`` is the (dim, count) transpose of the batch; the result has shape
    (dim**(order-1), count), with row f holding x[i2] * ... * x[im] for the
    trailing multi-index of offset f.  Products run over long rows, with the
    batch along the last axis; at order 2 the result is ``XT`` itself.
    """
    n, count = XT.shape
    KT = XT
    for _ in range(order - 2):
        KT = (KT[:, None, :] * XT[None, :, :]).reshape(KT.shape[0] * n, count)
    return KT


def tensor_apply_many(A: Tensor, X: np.ndarray, *, power: np.ndarray | None = None
                      ) -> np.ndarray:
    """Vectorized A x^(m-1) for a batch of vectors X of shape (count, dim).

    One matrix product: the entries viewed as (n, n**(m-1)) rows times the
    transposed Kronecker power of X (``kron_power_t``); the result is a
    (count, dim) view of that (dim, count) product.  A caller that keeps
    the power of X passes it as ``power``, and it is multiplied as given.

    Products associate and sums accumulate differently from tensor_apply;
    callers needing the canonical value must recheck borderline results
    with tensor_apply.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != A.dim:
        raise ValueError(f"expected batch shape (count, {A.dim}), got {X.shape}")
    if power is None:
        power = kron_power_t(np.ascontiguousarray(X.T), A.order)
    elif power.shape != (A.row_len, len(X)):
        raise ValueError(
            f"expected power shape {(A.row_len, len(X))}, got {power.shape}")
    return (A.entries.reshape(A.dim, -1) @ power).T


def sign_transform(Ac: Tensor, Delta: Tensor, z: Sequence[int]) -> Tensor:
    """Tensor with entries ac[i1..im] - delta[i1..im] * z[i1] * ... * z[im].

    With midpoint Ac and radius Delta of an interval, the result is the
    member obtained by pushing every entry to the bound selected by the
    product of signs; z = all ones yields the lower bound tensor.
    """
    if (Ac.order, Ac.dim) != (Delta.order, Delta.dim):
        raise ValueError("midpoint and radius shapes differ")
    if np.any(Delta.entries < 0):
        pos = int(np.argmax(Delta.entries < 0))
        raise ValueError(f"radius has negative entry at flat position {pos}")
    if len(z) != Ac.dim:
        raise ValueError(f"sign vector length {len(z)} != dim {Ac.dim}")
    zv = np.asarray(z, dtype=np.float64)
    if not np.all(np.abs(zv) == 1.0):
        raise ValueError("sign vector components must be +1 or -1")
    prod = zv
    for _ in range(Ac.order - 1):
        prod = np.multiply.outer(prod, zv)
    return make_tensor(Ac.order, Ac.dim, Ac.entries - Delta.entries * prod.reshape(-1))


def is_symmetric(A: Tensor) -> bool:
    """True iff entries are invariant under every permutation of the indices."""
    return bool(np.array_equal(A.entries, A.entries[orbit_map(A.order, A.dim)]))


def is_circulant(A: Tensor) -> bool:
    """True iff every entry equals the entry at all indices shifted by +1 mod n,
    that is iff every row is the cyclic translate of row 0."""
    row0 = A.entries[: A.row_len]
    return bool(np.array_equal(A.entries, row0[circulant_source(A.order, A.dim)]))


def circulant_from_first_row(
    row: Sequence[float], order: int, dim: int
) -> Tensor:
    """The circulant tensor whose row 0 equals ``row``.

    Row i1 is the cyclic translate of row 0: entry (i1, i2, ..., im) equals
    row[(i2 - i1) mod n, ..., (im - i1) mod n].
    """
    vals = np.array([float(v) for v in row])
    r = dim ** (order - 1)
    if len(vals) != r:
        raise ValueError(f"row length {len(vals)} != dim**(order-1) = {r}")
    if order > MAX_ORDER:
        raise ValueError(f"order must be <= {MAX_ORDER}, got {order}")
    return make_tensor(order, dim, vals[circulant_source(order, dim)])


def row_mix(
    parents: Sequence[Tensor],
    assignment: Mapping[int, tuple[int, Sequence[int] | None]],
) -> Tensor:
    """Assemble a tensor row by row from parent tensors.

    ``assignment[i1] = (parent_id, perm)`` takes row i1's diagonal entry from
    the parent and fills the off-diagonal slots with the parent's off-diagonal
    entries rearranged by ``perm`` (result slot k receives parent slot
    perm[k]); ``perm=None`` means identity.  Every row must be assigned and
    each perm must be a bijection on the off-diagonal slots.
    """
    if not parents:
        raise ValueError("at least one parent tensor required")
    order, dim = parents[0].order, parents[0].dim
    for p in parents[1:]:
        if (p.order, p.dim) != (order, dim):
            raise ValueError("parent tensors must share order and dim")
    r = dim ** (order - 1)
    out = np.empty(dim**order)
    for i1 in range(dim):
        if i1 not in assignment:
            raise ValueError(f"assignment missing row {i1}")
        pid, perm = assignment[i1]
        if not 0 <= pid < len(parents):
            raise ValueError(f"parent id {pid} out of range")
        src = parents[pid].row_list(i1)
        od = _offdiag_flats(i1, order, dim)
        q = len(od)
        if perm is None:
            perm = range(q)
        perm = [int(k) for k in perm]
        if sorted(perm) != list(range(q)):
            raise ValueError(f"row {i1}: permutation is not a bijection on {q} slots")
        base = i1 * r
        d = diag_tail_flat(i1, order, dim)
        out[base + d] = src[d]
        for slot, k in enumerate(perm):
            out[base + od[slot]] = src[od[k]]
    return make_tensor(order, dim, out)


def tensor_to_json(A: Tensor) -> dict:
    """JSON object form: {"order": m, "dim": n, "entries": [...]}."""
    return {"order": A.order, "dim": A.dim, "entries": A.entries.tolist()}


def json_order_dim(obj, kind: str, arrays: tuple[str, ...]) -> tuple[int, int]:
    """Order and dim of a ``kind`` JSON object after checking its schema:
    integer ``order``/``dim`` (JSON true/false are not integers) and each key
    of ``arrays`` an array of numbers."""
    if not isinstance(obj, dict):
        raise ValueError(f"{kind} JSON must be an object")
    for key in ("order", "dim") + arrays:
        if key not in obj:
            raise ValueError(f"{kind} JSON missing key {key!r}")
    order, dim = obj["order"], obj["dim"]
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (order, dim)):
        raise ValueError("order and dim must be integers")
    for key in arrays:
        col = obj[key]
        if not isinstance(col, list):
            raise ValueError(f"{key} must be an array of numbers")
        if set(map(type, col)) <= {int, float}:  # what json.loads gives
            continue
        for k, v in enumerate(col):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ValueError(f"{key}[{k}] is not a number")
    return order, dim


def tensor_from_json(obj) -> Tensor:
    """Parse the tensor file schema, rejecting malformed or wrong-length input."""
    order, dim = json_order_dim(obj, "tensor", ("entries",))
    return make_tensor(order, dim, obj["entries"])

"""The array vertex oracle against the scalar vertex loops.

``reference_vertices``, ``reference_oracle_b`` and
``reference_oracle_double_b`` are the oracle as it was before its vertices
became blocks of one array: one ``Tensor`` per vertex, built by toggling
selector bits in a Python loop, and the scalar ``check_b`` /
``check_double_b`` on each.  ``reference_belt`` draws the interior members
one ``Tensor`` at a time from the same single generator the oracle uses.
Every ``Verdict`` field of the array oracle must match them: status,
method, the witness with both sides compared through ``float.hex`` (a zero
of the wrong sign is a mismatch), the failing member's entries and
``vertices_checked``.
"""

import numpy as np
import pytest

from itensor import (
    BudgetExceeded,
    GeneratorSpec,
    Status,
    Tensor,
    Verdict,
    boundary_interval,
    check_b,
    check_double_b,
    degenerate_interval,
    make_interval,
    make_tensor,
    oracle_interval_b,
    oracle_interval_double_b,
    random_interval_tensor,
    random_member,
    vertex_iter,
)
from itensor import interval, oracle
from itensor.interval import DEFAULT_VERTEX_LIMIT
from itensor.tensor import diag_tail_flat

TOLS = (0.0, 1e-9, 0.5)
DOUBLE_B_FAILURE = oracle._double_b_failure


def reference_vertices(AI, limit=DEFAULT_VERTEX_LIMIT):
    var = np.nonzero(AI.lower.entries < AI.upper.entries)[0]
    required = 1 << len(var)
    if required > limit:
        raise BudgetExceeded(
            f"vertex enumeration needs 2**{len(var)} tensors, limit is {limit}",
            required,
        )
    lower = AI.lower.entries
    upper = AI.upper.entries
    for s in range(required):
        arr = lower.copy()
        sel = s
        b = 0
        while sel:
            if sel & 1:
                arr[var[b]] = upper[var[b]]
            sel >>= 1
            b += 1
        yield Tensor(AI.order, AI.dim, arr)


def reference_oracle_b(AI, limit=DEFAULT_VERTEX_LIMIT, tol=0.0):
    checked = 0
    for T in reference_vertices(AI, limit):
        checked += 1
        v = check_b(T, "definition", tol=tol)
        if not v.holds():
            return Verdict(Status.FAILS, "vertex_b", v.witness,
                           failing_tensor=T, vertices_checked=checked)
    return Verdict(Status.HOLDS, "vertex_b", vertices_checked=checked)


def reference_belt(AI, interior_members, member_seed):
    """The interior members, one ``Tensor`` each: uniform draws in the box
    from one generator, ``interior_members`` entry blocks in draw order."""
    rng = np.random.default_rng(member_seed * 1_000_003)
    lower = AI.lower.entries
    upper = AI.upper.entries
    for _ in range(interior_members):
        u = rng.uniform(0.0, 1.0, size=lower.size)
        yield Tensor(AI.order, AI.dim, lower + u * (upper - lower))


def reference_oracle_double_b(
    AI, limit=DEFAULT_VERTEX_LIMIT, tol=0.0, interior_members=64, member_seed=0,
    vertices=True,
):
    checked = 0
    for T in reference_vertices(AI, limit) if vertices else ():
        checked += 1
        v = check_double_b(T, tol=tol)
        if not v.holds():
            return Verdict(Status.FAILS, "vertex_double_b", v.witness,
                           failing_tensor=T, vertices_checked=checked)
    for T in reference_belt(AI, interior_members, member_seed):
        v = check_double_b(T, tol=tol)
        if not v.holds():
            return Verdict(Status.FAILS, "interior_double_b", v.witness,
                           failing_tensor=T, vertices_checked=checked)
    return Verdict(Status.HOLDS, "vertex_double_b", vertices_checked=checked)


def _fields(v):
    w = v.witness
    wit = None if w is None else (
        w.row, w.condition, w.lhs.hex(), w.rhs.hex(), w.tail, w.pair_row,
        w.pair_tail,
    )
    if w is not None:
        assert type(w.lhs) is float and type(w.rhs) is float
    member = None
    if v.failing_tensor is not None:
        T = v.failing_tensor
        member = (T.order, T.dim, tuple(float(x).hex() for x in T.entries))
    return (v.status, v.method, wit, member, v.vertices_checked)


def assert_oracles_match(AI, tol, member_seed=0):
    got = oracle_interval_b(AI, tol=tol)
    ref = reference_oracle_b(AI, tol=tol)
    assert _fields(got) == _fields(ref)
    got = oracle_interval_double_b(AI, tol=tol, member_seed=member_seed)
    ref = reference_oracle_double_b(AI, tol=tol, member_seed=member_seed)
    assert _fields(got) == _fields(ref)
    return ref


def _narrow(AI, keep, seed):
    """The family with all but ``keep`` of its varying positions pinned to
    the lower bound, which bounds the scalar reference's vertex count."""
    rng = np.random.default_rng(seed)
    var = np.nonzero(AI.lower.entries < AI.upper.entries)[0]
    upper = AI.upper.entries.copy()
    if len(var) > keep:
        pinned = rng.choice(var, len(var) - keep, replace=False)
        upper[pinned] = AI.lower.entries[pinned]
    return make_interval(AI.lower, make_tensor(AI.order, AI.dim, upper))


def _off_grid(order, dim, seed, signed_zeros=False):
    """Uniform bounds off the 1/16 grid; with ``signed_zeros`` some bounds
    are -0.0 and some upper bounds equal their lower bound."""
    rng = np.random.default_rng(seed)
    size = dim**order
    r = dim ** (order - 1)
    lower = rng.uniform(-1.0, 1.0, size)
    for i in range(dim):
        lower[i * r + diag_tail_flat(i, order, dim)] = rng.uniform(0.5, 1.5 * r)
    upper = lower + rng.uniform(0.0, 0.5, size)
    if signed_zeros:
        zero = rng.random(size) < 0.4
        lower[zero] = -0.0
        upper = np.maximum(upper, lower)
        upper[zero & (rng.random(size) < 0.5)] = -0.0
    return make_interval(make_tensor(order, dim, lower), make_tensor(order, dim, upper))


GRID_SHAPES = ((3, 2), (2, 3), (4, 2), (2, 4))


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("shape", GRID_SHAPES)
def test_grid_families(shape, tol):
    m, n = shape
    statuses = set()
    for seed in range(8):
        for structure in ("general", "z", "circulant", "symmetric"):
            AI = random_interval_tensor(
                GeneratorSpec(m, n, structure=structure, seed=seed + 300)
            )
            assert_oracles_match(_narrow(AI, 9, seed), tol, member_seed=seed)
        # Diagonally strong families hold, so every vertex is evaluated.
        spec = GeneratorSpec(m, n, diag_range=(1.5 * n**m, 2.0 * n**m),
                             offdiag_range=(-0.5, 0.5), radius_scale=0.25,
                             seed=seed + 700)
        ref = assert_oracles_match(_narrow(random_interval_tensor(spec), 9, seed), tol)
        statuses.add(ref.status)
    assert statuses == {Status.HOLDS}


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("shape", ((3, 2), (2, 3), (3, 3)))
def test_off_grid_families(shape, tol):
    m, n = shape
    for seed in range(6):
        assert_oracles_match(_narrow(_off_grid(m, n, seed), 8, seed), tol)
        AI = _off_grid(m, n, seed + 50, signed_zeros=True)
        assert_oracles_match(_narrow(AI, 8, seed), tol)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("shape", ((3, 2), (2, 3)))
def test_boundary_families(shape, tol):
    assert_oracles_match(boundary_interval(*shape), tol)
    assert_oracles_match(boundary_interval(*shape, scale=0.1), tol)


@pytest.mark.parametrize("tol", TOLS)
def test_degenerate_box(tol, family_not_b, family_double_b):
    # All -0.0: the row maximum must stay +0.0.  Two rows on the slack
    # boundary: condition c fails with equal sides.
    for T in (family_not_b.lower, family_double_b.upper,
              make_tensor(3, 2, [-0.0] * 8),
              make_tensor(3, 2, [3, -1, -1, -1, -1, -1, -1, 3])):
        ref = assert_oracles_match(degenerate_interval(T), tol)
        assert ref.vertices_checked == 1


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("order", (2, 3, 4))
def test_dim_one(order, tol):
    for lo, up in ((2.0, 3.0), (-0.0, 1.0), (-1.5, -0.0), (-1.0, -1.0)):
        AI = make_interval(make_tensor(order, 1, [lo]), make_tensor(order, 1, [up]))
        assert_oracles_match(AI, tol)


def _failing_families():
    """Families whose first failing vertex is not the first vertex."""
    found = []
    for seed in range(200):
        AI = _narrow(random_interval_tensor(GeneratorSpec(3, 2, seed=seed)), 6, seed)
        for name, ref in (("b", reference_oracle_b(AI)),
                          ("double_b", reference_oracle_double_b(AI))):
            if ref.status is Status.FAILS and ref.vertices_checked > 2:
                found.append((name, AI, ref.vertices_checked - 1))
        if len({name for name, _, _ in found}) == 2 and len(found) >= 6:
            return found
    raise AssertionError("too few families failing after their first vertex")


def test_failure_on_first_and_last_row_of_a_block(monkeypatch):
    run = {"b": oracle_interval_b, "double_b": oracle_interval_double_b}
    ref_of = {"b": reference_oracle_b, "double_b": reference_oracle_double_b}
    for name, AI, v in _failing_families():
        ref = _fields(ref_of[name](AI))
        # v rows per block: the failing vertex opens the second block;
        # v + 1 rows: it closes the first.
        for rows in (v, v + 1):
            monkeypatch.setattr(interval, "VERTEX_BLOCK_ENTRIES", rows * 8)
            assert _fields(run[name](AI)) == ref
            blocks = [len(b) for _, b in interval.vertex_blocks(AI)]
            assert blocks[0] == rows and sum(blocks) == interval.vertex_count(AI)


def test_small_blocks_everywhere(monkeypatch):
    monkeypatch.setattr(interval, "VERTEX_BLOCK_ENTRIES", 3 * 9)
    for seed in range(10):
        AI = _narrow(random_interval_tensor(GeneratorSpec(2, 3, seed=seed + 40)), 7, seed)
        assert_oracles_match(AI, 0.0)
        spec = GeneratorSpec(2, 3, diag_range=(12.0, 16.0), offdiag_range=(-0.5, 0.5),
                             radius_scale=0.25, seed=seed + 60)
        ref = assert_oracles_match(_narrow(random_interval_tensor(spec), 7, seed), 0.0)
        assert ref.holds()


def test_interior_belt(monkeypatch):
    """With no vertex blocks, the belt of interior members decides: the
    same members, the same first failure."""
    monkeypatch.setattr(oracle, "vertex_blocks", lambda AI, limit: iter(()))
    outcomes = set()
    for seed in range(12):
        AI = _narrow(random_interval_tensor(GeneratorSpec(3, 2, seed=seed + 80)), 8, seed)
        for tol in TOLS:
            got = oracle_interval_double_b(AI, tol=tol, member_seed=seed)
            ref = reference_oracle_double_b(
                AI, tol=tol, member_seed=seed, vertices=False
            )
            assert _fields(got) == _fields(ref)
            outcomes.add(got.method)
    assert outcomes == {"interior_double_b", "vertex_double_b"}


def _belt_rows(monkeypatch, AI, **kw):
    """The blocks the oracle hands to the double B array check when it has
    no vertex blocks: the interior belt, if it is drawn at all."""
    seen = []

    def spy(rows, AI, tol):
        seen.append(rows.copy())
        return DOUBLE_B_FAILURE(rows, AI, tol)

    monkeypatch.setattr(oracle, "vertex_blocks", lambda AI, limit: iter(()))
    monkeypatch.setattr(oracle, "_double_b_failure", spy)
    verdict = oracle_interval_double_b(AI, **kw)
    return verdict, seen


def _belt_families():
    yield random_interval_tensor(GeneratorSpec(3, 2, seed=5))
    yield boundary_interval(2, 3)
    for seed in range(4):
        yield _off_grid(3, 2, seed + 90, signed_zeros=True)
        yield _off_grid(2, 3, seed + 95)
    yield degenerate_interval(make_tensor(3, 2, [-0.0] * 8))
    yield make_interval(make_tensor(2, 2, [-0.0, -1.0, -0.0, 2.0]),
                        make_tensor(2, 2, [0.0, -1.0, 1e-300, 2.0]))


def test_belt_rows_lie_in_the_box(monkeypatch):
    for member_seed in (0, 3):
        for AI in _belt_families():
            _, seen = _belt_rows(monkeypatch, AI, member_seed=member_seed)
            (rows,) = seen
            assert rows.shape == (64, AI.lower.entries.size)
            assert (rows >= AI.lower.entries).all()
            assert (rows <= AI.upper.entries).all()
            pinned = AI.lower.entries == AI.upper.entries
            assert (rows[:, pinned] == AI.lower.entries[pinned]).all()


def test_belt_first_row_is_random_member(monkeypatch):
    for member_seed in (0, 1, 12345):
        for AI in _belt_families():
            _, (rows,) = _belt_rows(monkeypatch, AI, member_seed=member_seed)
            first = random_member(AI, seed=member_seed * 1_000_003).entries
            assert rows[0].tobytes() == first.tobytes()


def test_belt_sizes_zero_and_one(monkeypatch):
    # A family whose belt fails: with no belt the oracle has nothing left
    # to check and holds; a belt of one member is decided like the reference.
    failing = []
    for seed in range(12):
        AI = _narrow(random_interval_tensor(GeneratorSpec(3, 2, seed=seed + 80)), 8, seed)
        ref = reference_oracle_double_b(AI, member_seed=seed, interior_members=1,
                                        vertices=False)
        got, seen = _belt_rows(monkeypatch, AI, member_seed=seed, interior_members=1)
        assert [len(rows) for rows in seen] == [1]
        assert _fields(got) == _fields(ref)
        if ref.method == "interior_double_b":
            failing.append(seed)
            got, seen = _belt_rows(monkeypatch, AI, member_seed=seed,
                                   interior_members=0)
            assert seen == []
            assert got.holds() and got.vertices_checked == 0
    assert failing


def test_budget_exceeded_required(family_double_b):
    for run, ref in ((oracle_interval_b, reference_oracle_b),
                     (oracle_interval_double_b, reference_oracle_double_b)):
        with pytest.raises(BudgetExceeded) as got:
            run(family_double_b, 100)
        with pytest.raises(BudgetExceeded) as want:
            ref(family_double_b, 100)
        assert got.value.required == want.value.required == 256
        assert str(got.value) == str(want.value)


def test_vertex_iter_is_the_reference_enumeration(family_double_b):
    for AI in (family_double_b, boundary_interval(2, 3),
               _off_grid(3, 2, 7, signed_zeros=True)):
        got = [T.entries.tobytes() for T in vertex_iter(AI)]
        assert got == [T.entries.tobytes() for T in reference_vertices(AI)]

"""The streamed P falsifier against the whole-array one.

``reference_candidates`` and ``reference_falsify_p`` are ``falsify_p`` as
it was before it streamed its candidates: every candidate built at once
(sign vectors from a Python loop), one ``np.einsum`` contraction over all
of them, then the exact recheck in index order.  The streamed falsifier
must return the same ``FalsifyResult``: the same verdict, the same
counterexample bit for bit and the same ``samples_used``, also when its
candidates and their powers are reused from the kept sets
(``classify._p_stream`` and ``classify._p_powers``).
"""

import json
import sys
import threading
import time

import numpy as np
import pytest

from itensor import (
    GeneratorSpec,
    diagonal_tensor,
    falsify_p,
    make_tensor,
    midpoint_radius,
    random_interval_tensor,
    random_member,
    sign_transform,
    tensor_apply,
)
from itensor import classify
from itensor.classify import FalsifyResult
from itensor.cli import main
from itensor.tensor import tensor_apply_many, tensor_to_json


def reference_candidates(n, budget, seed):
    blocks = [np.eye(n), -np.eye(n)]
    if n <= 20:
        signs = np.empty((2**n, n))
        for s in range(2**n):
            signs[s] = [-1.0 if (s >> i) & 1 else 1.0 for i in range(n)]
        blocks.append(signs)
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((budget, n))
    norms = np.linalg.norm(draws, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    blocks.append(draws / norms)
    return np.vstack(blocks)


def reference_apply_many(A, X):
    m = A.order
    letters = "abcdefghijklmnopqrtuvwxyz"
    subs = letters[:m] + "".join("," + "s" + letters[k] for k in range(1, m))
    return np.einsum(subs + "->s" + letters[0], A.nd, *([X] * (m - 1)), optimize=True)


def reference_falsify_p(A, budget, seed):
    X = reference_candidates(A.dim, budget, seed)
    vals = np.max(X * reference_apply_many(A, X), axis=1)
    margin = 1e-9 * (1.0 + float(np.max(np.abs(A.entries))) * A.row_len)
    for idx in np.nonzero(vals <= margin)[0]:
        x = X[int(idx)]
        exact = max(x[i] * v for i, v in enumerate(tensor_apply(A, x)))
        if exact <= 0.0:
            return FalsifyResult(True, tuple(float(v) for v in x), int(idx) + 1, seed)
    return FalsifyResult(False, None, X.shape[0], seed)


def _bits(res):
    x = res.counterexample_x
    return (res.falsified, None if x is None else tuple(v.hex() for v in x),
            res.samples_used, res.seed)


def assert_same(T, budget, seed):
    got = falsify_p(T, budget=budget, seed=seed)
    ref = reference_falsify_p(T, budget, seed)
    assert _bits(got) == _bits(ref)
    return ref


def _p_members(m, n, settings, seed, count):
    """Sign-transform and random members of one symmetric family, as the
    falsification pipeline draws them."""
    AI = random_interval_tensor(
        GeneratorSpec(m, n, structure="symmetric", seed=seed, **settings)
    )
    mid, rad = midpoint_radius(AI)
    members = [sign_transform(mid, rad, z) for z in ((1,) * n, (-1,) + (1,) * (n - 1))]
    return members + [random_member(AI, seed=seed + k) for k in range(count)]


def _scaled(m, n):
    q = n ** (m - 1) - 1
    return dict(diag_range=(1.2 * q, 1.8 * q), offdiag_range=(-1.0, 1.0),
                radius_scale=0.25)


P_SHAPES = (
    (4, 2, dict(diag_range=(6.0, 9.0), offdiag_range=(-0.25, 0.25),
                radius_scale=0.125)),
    (4, 3, _scaled(4, 3)),
    (3, 6, _scaled(3, 6)),
)


@pytest.mark.parametrize("m, n, settings", P_SHAPES)
def test_pipeline_shapes(m, n, settings):
    outcomes = set()
    for f in range(2):
        for k, T in enumerate(_p_members(m, n, settings, 40 + f, 3)):
            outcomes.add(assert_same(T, 10_000, seed=f * 10 + k).falsified)
    assert outcomes == {m % 2 == 1}


def test_odd_order_refuted_at_negative_first_basis_vector():
    T = make_tensor(3, 2, [4.0, 0.5, 0.5, 0.25, 0.5, 0.25, 0.25, 5.0])
    res = assert_same(T, 10_000, seed=3)
    assert res.falsified and res.samples_used == 2 + 1
    assert res.counterexample_x == (-1.0, 0.0)


@pytest.mark.parametrize("m, n", ((2, 2), (2, 3), (2, 5), (3, 3), (4, 2), (5, 2)))
def test_random_tensors(m, n):
    rng = np.random.default_rng(m * 10 + n)
    outcomes = set()
    for k in range(30):
        shift = rng.uniform(0.0, 1.5) * n ** (m - 1) if k % 3 else 0.0
        T = make_tensor(m, n, rng.uniform(-1.0, 1.0, n**m) + shift)
        outcomes.add(assert_same(T, (1, 7, 300)[k % 3], seed=k).falsified)
    assert True in outcomes


def test_dim_one():
    for m in (2, 3, 4):
        for k, a in enumerate((2.0, -1.0, 0.0, -0.0)):
            for budget in (1, 5):
                assert_same(make_tensor(m, 1, [a]), budget, seed=k + m)


def test_no_sign_block_above_twenty():
    n = 21
    rng = np.random.default_rng(21)
    A = rng.uniform(-1.0, 1.0, (n, n)) + np.eye(n) * 30.0
    res = assert_same(make_tensor(2, n, A.reshape(-1)), 50, seed=2)
    assert not res.falsified and res.samples_used == 2 * n + 50
    B = A.copy()
    B[:, 0] = -B[:, 0]  # x = e_0 now gives x_0 (B x)_0 = b_00 < 0
    res = assert_same(make_tensor(2, n, B.reshape(-1)), 50, seed=2)
    assert res.falsified and res.samples_used == 1


def test_budget_one():
    T = diagonal_tensor(4, 2, 6.0)
    res = assert_same(T, 1, seed=9)
    assert res.samples_used == 2 * 2 + 4 + 1
    assert_same(make_tensor(3, 2, [1, -2, 3, -4, 5, -6, 7, -8]), 1, seed=9)


def test_falsifier_on_a_block_boundary(monkeypatch):
    """The first falsifier as the last row of one block and as the first
    row of the next, in the sign block and in the sample blocks."""
    rng = np.random.default_rng(77)
    hits = set()
    for k in range(400):
        T = make_tensor(2, 3, rng.uniform(-1.0, 1.0, 9) + np.eye(3).reshape(-1) * 0.6)
        ref = reference_falsify_p(T, 40, seed=k)
        idx = ref.samples_used - 1
        start = 2 * 3  # the basis block always stands alone
        if not ref.falsified or idx <= start + 1:
            continue
        hits.add("sign" if idx < start + 8 else "sample")
        # Sign and sample blocks restart at their own first candidate.
        off = idx - start if idx < start + 8 else idx - start - 8
        for rows in {off, off + 1} - {0}:
            monkeypatch.setattr(classify, "P_BLOCK_ENTRIES", rows * 3)
            assert _bits(falsify_p(T, budget=40, seed=k)) == _bits(ref)
        if hits == {"sign", "sample"}:
            break
    assert hits == {"sign", "sample"}


def test_small_blocks_everywhere(monkeypatch):
    monkeypatch.setattr(classify, "P_BLOCK_ENTRIES", 3 * 4)
    rng = np.random.default_rng(5)
    for k in range(20):
        T = make_tensor(3, 2, rng.uniform(-1.0, 1.0, 8) + (2.0 if k % 2 else 0.0))
        assert_same(T, 25, seed=k)
        assert_same(T, 2, seed=k)


def test_chunked_draws_equal_single_draw():
    for n in (1, 2, 3, 6):
        whole = np.random.default_rng(11).standard_normal((1000, n))
        rng = np.random.default_rng(11)
        parts = [rng.standard_normal((size, n)) for size in (1, 7, 256, 736)]
        assert np.vstack(parts).tobytes() == whole.tobytes()
        # Skip the basis block and the sign block (2**n <= 300 rows: one).
        got = np.vstack(list(classify._p_blocks(n, 1000, 11, 300))[2:])
        assert got.tobytes() == reference_candidates(n, 1000, 11)[2 * n + 2**n:].tobytes()


@pytest.mark.parametrize("m", (2, 3, 4, 5, 6))
def test_apply_many_within_falsifier_margin(m):
    rng = np.random.default_rng(m)
    for n in (1, 2, 3):
        T = make_tensor(m, n, rng.uniform(-4.0, 4.0, n**m))
        X = np.vstack(list(classify._p_blocks(n, 200, m, 64)))
        margin = 1e-9 * (1.0 + float(np.max(np.abs(T.entries))) * T.row_len)
        batched = tensor_apply_many(T, X)
        exact = np.array([tensor_apply(T, x) for x in X])
        assert np.max(np.abs(batched - exact)) < margin / 1000
        assert np.max(np.abs(reference_apply_many(T, X) - exact)) < margin / 1000


# ---------------------------------------------------- kept candidate sets


@pytest.fixture
def fresh_caches():
    for cache in (classify._p_stream, classify._p_powers):
        cache.cache_clear()
    yield
    for cache in (classify._p_stream, classify._p_powers):
        cache.cache_clear()


def _key(T, budget, seed):
    return (T.dim, budget, seed, max(1, classify.P_BLOCK_ENTRIES // T.row_len))


def _kept():
    """(sets, powers) held by the two caches."""
    return (classify._p_stream.cache_info().currsize,
            classify._p_powers.cache_info().currsize)


@pytest.mark.parametrize("m, n, settings", P_SHAPES)
def test_replayed_calls_match_the_first_and_the_reference(m, n, settings, fresh_caches):
    members = _p_members(m, n, settings, 60, 3)
    first = [_bits(falsify_p(T, budget=10_000, seed=4)) for T in members]
    assert _kept()[0] == classify._p_stream.cache_info().misses == 1  # one draw
    again = [_bits(falsify_p(T, budget=10_000, seed=4)) for T in members]
    assert classify._p_stream.cache_info().misses == 1
    assert again == first
    assert first == [_bits(reference_falsify_p(T, 10_000, 4)) for T in members]


def test_interleaved_keys_do_not_disturb_each_other(fresh_caches):
    calls = [(T, budget, seed)
             for m, n, settings in P_SHAPES
             for T in _p_members(m, n, settings, 70, 1)
             for budget in (7, 10_000) for seed in (0, 1)]
    refs = [_bits(reference_falsify_p(*c)) for c in calls]
    for order in (calls, calls[::-1], calls[::2] + calls[1::2]):
        got = {id(c): _bits(falsify_p(c[0], budget=c[1], seed=c[2])) for c in order}
        assert [got[id(c)] for c in calls] == refs
    assert _kept()[0] == len({_key(*c) for c in calls})


def test_cached_blocks_are_read_only(fresh_caches):
    T = diagonal_tensor(4, 2, 6.0)
    assert not falsify_p(T, budget=10_000, seed=2).falsified
    blocks = classify._p_stream(*_key(T, 10_000, 2))
    assert classify._p_stream.cache_info().misses == 1  # the kept set
    assert isinstance(blocks, tuple)
    assert len(blocks) == 4  # basis, signs, two sample blocks
    for X in blocks:
        with pytest.raises(ValueError):
            X[0, 0] = 0.0


def test_a_budget_over_the_cap_is_not_kept(fresh_caches):
    T = diagonal_tensor(4, 2, 6.0)
    over = classify.P_BLOCK_ENTRIES // 2 - 2 * 2 - 4 + 1  # one sample too many
    assert_same(T, over, seed=3)
    assert _kept() == (0, 0)
    assert_same(T, over - 1, seed=3)
    assert _kept()[0] == 1


def test_a_draw_cut_short_restarts_the_stream(monkeypatch, fresh_caches):
    real, starts = classify._p_blocks, []

    def flaky(*key):
        starts.append(key)
        for k, X in enumerate(real(*key)):
            if len(starts) == 1 and k == 2:
                raise MemoryError
            yield X

    monkeypatch.setattr(classify, "_p_blocks", flaky)
    T = diagonal_tensor(4, 2, 6.0)
    with pytest.raises(MemoryError):
        falsify_p(T, budget=10_000, seed=8)
    assert _kept() == (0, 0)
    assert _bits(falsify_p(T, budget=10_000, seed=8)) == _bits(
        reference_falsify_p(T, 10_000, 8))
    assert len(starts) == 2
    assert _kept() == (1, 1)


def test_threads_share_one_stream(monkeypatch, fresh_caches):
    """Four threads missing both caches at once get the reference results,
    and one set and one power stay kept."""
    real = classify._p_blocks

    def slow(*key):
        time.sleep(0.05)  # every thread reaches the cache before it fills
        yield from real(*key)

    monkeypatch.setattr(classify, "_p_blocks", slow)
    members = _p_members(4, 2, P_SHAPES[0][2], 80, 6)
    refs = [_bits(reference_falsify_p(T, 10_000, 6)) for T in members]
    results = [None] * 4
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def run(k):
            results[k] = [_bits(falsify_p(T, budget=10_000, seed=6)) for T in members]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert results == [refs] * 4
    assert _kept() == (1, 1)


# --------------------------------------------------------- kept Kronecker powers


def test_kept_powers_are_read_only(fresh_caches):
    T = diagonal_tensor(4, 2, 6.0)
    assert not falsify_p(T, budget=10_000, seed=2).falsified
    key = _key(T, 10_000, 2)
    blocks, powers = classify._p_stream(*key), classify._p_powers(key, 4)
    assert classify._p_powers.cache_info()[:2] == (1, 1)  # the kept powers
    assert len(powers) == len(blocks) == 4
    for X, (XT, power) in zip(blocks, powers):
        assert XT.flags.c_contiguous and XT.tobytes() == X.T.copy().tobytes()
        assert power.shape == (T.row_len, len(X))
        for arr in (XT, power):
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0


def _power_budget(T):
    """The budget whose candidate set's power has exactly twice
    ``P_BLOCK_ENTRIES`` entries."""
    n = T.dim
    return 2 * classify.P_BLOCK_ENTRIES // T.row_len - 2 * n - (1 << n)


def test_a_power_over_the_cap_is_not_kept(fresh_caches):
    for k, T in enumerate(_p_members(4, 2, P_SHAPES[0][2], 90, 2)):
        at = _power_budget(T)
        assert (at + 2 * 2 + 4) * T.row_len == 2 * classify.P_BLOCK_ENTRIES
        for budget, keeps in ((at, 1), (at + 1, 0)):
            for cache in (classify._p_stream, classify._p_powers):
                cache.cache_clear()
            assert_same(T, budget, seed=k)
            assert _kept() == (1, keeps)  # the candidates are kept either way
            assert_same(T, budget, seed=k)


def test_a_power_build_cut_short_keeps_nothing(monkeypatch, fresh_caches):
    real = classify.kron_power_t

    def failing(XT, order):
        real(XT, order)
        raise MemoryError

    T = diagonal_tensor(4, 2, 6.0)
    monkeypatch.setattr(classify, "kron_power_t", failing)
    with pytest.raises(MemoryError):
        falsify_p(T, budget=10_000, seed=8)
    assert _kept() == (1, 0)  # the whole set, drawn before the build
    monkeypatch.setattr(classify, "kron_power_t", real)
    assert _bits(falsify_p(T, budget=10_000, seed=8)) == _bits(
        reference_falsify_p(T, 10_000, 8))
    assert _kept() == (1, 1)


# ------------------------------------------------------------- negative seeds


@pytest.mark.parametrize("m", (3, 4))
def test_a_negative_seed_is_refused_before_any_draw(monkeypatch, fresh_caches, m):
    """Refused at either order, although -e_1 refutes the odd one first."""
    def no_draw(*key):
        raise AssertionError("drew candidates")

    monkeypatch.setattr(classify, "_p_blocks", no_draw)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        falsify_p(diagonal_tensor(m, 2, 1.0), 10, -1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        falsify_p(diagonal_tensor(m, 2, 1.0), 10, np.int64(-3))
    assert _kept() == (0, 0)


@pytest.mark.parametrize("m", (3, 4))
def test_the_cli_refuses_a_negative_seed(tmp_path, capsys, m):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(tensor_to_json(diagonal_tensor(m, 2, 1.0))))
    assert main(["check", "--class", "p-falsify", str(path), "--seed", "-1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --seed must be >= 0\n"

import itertools

import numpy as np
import pytest

from itensor import (
    BudgetExceeded,
    GeneratorSpec,
    check_double_b,
    contains,
    degenerate_interval,
    extreme_double_raise,
    extreme_hat,
    extreme_prime,
    extreme_row_max_except,
    extreme_single_raise,
    interval_from_json,
    interval_to_json,
    is_interval_z,
    is_symmetric_interval,
    make_interval,
    make_tensor,
    midpoint_radius,
    random_interval_tensor,
    reduce_via_K,
    sign_transform,
    vertex_count,
    vertex_iter,
    zeros,
)
from itensor.tensor import offdiag_tail_flats


class TestMakeInterval:
    def test_reference_bounds_accepted(self, family_not_b):
        assert contains(family_not_b, family_not_b.lower)
        assert contains(family_not_b, family_not_b.upper)

    def test_degenerate(self):
        T = make_tensor(2, 2, [1, 2, 3, 4])
        AI = degenerate_interval(T)
        assert contains(AI, T)
        assert vertex_count(AI) == 1

    def test_crossed_bounds_rejected_with_position(self):
        lo = make_tensor(2, 2, [1, 2, 3, 4])
        up = make_tensor(2, 2, [1, 0, 3, 4])
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            make_interval(lo, up)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            make_interval(zeros(2, 2), zeros(3, 2))


class TestMidpointRadius:
    def test_reference_values(self, family_double_b):
        mid, rad = midpoint_radius(family_double_b)
        assert mid.entries.tolist() == [6.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 6.5]
        assert rad.entries.tolist() == [0.5] * 8

    def test_degenerate(self):
        T = make_tensor(2, 2, [1, 2, 3, 4])
        mid, rad = midpoint_radius(degenerate_interval(T))
        assert mid == T
        assert rad == zeros(2, 2)

    def test_exact_reconstruction_on_grid_values(self):
        for seed in range(20):
            AI = random_interval_tensor(GeneratorSpec(3, 2, seed=seed))
            mid, rad = midpoint_radius(AI)
            assert np.array_equal(mid.entries - rad.entries, AI.lower.entries)
            assert np.array_equal(mid.entries + rad.entries, AI.upper.entries)

    def test_symmetric_interval_detection(self, family_double_b):
        assert is_symmetric_interval(family_double_b)
        arr = family_double_b.upper.entries.copy()
        arr[1] = 2.0
        bent = make_interval(
            family_double_b.lower, make_tensor(3, 2, arr)
        )
        assert not is_symmetric_interval(bent)

    def test_symmetric_interval_beyond_midpoint_range(self):
        # (lower + upper) / 2 overflows; both bounds are symmetric.
        lower = make_tensor(2, 2, [1.5e308, 0.5, 0.5, 1.5e308])
        upper = make_tensor(2, 2, [1.6e308, 1.0, 1.0, 1.6e308])
        assert is_symmetric_interval(make_interval(lower, upper))
        bent = make_tensor(2, 2, [1.6e308, 1.0, 0.75, 1.6e308])
        assert not is_symmetric_interval(make_interval(lower, bent))


class TestContains:
    def test_above_upper_rejected(self, family_double_b):
        arr = family_double_b.upper.entries.copy()
        arr[3] += 1.0
        assert not contains(family_double_b, make_tensor(3, 2, arr))

    def test_sign_transform_members(self, family_double_b):
        mid, rad = midpoint_radius(family_double_b)
        for z in itertools.product((1, -1), repeat=2):
            assert contains(family_double_b, sign_transform(mid, rad, z))


class TestExtremeConstructions:
    def test_prime(self, family_double_b):
        T = extreme_prime(family_double_b)
        assert T.entries.tolist() == [6, 1, 1, 1, 1, 1, 1, 6]
        assert contains(family_double_b, T)

    def test_prime_degenerate(self):
        A = make_tensor(2, 2, [1, 2, 3, 4])
        assert extreme_prime(degenerate_interval(A)) == A

    def test_prime_equals_all_offdiag_raises(self):
        from itensor.tensor import offdiag_tail_flats

        for seed in range(10):
            AI = random_interval_tensor(GeneratorSpec(3, 2, seed=seed + 60))
            acc = AI.lower
            for i1 in range(AI.dim):
                for f in offdiag_tail_flats(AI.lower, i1):
                    acc = extreme_single_raise(make_interval(acc, AI.upper), i1, f)
            assert acc == extreme_prime(AI)

    def test_single_raise(self, family_not_b):
        T = extreme_single_raise(family_not_b, 0, (1, 1))
        expect = family_not_b.lower.entries.copy()
        expect[3] = 2.0
        assert T.entries.tolist() == expect.tolist()
        assert contains(family_not_b, T)

    def test_single_raise_diagonal_rejected(self, family_not_b):
        with pytest.raises(ValueError, match="off-diagonal"):
            extreme_single_raise(family_not_b, 1, (1, 1))

    def test_single_raise_accepts_flat_offset(self, family_not_b):
        assert extreme_single_raise(family_not_b, 0, 3) == extreme_single_raise(
            family_not_b, 0, (1, 1)
        )

    def test_double_raise(self, family_double_b):
        T = extreme_double_raise(family_double_b, (0, (0, 1)), (1, (1, 0)))
        assert T.entry((0, 0, 1)) == 1.0
        assert T.entry((1, 1, 0)) == 1.0
        assert float(np.sum(T.entries)) == 14.0
        assert contains(family_double_b, T)

    def test_double_raise_same_row_rejected(self, family_double_b):
        with pytest.raises(ValueError, match="distinct rows"):
            extreme_double_raise(family_double_b, (0, (0, 1)), (0, (1, 0)))

    def test_double_raise_equals_two_singles(self, family_not_b):
        d = extreme_double_raise(family_not_b, (0, (1, 1)), (1, (0, 0)))
        s1 = extreme_single_raise(family_not_b, 0, (1, 1))
        AI2 = make_interval(s1, family_not_b.upper)
        s2 = extreme_single_raise(AI2, 1, (0, 0))
        assert d == s2

    def test_row_max_except(self, family_double_b):
        T = extreme_row_max_except(family_double_b, 0)
        # Row 2 argmax over equal uppers resolves to the smallest offset,
        # tail (1,1); everything else stays at the lower bound.
        expect = family_double_b.lower.entries.copy()
        expect[4] = 1.0
        assert T.entries.tolist() == expect.tolist()
        assert contains(family_double_b, T)

    def test_row_max_except_degenerate(self):
        A = make_tensor(3, 2, [5, 0, 0, 0, 0, 0, 0, 5])
        assert extreme_row_max_except(degenerate_interval(A), 0) == A

    def test_row_max_except_single_dim(self):
        AI = make_interval(make_tensor(2, 1, [1.0]), make_tensor(2, 1, [2.0]))
        assert extreme_row_max_except(AI, 0) == AI.lower

    def test_hat_reference_values(self, family_double_b):
        T = extreme_hat(family_double_b)
        assert T.row_list(0) == [6.0, 1.0, 0.0, 0.0]
        assert T.row_list(1) == [1.0, 0.0, 0.0, 6.0]

    def test_hat_can_leave_the_box(self):
        # Row 0: upper argmax at offset 1 whose lower bound 0 undercuts the
        # other off-diagonal lower bound 3.
        lo = make_tensor(2, 3, [5, 0, 3, 0, 5, 0, 0, 0, 5])
        up = make_tensor(2, 3, [6, 4, 3.5, 0, 6, 0, 0, 0, 6])
        AI = make_interval(lo, up)
        T = extreme_hat(AI)
        assert T.row_list(0) == [5.0, 4.0, 0.0]
        assert not contains(AI, T)

    def test_hat_degenerate_constant_offdiag(self):
        A = make_tensor(3, 2, [5, 1, 1, 1, 1, 1, 1, 5])
        T = extreme_hat(degenerate_interval(A))
        assert T == A


class TestReduceViaK:
    def test_reference_family_unchanged(self, family_double_b):
        reduced, K = reduce_via_K(family_double_b)
        assert K == ()
        assert reduced == family_double_b

    def test_dominated_position_clamped(self):
        # Row 0 off-diagonal offsets 1 and 2: offset 2's upper 0.5 sits below
        # offset 1's lower 1.0, so offset 2 collapses to its lower bound.
        lo = make_tensor(2, 3, [4, 1, 0, 0, 4, 0, 0, 0, 4])
        up = make_tensor(2, 3, [5, 2, 0.5, 1, 5, 1, 1, 1, 5])
        AI = make_interval(lo, up)
        reduced, K = reduce_via_K(AI)
        assert (0, 2) in K
        assert reduced.upper.entry((0, 2)) == 0.0
        assert contains(AI, reduced.lower) and contains(AI, reduced.upper)

    def test_no_offdiag_witness_when_single_slot(self):
        # One off-diagonal position per row leaves no distinct witness.
        lo = make_tensor(2, 2, [4, 0, 0, 4])
        up = make_tensor(2, 2, [5, 1, 1, 5])
        _, K = reduce_via_K(make_interval(lo, up))
        assert K == ()

    def test_idempotent(self):
        for seed in range(20):
            AI = random_interval_tensor(GeneratorSpec(3, 2, seed=seed))
            reduced, _ = reduce_via_K(AI)
            again, _ = reduce_via_K(reduced)
            assert again == reduced


class TestVertexIter:
    def test_degenerate_single_vertex(self):
        T = make_tensor(2, 2, [1, 2, 3, 4])
        verts = list(vertex_iter(degenerate_interval(T)))
        assert verts == [T]

    def test_full_enumeration(self, family_double_b):
        verts = list(vertex_iter(family_double_b))
        assert len(verts) == 256
        assert verts[0] == family_double_b.lower
        assert verts[-1] == family_double_b.upper
        seen = {tuple(v.entries.tolist()) for v in verts}
        assert len(seen) == 256
        assert all(contains(family_double_b, v) for v in verts)

    def test_budget_guard(self, family_double_b):
        with pytest.raises(BudgetExceeded) as exc:
            list(vertex_iter(family_double_b, limit=100))
        assert exc.value.required == 256

    def test_budget_guard_on_a_box_past_the_int_to_str_limit(self):
        # 2**15129 has 4555 decimal digits, past int-to-str's 4300 limit.
        n = 123
        AI = make_interval(make_tensor(2, n, np.zeros(n * n)),
                           make_tensor(2, n, np.ones(n * n)))
        with pytest.raises(BudgetExceeded) as exc:
            list(vertex_iter(AI))
        assert exc.value.required == 1 << (n * n)
        assert str(exc.value) == (
            f"vertex enumeration needs 2**{n * n} tensors, limit is {2**20}"
        )

    def test_vertices_satisfy_double_b_for_reference(self, family_double_b):
        assert all(
            check_double_b(v).holds() for v in vertex_iter(family_double_b)
        )


class TestIntervalZ:
    def test_negative_uppers(self):
        lo = make_tensor(3, 2, [5, -1, -1, -1, -1, -1, -1, 5])
        up = make_tensor(3, 2, [6, -0.1, -0.1, -0.1, -0.1, -0.1, -0.1, 6])
        assert is_interval_z(make_interval(lo, up))

    def test_reference_family_not_z(self, family_double_b):
        assert not is_interval_z(family_double_b)

    def test_degenerate_z(self):
        T = make_tensor(3, 2, [5, -1, -1, -1, -1, -1, -1, 5])
        assert is_interval_z(degenerate_interval(T))

    def test_matches_per_row_scan(self):
        # Diagonal uppers never count; -0.0 and +0.0 off-diagonals are <= 0.
        def scan(AI):
            return not any(
                AI.upper.row_list(i)[f] > 0.0
                for i in range(AI.dim)
                for f in offdiag_tail_flats(AI.upper, i)
            )

        outcomes = set()
        for m, n in ((2, 1), (3, 1), (3, 2), (2, 3), (4, 2), (3, 3)):
            for seed in range(6):
                AI = random_interval_tensor(GeneratorSpec(m, n, seed=seed))
                upper = AI.upper.entries.copy()
                if seed % 2:  # positive entries to signed zeros
                    upper[upper > 0.0] = -0.0 if seed % 3 else 0.0
                lower = np.minimum(AI.lower.entries, upper)
                AI = make_interval(make_tensor(m, n, lower), make_tensor(m, n, upper))
                assert is_interval_z(AI) is scan(AI)
                outcomes.add(scan(AI))
        assert outcomes == {True, False}


class TestJson:
    def test_roundtrip(self, family_not_b):
        assert interval_from_json(interval_to_json(family_not_b)) == family_not_b

    def test_rejects_wrong_length(self):
        obj = {"order": 2, "dim": 2, "lower": [0, 0, 0], "upper": [1, 1, 1, 1]}
        with pytest.raises(ValueError):
            interval_from_json(obj)

    def test_rejects_crossed_bounds(self):
        obj = {"order": 2, "dim": 1, "lower": [2], "upper": [1]}
        with pytest.raises(ValueError):
            interval_from_json(obj)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itensor import (
    check_b,
    circulant_from_first_row,
    diagonal_tensor,
    gamma_plus,
    is_circulant,
    is_symmetric,
    make_tensor,
    row_mix,
    row_sum,
    row_view,
    sign_transform,
    tensor_apply,
    tensor_from_json,
    tensor_to_json,
    zeros,
)
from itensor.tensor import (
    MAX_ORDER,
    circulant_source,
    orbit_map,
    tail_to_flat,
    tensor_apply_many,
)


def small_tensors(max_order=3, max_dim=3):
    def build(draw):
        order = draw(st.integers(2, max_order))
        dim = draw(st.integers(1, max_dim))
        vals = draw(
            st.lists(
                st.floats(-8, 8).map(lambda v: round(v * 16) / 16),
                min_size=dim**order,
                max_size=dim**order,
            )
        )
        return make_tensor(order, dim, vals)

    return st.composite(build)()


class TestMakeTensor:
    def test_roundtrip_bit_exact(self):
        vals = [4.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 4.0]
        T = make_tensor(3, 2, vals)
        assert T.entries.tolist() == vals
        assert (T.order, T.dim, T.row_len) == (3, 2, 4)

    def test_single_entry_matrix(self):
        T = make_tensor(2, 1, [7.0])
        assert T.entry((0, 0)) == 7.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length 3"):
            make_tensor(3, 2, [1.0, 0.0, 0.0])

    def test_nonfinite_rejected_with_position(self):
        vals = [0.0] * 8
        vals[5] = math.nan
        with pytest.raises(ValueError, match=r"\(2, 1, 2\)"):
            make_tensor(3, 2, vals)

    def test_order_and_dim_bounds(self):
        with pytest.raises(ValueError):
            make_tensor(1, 2, [1.0, 2.0])
        with pytest.raises(ValueError):
            make_tensor(2, 0, [])

    def test_order_cap_before_allocation(self):
        class NotEntries:
            def __array__(self, *args, **kwargs):
                raise AssertionError("entries converted")

            def __len__(self):
                raise AssertionError("entries measured")

        for order in (MAX_ORDER + 1, 3_000_000, 10**30):
            with pytest.raises(ValueError, match=f"order must be <= {MAX_ORDER}"):
                make_tensor(order, 2, NotEntries())
        T = make_tensor(MAX_ORDER, 1, [2.5])
        assert T.nd.shape == (1,) * MAX_ORDER

    def test_entries_frozen(self):
        T = make_tensor(2, 2, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            T.entries[0] = 9.0


class TestRowOps:
    def test_row_sum_values(self, family_not_b, family_double_b):
        assert row_sum(family_not_b.lower, 0) == 5.0
        assert row_sum(family_not_b.lower, 1) == 6.0
        assert row_sum(zeros(3, 2), 0) == 0.0
        assert row_sum(family_double_b.lower, 0) == 6.0

    def test_row_sum_range_check(self):
        with pytest.raises(ValueError):
            row_sum(zeros(2, 2), 2)

    def test_row_view(self, family_not_b):
        assert row_view(family_not_b.lower, 1) == (1, (0.0, 1.0, 1.0, 4.0))

    def test_gamma_plus_values(self, family_not_b, family_double_b):
        assert gamma_plus(family_double_b.upper, 0) == 1.0
        assert gamma_plus(family_not_b.lower, 0) == 1.0
        T = make_tensor(2, 2, [5.0, -1.0, -2.0, 5.0])
        assert gamma_plus(T, 0) == 0.0

    def test_gamma_plus_single_dim(self):
        assert gamma_plus(make_tensor(3, 1, [4.0]), 0) == 0.0

    @settings(max_examples=60)
    @given(small_tensors())
    def test_gamma_plus_dominates_offdiag(self, T):
        from itensor.tensor import offdiag_tail_flats

        for i1 in range(T.dim):
            g = gamma_plus(T, i1)
            assert g >= 0.0
            row = T.row_list(i1)
            for f in offdiag_tail_flats(T, i1):
                assert g >= row[f]


class TestTensorApply:
    def test_diagonal_tensor_powers(self):
        T = diagonal_tensor(4, 3, 1.0)
        x = [2.0, -1.0, 0.5]
        assert tensor_apply(T, x) == [v**3 for v in x]

    def test_zero_vector(self, family_not_b):
        assert tensor_apply(family_not_b.lower, [0.0, 0.0]) == [0.0, 0.0]

    def test_all_ones_gives_row_sums(self, family_not_b):
        assert tensor_apply(family_not_b.lower, [1.0, 1.0]) == [5.0, 6.0]

    @settings(max_examples=40)
    @given(small_tensors())
    def test_ones_vector_matches_row_sums(self, T):
        out = tensor_apply(T, [1.0] * T.dim)
        assert out == [row_sum(T, i) for i in range(T.dim)]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tensor_apply(zeros(2, 2), [1.0])

    def test_batched_matches_exact(self):
        rng = np.random.default_rng(3)
        T = make_tensor(3, 2, rng.uniform(-2, 2, 8))
        X = rng.standard_normal((50, 2))
        batched = tensor_apply_many(T, X)
        for k in range(50):
            exact = tensor_apply(T, X[k])
            assert np.allclose(batched[k], exact, rtol=1e-12, atol=1e-12)


class TestSignTransform:
    def test_all_plus_gives_lower(self, family_double_b):
        from itensor import midpoint_radius

        c, d = midpoint_radius(family_double_b)
        assert sign_transform(c, d, [1, 1]) == family_double_b.lower

    def test_zero_radius_gives_midpoint(self):
        c = make_tensor(2, 2, [1.0, 2.0, 3.0, 4.0])
        d = zeros(2, 2)
        for z in ([1, 1], [1, -1], [-1, -1]):
            assert sign_transform(c, d, z) == c

    def test_hand_computed_entries(self):
        c = zeros(3, 2)
        d = make_tensor(3, 2, [1.0] * 8)
        T = sign_transform(c, d, [1, -1])
        assert T.entry((0, 1, 1)) == -1.0
        assert T.entry((0, 0, 1)) == 1.0

    def test_even_order_sign_flip_invariance(self):
        rng = np.random.default_rng(0)
        c = make_tensor(4, 2, rng.uniform(-2, 2, 16))
        d = make_tensor(4, 2, rng.uniform(0, 1, 16))
        assert sign_transform(c, d, [1, -1]) == sign_transform(c, d, [-1, 1])
        assert sign_transform(c, d, [1, 1]) == sign_transform(c, d, [-1, -1])

    def test_input_validation(self):
        c = zeros(2, 2)
        d = make_tensor(2, 2, [0.0, -1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="negative"):
            sign_transform(c, d, [1, 1])
        with pytest.raises(ValueError, match="sign"):
            sign_transform(c, zeros(2, 2), [1, 2])
        with pytest.raises(ValueError, match="shape"):
            sign_transform(c, zeros(3, 2), [1, 1])


class TestStructurePredicates:
    def test_diagonal_is_symmetric(self):
        assert is_symmetric(diagonal_tensor(3, 3, 2.0))

    def test_constant_offdiag_is_symmetric(self, family_double_b):
        assert is_symmetric(family_double_b.lower)
        assert is_symmetric(family_double_b.upper)

    def test_asymmetric_pair_detected(self):
        vals = [0.0] * 8
        vals[1] = 1.0  # entry (1,1,2) without its permuted twins
        assert not is_symmetric(make_tensor(3, 2, vals))

    def test_constant_tensor_is_circulant(self):
        assert is_circulant(make_tensor(3, 2, [3.0] * 8))

    def test_shift_mismatch_detected(self, family_not_b):
        # (1,1,2) and its shift (2,2,1) carry different values here.
        assert not is_circulant(family_not_b.lower)

    def test_generator_output_is_circulant(self):
        rng = np.random.default_rng(5)
        for order, dim in ((2, 3), (3, 2), (3, 3)):
            row = rng.uniform(-2, 2, dim ** (order - 1))
            assert is_circulant(circulant_from_first_row(row, order, dim))

    def test_generator_reproduces_its_row(self):
        row = [6.0, 0.0, 0.0, 0.0]
        T = circulant_from_first_row(row, 3, 2)
        assert T.row_list(0) == row

    def test_generator_matches_constant_family(self, family_double_b):
        assert circulant_from_first_row([6, 0, 0, 0], 3, 2) == family_double_b.lower
        assert circulant_from_first_row([7, 1, 1, 1], 3, 2) == family_double_b.upper

    def test_generator_roundtrip_on_circulant(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            T = circulant_from_first_row(rng.uniform(-3, 3, 9), 3, 3)
            assert circulant_from_first_row(T.row_list(0), 3, 3) == T

    def test_generator_length_check(self):
        with pytest.raises(ValueError):
            circulant_from_first_row([1.0, 2.0], 3, 2)
        with pytest.raises(ValueError, match=f"order must be <= {MAX_ORDER}"):
            circulant_from_first_row([1.0], 100, 1)

    def test_index_maps_match_per_entry_definitions(self):
        # The cached maps against the per-entry index arithmetic they
        # replace: sorted multi-index, and shift of every index by -i1.
        for order, dim in ((2, 1), (MAX_ORDER, 1), (2, 3), (3, 2), (3, 3), (4, 2)):
            shape = (dim,) * order
            canon, src = orbit_map(order, dim), circulant_source(order, dim)
            for f in range(dim**order):
                idx = [int(c) for c in np.unravel_index(f, shape)]
                assert canon[f] == tail_to_flat(sorted(idx), dim)
                assert src[f] == tail_to_flat([(c - idx[0]) % dim for c in idx[1:]], dim)
            assert not canon.flags.writeable and not src.flags.writeable

    def test_predicates_match_per_entry_definitions(self):
        rng = np.random.default_rng(3)
        for order, dim in ((2, 3), (3, 2), (3, 3)):
            shape = (dim,) * order
            base = circulant_from_first_row(rng.uniform(-1, 1, dim ** (order - 1)),
                                            order, dim).entries
            sym = base[orbit_map(order, dim)]
            for arr in (base, sym, base + (np.arange(base.size) == 1)):
                T = make_tensor(order, dim, arr)
                idxs = [np.unravel_index(f, shape) for f in range(arr.size)]
                assert is_symmetric(T) == all(
                    arr[f] == arr[tail_to_flat(sorted(int(c) for c in idx), dim)]
                    for f, idx in enumerate(idxs))
                assert is_circulant(T) == all(
                    arr[f] == arr[tail_to_flat([(int(c) + 1) % dim for c in idx], dim)]
                    for f, idx in enumerate(idxs))


class TestRowMix:
    def test_identity_mix_is_parent(self, family_not_b):
        T = family_not_b.lower
        out = row_mix([T], {0: (0, None), 1: (0, None)})
        assert out == T

    def test_mix_of_b_tensors_is_b(self):
        rng = np.random.default_rng(2)
        a = diagonal_tensor(3, 2, 5.0)
        b = make_tensor(3, 2, [6, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 6])
        assert check_b(a).holds() and check_b(b).holds()
        for _ in range(20):
            assignment = {
                i: (int(rng.integers(0, 2)), rng.permutation(3).tolist())
                for i in range(2)
            }
            assert check_b(row_mix([a, b], assignment)).holds()

    def test_swap_two_offdiag_slots_keeps_b(self):
        T = make_tensor(3, 2, [6, 0.5, 1.0, 0.25, 0.25, 1.0, 0.5, 6])
        assert check_b(T).holds()
        swapped = row_mix([T], {0: (0, [1, 0, 2]), 1: (0, None)})
        assert check_b(swapped).holds()
        assert sorted(swapped.row_list(0)) == sorted(T.row_list(0))

    def test_errors(self):
        T = zeros(2, 2)
        with pytest.raises(ValueError, match="missing row"):
            row_mix([T], {0: (0, None)})
        with pytest.raises(ValueError, match="bijection"):
            row_mix([T], {0: (0, [0, 0]), 1: (0, None)})
        with pytest.raises(ValueError, match="parent id"):
            row_mix([T], {0: (1, None), 1: (0, None)})


class TestJson:
    def test_roundtrip(self, family_not_b):
        T = family_not_b.lower
        assert tensor_from_json(tensor_to_json(T)) == T

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            tensor_from_json({"order": 2, "dim": 2, "entries": [1.0]})

    def test_rejects_non_numbers(self):
        with pytest.raises(ValueError, match="entries\\[1\\]"):
            tensor_from_json({"order": 2, "dim": 1, "entries": [1.0, "x"][:1] + ["x"]})

    @pytest.mark.parametrize("bad", ["x", True, None, [1.0], {"v": 1}])
    def test_rejects_a_non_number_at_the_last_index(self, bad):
        entries = [1.0, 2, -0.5, 3.25, 4.0, 5, 6.5, bad]
        with pytest.raises(ValueError, match=r"^entries\[7\] is not a number$"):
            tensor_from_json({"order": 3, "dim": 2, "entries": entries})

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing key"):
            tensor_from_json({"order": 2, "dim": 1})

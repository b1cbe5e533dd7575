import numpy as np
import pytest

from itensor import (
    BudgetExceeded,
    GeneratorSpec,
    Status,
    boundary_interval,
    check_b,
    check_double_b,
    check_interval_b,
    check_interval_double_b,
    contains,
    critical_row_tensor,
    degenerate_interval,
    equivalence_suite,
    extreme_single_raise,
    is_circulant,
    is_interval_z,
    is_symmetric_interval,
    make_tensor,
    oracle_interval_b,
    oracle_interval_double_b,
    random_interval_tensor,
    random_member,
)
from itensor import oracle
from itensor.tensor import tail_to_flat


class TestOracleIntervalB:
    def test_reject_family_failing_vertex_is_single_raise(self, family_not_b):
        v = oracle_interval_b(family_not_b)
        assert v.status is Status.FAILS
        assert v.failing_tensor == extreme_single_raise(family_not_b, 0, (1, 1))

    def test_accept_family_scans_all_vertices(self, family_double_b):
        v = oracle_interval_b(family_double_b)
        assert v.holds()
        assert v.vertices_checked == 256

    def test_degenerate_equals_point_check(self):
        for vals in ([5, 0, 0, 0, 0, 0, 0, 5], [0, 0, 0, 0, 0, 0, 0, 0]):
            T = make_tensor(3, 2, vals)
            assert oracle_interval_b(degenerate_interval(T)).holds() == check_b(
                T
            ).holds()

    def test_budget_guard(self, family_double_b):
        with pytest.raises(BudgetExceeded):
            oracle_interval_b(family_double_b, limit=8)

    def test_agreement_with_classifier(self):
        for seed in range(120):
            AI = random_interval_tensor(GeneratorSpec(3, 2, seed=seed + 1234))
            assert oracle_interval_b(AI).status == check_interval_b(AI).status


class TestOracleIntervalDoubleB:
    def test_accept_family(self, family_double_b):
        assert oracle_interval_double_b(family_double_b).holds()

    def test_reject_family_has_failing_vertex(self, family_not_b):
        v = oracle_interval_double_b(family_not_b)
        assert v.status is Status.FAILS
        assert v.failing_tensor is not None
        assert not check_double_b(v.failing_tensor).holds()
        assert contains(family_not_b, v.failing_tensor)

    def test_degenerate_equals_point_check(self):
        T = critical_row_tensor(3, 2)
        assert oracle_interval_double_b(degenerate_interval(T)).holds()
        assert oracle_interval_double_b(
            degenerate_interval(make_tensor(3, 2, [0] * 8))
        ).status is Status.FAILS

    def test_agreement_with_classifier(self):
        for seed in range(120):
            AI = random_interval_tensor(GeneratorSpec(2, 3, seed=seed + 999))
            assert (
                oracle_interval_double_b(AI).status
                == check_interval_double_b(AI).status
            )


class TestGenerators:
    def test_deterministic_in_seed(self):
        spec = GeneratorSpec(3, 2, seed=77)
        assert random_interval_tensor(spec) == random_interval_tensor(spec)

    def test_distinct_across_seeds(self):
        a = random_interval_tensor(GeneratorSpec(3, 2, seed=1))
        b = random_interval_tensor(GeneratorSpec(3, 2, seed=2))
        assert a != b

    def test_z_structure(self):
        for seed in range(30):
            AI = random_interval_tensor(GeneratorSpec(3, 2, structure="z", seed=seed))
            assert is_interval_z(AI)

    def test_circulant_structure(self):
        for seed in range(30):
            AI = random_interval_tensor(
                GeneratorSpec(3, 2, structure="circulant", seed=seed)
            )
            assert is_circulant(AI.lower) and is_circulant(AI.upper)

    def test_symmetric_structure(self):
        for seed in range(30):
            AI = random_interval_tensor(
                GeneratorSpec(4, 2, structure="symmetric", seed=seed)
            )
            assert is_symmetric_interval(AI)

    def test_orbit_average_sums_in_ascending_order(self):
        # Bit for bit the per-entry accumulation: each orbit sums from 0.0
        # in ascending flat order, then divides by its size.
        rng = np.random.default_rng(4)
        for m, n in ((3, 2), (2, 3), (3, 3), (4, 2), (3, 1)):
            arr = rng.uniform(-3, 3, n**m)
            sums, counts = {}, {}
            canon = [
                tail_to_flat(sorted(int(c) for c in np.unravel_index(f, (n,) * m)), n)
                for f in range(arr.size)
            ]
            for f, c in enumerate(canon):
                sums[c] = sums.get(c, 0.0) + float(arr[f])
                counts[c] = counts.get(c, 0) + 1
            expected = [(sums[c] / counts[c]).hex() for c in canon]
            assert [v.hex() for v in oracle._orbit_average(arr, m, n).tolist()] == expected

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec(3, 2, diag_range=(2.0, 1.0))
        with pytest.raises(ValueError):
            GeneratorSpec(3, 2, radius_scale=-0.5)
        with pytest.raises(ValueError):
            GeneratorSpec(3, 2, structure="weird")

    def test_random_member_contained_and_deterministic(self):
        AI = random_interval_tensor(GeneratorSpec(3, 2, seed=5))
        a = random_member(AI, seed=3)
        b = random_member(AI, seed=3)
        assert a == b
        assert contains(AI, a)

    def test_random_member_degenerate(self):
        T = make_tensor(2, 2, [1, 2, 3, 4])
        assert random_member(degenerate_interval(T), seed=9) == T


class TestBoundaryInstances:
    def test_interval_boundary(self):
        AI = boundary_interval(3, 2)
        assert check_interval_double_b(AI).holds()
        assert not check_interval_b(AI).holds()

    def test_point_boundary(self):
        T = critical_row_tensor(2, 3)
        assert check_double_b(T).holds()
        assert not check_b(T).holds()

    def test_too_small_shapes_rejected(self):
        with pytest.raises(ValueError):
            boundary_interval(2, 2)
        with pytest.raises(ValueError):
            critical_row_tensor(2, 1)


class TestExhaustiveSmallDomain:
    """Every matrix tensor and interval family on a small integer grid."""

    GRID = (-1.0, 0.0, 1.0, 2.0)

    def test_point_invariants_exhaustive(self):
        import itertools

        from itensor import check_z, classify_double_b_dichotomy, row_sum
        from itensor.classify import B_METHODS
        from itensor import check_dd

        for vals in itertools.product(self.GRID, repeat=4):
            T = make_tensor(2, 2, vals)
            assert len({check_b(T, m).status for m in B_METHODS}) == 1
            b = check_b(T).holds()
            db = check_double_b(T).holds()
            assert not b or db
            d = classify_double_b_dichotomy(T)
            assert (d.kind != "not_double_b") == db
            assert (d.kind == "is_b") == (db and b)
            if check_z(T).holds():
                sums = all(row_sum(T, i) > 0 for i in range(2))
                assert b == sums == check_dd(T, strict=True).holds()

    def test_interval_classifiers_equal_oracle_exhaustive(self):
        import itertools

        from itensor import (
            check_interval_b,
            check_interval_double_b,
            classify_interval_double_b_dichotomy,
            make_interval,
        )

        for lo_vals in itertools.product(self.GRID, repeat=4):
            lo = make_tensor(2, 2, lo_vals)
            for spread in itertools.product((0.0, 1.0), repeat=4):
                up = make_tensor(2, 2, [a + s for a, s in zip(lo_vals, spread)])
                AI = make_interval(lo, up)
                ib = check_interval_b(AI)
                assert ib.status == oracle_interval_b(AI).status
                idb = check_interval_double_b(AI)
                assert (
                    idb.status
                    == oracle_interval_double_b(AI, interior_members=4).status
                )
                d = classify_interval_double_b_dichotomy(AI)
                assert (d.kind != "not_double_b") == idb.holds()
                assert (d.kind == "interval_b") == (idb.holds() and ib.holds())


class TestEquivalenceSuite:
    def test_deterministic(self):
        a = equivalence_suite(40, seed=9, order=3, dim=2)
        b = equivalence_suite(40, seed=9, order=3, dim=2)
        assert a.to_json() == b.to_json()

    def test_no_failures_on_mixed_runs(self):
        rep = equivalence_suite(80, seed=13, order=3, dim=2)
        assert rep.total_failures() == 0
        assert rep.checked("interval_b_vs_oracle") == 80
        assert rep.checked("interval_double_b_vs_oracle") == 80

    def test_probe_sees_manufactured_boundaries(self):
        rep = equivalence_suite(60, seed=2, order=3, dim=2)
        probe = rep.inclusion_probe
        assert probe["manufactured_boundary_count"] >= 1
        assert probe["double_b_not_b"] >= 1
        assert probe["double_b_implies_b_refuted"] is True
        assert probe["b_implies_double_b_refuted"] is False

    def test_structured_runs(self):
        z = equivalence_suite(40, seed=3, order=3, dim=2, structure="z")
        assert z.total_failures() == 0
        assert z.checked("zfast_interval_b_agreement") == 40
        circ = equivalence_suite(40, seed=3, order=3, dim=2, structure="circulant")
        assert circ.total_failures() == 0
        assert circ.checked("circulant_agreement") == 40

    def test_symmetric_structure_run(self):
        # Orbit-averaged values must stay on the exact grid: seed 314 once
        # produced a row sitting mathematically on the B boundary, where the
        # three point methods split at the last ulp.
        rep = equivalence_suite(200, seed=314, order=3, dim=2, structure="symmetric")
        assert rep.total_failures() == 0

    def test_report_serializes(self):
        rep = equivalence_suite(10, seed=1, order=2, dim=3)
        js = rep.to_json()
        assert js["trials"] == 10
        assert set(js) == {
            "trials",
            "seed",
            "order",
            "dim",
            "structure",
            "properties",
            "counterexamples",
            "inclusion_probe",
        }

import pytest

from itensor import (
    GeneratorSpec,
    Status,
    boundary_interval,
    check_b,
    check_double_b,
    check_interval_b,
    check_interval_b_zfast,
    check_interval_circulant,
    check_interval_double_b,
    check_interval_double_b_dominance,
    check_interval_double_b_hat_sufficient,
    check_interval_double_b_zfast,
    circulant_from_first_row,
    classify_interval_double_b_dichotomy,
    critical_row_tensor,
    degenerate_interval,
    diagonal_tensor,
    interval_b_necessary,
    interval_double_b_necessary,
    interval_p_sufficient,
    make_interval,
    make_tensor,
    oracle_interval_b,
    oracle_interval_double_b,
    random_interval_tensor,
    row_sum,
)
from itensor.interval_classify import INTERVAL_B_METHODS, interval_verdict_report
from itensor.tensor import ordered_sum

ALL_METHODS = pytest.mark.parametrize("method", INTERVAL_B_METHODS)


def record(verdict, cond, rows, tail=None):
    for rec in verdict.conditions:
        if rec.condition == cond and rec.rows == rows and rec.tail == tail:
            return rec
    raise AssertionError(f"no record {cond} {rows} {tail}")


def z_interval(diag_lo, od_lo, od_hi, diag_hi=None):
    if diag_hi is None:
        diag_hi = diag_lo + 1
    lo = make_tensor(3, 2, [diag_lo] + [od_lo] * 3 + [od_lo] * 3 + [diag_lo])
    up = make_tensor(3, 2, [diag_hi] + [od_hi] * 3 + [od_hi] * 3 + [diag_hi])
    return make_interval(lo, up)


class TestIntervalB:
    def test_reject_family_witness(self, family_not_b):
        v = check_interval_b(family_not_b, "theorem")
        assert v.status is Status.FAILS
        w = v.witness
        assert (w.row, w.tail, w.lhs, w.rhs, w.condition) == (1, (2, 2), 4.0, 6.0, "b")

    @ALL_METHODS
    def test_reject_family_all_methods(self, method, family_not_b):
        assert check_interval_b(family_not_b, method).status is Status.FAILS

    @ALL_METHODS
    def test_clamped_family_all_methods(self, method, family_not_b_clamped):
        assert check_interval_b(family_not_b_clamped, method).holds()

    def test_clamped_family_row1_condition_value(self, family_not_b_clamped):
        v = check_interval_b(family_not_b_clamped, "theorem")
        rec = record(v, "b", (1,), (2, 2))
        assert (rec.lhs, rec.rhs, rec.passed) == (4.0, 3.0, True)

    def test_clamped_family_matches_oracle(self, family_not_b_clamped):
        assert oracle_interval_b(family_not_b_clamped).holds()

    def test_accept_family(self, family_double_b):
        v = check_interval_b(family_double_b, "theorem")
        assert v.holds()
        assert record(v, "a", (1,)).lhs == 6.0
        for tail in ((1, 2), (2, 1), (2, 2)):
            rec = record(v, "b", (1,), tail)
            assert (rec.lhs, rec.rhs) == (6.0, 3.0)

    def test_single_dim_family(self):
        AI = make_interval(make_tensor(2, 1, [0.5]), make_tensor(2, 1, [1.0]))
        for m in INTERVAL_B_METHODS:
            assert check_interval_b(AI, m).holds()
        AI = make_interval(make_tensor(2, 1, [0.0]), make_tensor(2, 1, [1.0]))
        for m in INTERVAL_B_METHODS:
            assert not check_interval_b(AI, m).holds()

    def test_unknown_method(self, family_double_b):
        with pytest.raises(ValueError):
            check_interval_b(family_double_b, "magic")

    def test_methods_agree_on_randoms(self):
        for seed in range(100):
            AI = random_interval_tensor(GeneratorSpec(3, 2, seed=seed))
            statuses = {
                check_interval_b(AI, m).status for m in INTERVAL_B_METHODS
            }
            assert len(statuses) == 1


class TestIntervalBZfast:
    def test_holding_family(self):
        AI = z_interval(5.0, -1.0, -0.5)
        v = check_interval_b_zfast(AI)
        assert v.holds()
        assert record(v, "a", (1,)).lhs == 2.0
        assert check_interval_b(AI).holds()
        assert oracle_interval_b(AI).holds()

    def test_failing_family(self):
        AI = z_interval(2.0, -1.0, -0.5)
        v = check_interval_b_zfast(AI)
        assert v.status is Status.FAILS
        assert (v.witness.row, v.witness.lhs) == (1, -1.0)
        assert not check_interval_b(AI).holds()

    def test_degenerate_z_b_tensor(self):
        T = make_tensor(3, 2, [5, -1, -1, -1, -1, -1, -1, 5])
        assert check_interval_b_zfast(degenerate_interval(T)).holds()

    def test_rejects_non_z(self, family_double_b):
        with pytest.raises(ValueError):
            check_interval_b_zfast(family_double_b)


class TestIntervalBNecessary:
    def test_accept_family_passes(self, family_double_b):
        rep = interval_b_necessary(family_double_b)
        assert rep.passed
        assert record_like(rep, "r", (1,)).rhs == 1.0

    def test_necessity_is_one_directional(self, family_not_b):
        rep = interval_b_necessary(family_not_b)
        rec = record_like(rep, "r", (1,))
        assert (rec.lhs, rec.rhs, rec.passed) == (4.0, 2.0, True)
        assert not check_interval_b(family_not_b).holds()

    def test_failing_remark_check_certifies_rejection(self):
        lo = make_tensor(2, 2, [1, 0, 0, 1])
        up = make_tensor(2, 2, [1, 3, 3, 1])
        AI = make_interval(lo, up)
        rep = interval_b_necessary(AI)
        assert not rep.passed
        assert not check_interval_b(AI).holds()


def record_like(report, cond, rows, tail=None):
    for rec in report.records:
        if rec.condition == cond and rec.rows == rows and rec.tail == tail:
            return rec
    raise AssertionError(f"no record {cond} {rows} {tail}")


class TestIntervalDoubleB:
    def test_accept_family_condition_values(self, family_double_b):
        v = check_interval_double_b(family_double_b)
        assert v.holds()
        assert record(v, "a", (1,)).lhs == 6.0
        assert record(v, "a", (1,)).rhs == 1.0
        b1 = record(v, "b1", (1,), (1, 2))
        assert (b1.lhs, b1.rhs) == (5.0, 2.0)
        assert record(v, "b2", (1,)).rhs == 0.0
        c1 = next(rec for rec in v.conditions if rec.condition == "c1")
        assert (c1.lhs, c1.rhs) == (25.0, 4.0)
        c2 = next(rec for rec in v.conditions if rec.condition == "c2")
        assert (c2.lhs, c2.rhs) == (30.0, 0.0)
        c3 = next(rec for rec in v.conditions if rec.condition == "c3")
        assert (c3.lhs, c3.rhs) == (36.0, 0.0)

    def test_reject_family_first_violation(self, family_not_b):
        v = check_interval_double_b(family_not_b)
        assert v.status is Status.FAILS
        w = v.witness
        assert (w.condition, w.row, w.tail) == ("b1", 1, (2, 2))
        assert (w.lhs, w.rhs) == (2.0, 4.0)

    def test_degenerate_reduces_to_point_check(self, family_double_b):
        for T in (family_double_b.lower, family_double_b.upper):
            vi = check_interval_double_b(degenerate_interval(T))
            assert vi.status == check_double_b(T).status

    def test_matches_oracle_on_randoms(self):
        for seed in range(60):
            AI = random_interval_tensor(GeneratorSpec(3, 2, seed=seed + 500))
            assert (
                check_interval_double_b(AI).status
                == oracle_interval_double_b(AI).status
            )


class TestIntervalDoubleBZfast:
    def test_z_family_with_double_b_lower(self):
        AI = z_interval(5.0, -1.0, -0.5)
        # Lower has surplus 5 and gap sum 3 per row: a double B-tensor (and
        # in fact a B-tensor), so the family is interval double B.
        assert check_double_b(AI.lower).holds()
        v = check_interval_double_b_zfast(AI)
        assert v.holds()
        assert check_interval_double_b(AI).holds()
        assert oracle_interval_double_b(AI).holds()

    def test_z_family_with_small_offdiag(self):
        AI = z_interval(5.0, -0.5, -0.25)
        assert check_interval_double_b_zfast(AI).holds()
        assert check_interval_double_b(AI).holds()

    def test_z_family_failing(self):
        AI = z_interval(2.0, -1.0, -0.5)
        v = check_interval_double_b_zfast(AI)
        assert v.status is Status.FAILS
        assert not check_interval_double_b(AI).holds()
        assert not oracle_interval_double_b(AI).holds()

    def test_degenerate_z_double_b(self):
        T = make_tensor(3, 2, [5, -1, -1, -1, -1, -1, -1, 5])
        assert check_interval_double_b_zfast(degenerate_interval(T)).holds()

    def test_rejects_non_z(self, family_double_b):
        with pytest.raises(ValueError):
            check_interval_double_b_zfast(family_double_b)


class TestIntervalDoubleBNecessary:
    def test_accept_family_extremes(self, family_double_b):
        rep = interval_double_b_necessary(family_double_b, "extremes")
        assert rep.passed
        assert len(rep.member_verdicts) == 3  # lower plus one per row
        assert all(v.holds() for _, v in rep.member_verdicts)

    def test_accept_family_rowmax(self, family_double_b):
        assert interval_double_b_necessary(family_double_b, "rowmax").passed

    def test_reject_family_rowmax_values(self, family_not_b):
        rep = interval_double_b_necessary(family_not_b, "rowmax")
        assert not rep.passed
        rec = record_like(rep, "b1", (1,), (2, 2))
        assert (rec.lhs, rec.rhs, rec.passed) == (2.0, 4.0, False)

    def test_degenerate_reduces_to_lower_check(self):
        T = critical_row_tensor(3, 2)
        AI = degenerate_interval(T)
        assert interval_double_b_necessary(AI, "extremes").passed
        assert interval_double_b_necessary(AI, "rowmax").passed

    def test_unknown_variant(self, family_double_b):
        with pytest.raises(ValueError):
            interval_double_b_necessary(family_double_b, "other")

    def test_implication_on_randoms(self):
        for seed in range(80):
            AI = random_interval_tensor(GeneratorSpec(3, 2, seed=seed + 900))
            if check_interval_double_b(AI).holds():
                assert interval_double_b_necessary(AI, "extremes").passed
                assert interval_double_b_necessary(AI, "rowmax").passed


def dominance_family():
    lower = circulant_from_first_row([5.0, 2.0, 0.0], 2, 3)
    upper = circulant_from_first_row([6.0, 2.25, 0.5], 2, 3)
    return make_interval(lower, upper)


class TestDominance:
    def test_small_dim_inconclusive(self, family_double_b):
        v = check_interval_double_b_dominance(family_double_b)
        assert v.status is Status.INCONCLUSIVE

    def test_hypothesis_satisfied_and_exact(self):
        AI = dominance_family()
        v = check_interval_double_b_dominance(AI)
        assert v.status is not Status.INCONCLUSIVE
        assert v.status == check_interval_double_b(AI).status
        assert v.holds()

    def test_hypothesis_violated_reports_row(self):
        lower = circulant_from_first_row([5.0, 1.0, 1.0], 2, 3)
        upper = circulant_from_first_row([6.0, 2.0, 2.0], 2, 3)
        v = check_interval_double_b_dominance(make_interval(lower, upper))
        assert v.status is Status.INCONCLUSIVE
        assert v.witness.condition == "hypothesis"
        assert v.witness.row == 1

    def test_agreement_when_applicable(self):
        for seed in range(150):
            AI = random_interval_tensor(GeneratorSpec(2, 3, seed=seed))
            v = check_interval_double_b_dominance(AI)
            if v.status is not Status.INCONCLUSIVE:
                assert v.status == check_interval_double_b(AI).status


class TestHatSufficient:
    def test_accept_family_holds(self, family_double_b):
        v = check_interval_double_b_hat_sufficient(family_double_b)
        assert v.holds()
        assert check_interval_double_b(family_double_b).holds()

    def test_negative_lower_max_inconclusive(self):
        AI = z_interval(5.0, -1.0, -0.5)
        v = check_interval_double_b_hat_sufficient(AI)
        assert v.status is Status.INCONCLUSIVE
        assert v.witness.condition == "hypothesis"

    def test_degenerate_double_b_nonnegative_offdiag(self):
        T = make_tensor(3, 2, [5, 1, 1, 1, 1, 1, 1, 5])
        assert check_double_b(T).holds()
        v = check_interval_double_b_hat_sufficient(degenerate_interval(T))
        assert v.holds()

    def test_never_fails_and_implies_general(self):
        for seed in range(120):
            AI = random_interval_tensor(GeneratorSpec(3, 2, seed=seed + 41))
            v = check_interval_double_b_hat_sufficient(AI)
            assert v.status is not Status.FAILS
            if v.holds():
                assert check_interval_double_b(AI).holds()


class TestIntervalCirculant:
    def test_accept_family_is_circulant_case(self, family_double_b):
        v = check_interval_circulant(family_double_b)
        assert v.holds()
        assert record(v, "c1", (1,)).lhs == 6.0
        for rec in v.conditions:
            if rec.condition == "c2":
                assert (rec.lhs, rec.rhs) == (5.0, 2.0)

    def test_agrees_with_general_checks(self, family_double_b):
        v = check_interval_circulant(family_double_b)
        assert v.status == check_interval_b(family_double_b).status
        assert v.status == check_interval_double_b(family_double_b).status

    def test_rejects_non_circulant_bounds(self, family_not_b):
        with pytest.raises(ValueError):
            check_interval_circulant(family_not_b)

    def test_degenerate_circulant_b(self):
        T = circulant_from_first_row([5, -1, -1, -1], 3, 2)
        assert check_interval_circulant(degenerate_interval(T)).holds()

    def test_agreement_on_random_circulant_families(self):
        for seed in range(100):
            AI = random_interval_tensor(
                GeneratorSpec(3, 2, structure="circulant", seed=seed)
            )
            v = check_interval_circulant(AI)
            assert v.status == check_interval_b(AI).status
            assert v.status == check_interval_double_b(AI).status


class TestIntervalPSufficient:
    def test_odd_order_inconclusive(self, family_double_b):
        v = interval_p_sufficient(family_double_b)
        assert v.status is Status.INCONCLUSIVE
        assert v.method == "even_order_required"

    def test_symmetric_interval_b_branch(self):
        lo = diagonal_tensor(4, 2, 6.0)
        up = make_tensor(4, 2, diagonal_tensor(4, 2, 6.75).entries + 0.25)
        AI = make_interval(lo, up)
        v = interval_p_sufficient(AI)
        assert v.holds()
        assert v.method == "symmetric_and_interval_b"

    def test_z_interval_b_branch(self):
        lo_arr = diagonal_tensor(4, 2, 5.25).entries - 0.25
        up_arr = diagonal_tensor(4, 2, 5.625).entries - 0.125
        AI = make_interval(make_tensor(4, 2, lo_arr), make_tensor(4, 2, up_arr))
        v = interval_p_sufficient(AI)
        assert v.holds()
        assert v.method == "interval_z_and_interval_b"

    def test_symmetric_double_b_only_branch(self):
        # The manufactured boundary family has constant off-diagonal bounds,
        # so at even order it is symmetric, interval double B, and not
        # interval B: only the last sufficient branch can fire.
        AI = boundary_interval(4, 2)
        assert not check_interval_b(AI).holds()
        v = interval_p_sufficient(AI)
        assert v.holds()
        assert v.method == "symmetric_and_interval_double_b"

    def test_non_symmetric_non_z_inconclusive(self):
        arr = diagonal_tensor(4, 2, 6.0).entries.copy()
        arr[1] = 0.5  # one raised entry without its permutation twins
        lo = diagonal_tensor(4, 2, 6.0)
        up = make_tensor(4, 2, arr + 0.25)
        v = interval_p_sufficient(make_interval(lo, up))
        assert v.status is Status.INCONCLUSIVE
        assert v.method == "no_sufficient_branch"


class TestIntervalDichotomy:
    def test_interval_b_branch(self, family_double_b):
        d = classify_interval_double_b_dichotomy(family_double_b)
        assert d.kind == "interval_b"

    def test_not_double_b_branch(self, family_not_b):
        d = classify_interval_double_b_dichotomy(family_not_b)
        assert d.kind == "not_double_b"

    def test_critical_row_slack_equality(self):
        AI = boundary_interval(3, 2)
        assert check_interval_double_b(AI).holds()
        assert not check_interval_b(AI).holds()
        d = classify_interval_double_b_dichotomy(AI)
        assert (d.kind, d.critical_row, d.failing_mode) == (
            "critical_row",
            1,
            "slack_equality",
        )
        assert d.failing_tail == (1, 2)

    def test_critical_row_nonpositive_sum(self):
        AI = degenerate_interval(critical_row_tensor(3, 2))
        assert check_interval_double_b(AI).holds()
        d = classify_interval_double_b_dichotomy(AI)
        assert (d.kind, d.critical_row, d.failing_mode) == (
            "critical_row",
            1,
            "nonpositive_row_sum",
        )

    def test_partition_on_randoms(self):
        for seed in range(100):
            AI = random_interval_tensor(GeneratorSpec(3, 2, seed=seed + 321))
            d = classify_interval_double_b_dichotomy(AI)
            idb = check_interval_double_b(AI).holds()
            ib = check_interval_b(AI).holds()
            assert (d.kind != "not_double_b") == idb
            assert (d.kind == "interval_b") == (idb and ib)


class TestReportShape:
    def test_interval_report_includes_conditions(self, family_double_b):
        v = check_interval_double_b(family_double_b)
        rep = interval_verdict_report(v, "interval-double-b")
        ids = {c["id"] for c in rep["conditions"]}
        assert ids == {"a", "b1", "b2", "c1", "c2", "c3"}
        c1 = next(c for c in rep["conditions"] if c["id"] == "c1")
        assert c1["rows"] == [1, 2]
        assert (c1["lhs"], c1["rhs"]) == (25.0, 4.0)


class TestWitnessSemantics:
    def test_interval_b_witness_yields_refuting_member(self):
        # A failing condition (a) names a row of the lower bound; a failing
        # (b) names a position whose single raise is the classic refuting
        # member.  Either way the named member must fail the point check.
        from itensor import contains, check_b
        from itensor.interval import extreme_single_raise

        failing = 0
        for seed in range(300):
            AI = random_interval_tensor(GeneratorSpec(3, 2, seed=seed))
            v = check_interval_b(AI, "theorem")
            if v.holds():
                continue
            failing += 1
            w = v.witness
            if w.condition == "a":
                member = AI.lower
            else:
                member = extreme_single_raise(
                    AI, w.row - 1, tuple(c - 1 for c in w.tail)
                )
            assert contains(AI, member)
            assert not check_b(member, "definition").holds()
        assert failing > 50

    def test_double_b_records_recompute_bit_exactly(self):
        from itensor.tensor import diag_tail_flat, offdiag_tail_flats, tail_to_flat

        def recompute(AI, rec):
            n = AI.dim
            low = [AI.lower.row_list(i) for i in range(n)]
            up = [AI.upper.row_list(i) for i in range(n)]

            def ld(i):
                return low[i][diag_tail_flat(i, AI.order, n)]

            def od(i):
                return offdiag_tail_flats(AI.lower, i)

            def excl(i, j):
                return sum(up[i][j] - low[i][t] for t in od(i) if t != j)

            def neg(i):
                return max(0.0, -sum(low[i][t] for t in od(i)))

            rows = [x - 1 for x in rec.rows]
            tail = (
                None
                if rec.tail is None
                else tail_to_flat([c - 1 for c in rec.tail], n)
            )
            pt = (
                None
                if rec.pair_tail is None
                else tail_to_flat([c - 1 for c in rec.pair_tail], n)
            )
            i = rows[0]
            if rec.condition == "a":
                return ld(i), max([0.0] + [up[i][t] for t in od(i)])
            if rec.condition == "b1":
                return ld(i) - up[i][tail], max(0.0, excl(i, tail))
            if rec.condition == "b2":
                return ld(i), neg(i)
            j = rows[1]
            if rec.condition == "c1":
                return (
                    (ld(i) - up[i][tail]) * (ld(j) - up[j][pt]),
                    max(0.0, excl(i, tail)) * max(0.0, excl(j, pt)),
                )
            if rec.condition == "c2":
                return (ld(i) - up[i][tail]) * ld(j), max(0.0, excl(i, tail)) * neg(j)
            return ld(i) * ld(j), neg(i) * neg(j)

        for seed in range(40):
            AI = random_interval_tensor(GeneratorSpec(3, 2, seed=seed + 7000))
            for rec in check_interval_double_b(AI).conditions:
                lhs, rhs = recompute(AI, rec)
                assert (lhs, rhs) == (rec.lhs, rec.rhs)


class TestEvenOrderAgreement:
    def test_order_four_oracle_agreement(self):
        from itensor import oracle_interval_double_b

        for seed in (0, 1):
            AI = random_interval_tensor(
                GeneratorSpec(
                    4,
                    2,
                    seed=seed,
                    diag_range=(4.0, 8.0),
                    offdiag_range=(-0.5, 0.5),
                    radius_scale=0.25,
                )
            )
            assert check_interval_b(AI).status == oracle_interval_b(AI).status
            assert (
                check_interval_double_b(AI).status
                == oracle_interval_double_b(AI).status
            )


class TestTolerance:
    def test_boundary_family_flips_under_tolerance(self):
        B = boundary_interval(3, 2)
        assert not check_interval_b(B, "pairwise").holds()
        assert check_interval_b(B, "pairwise", tol=0.25).holds()
        assert check_interval_double_b(B, tol=0.25).holds()


def _neumaier_sum(xs, start=0):
    """A compensated float sum, as the builtin ``sum`` computes from
    Python 3.12 on."""
    s, c = float(start), 0.0
    for x in xs:
        t = s + x
        c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
        s = t
    return s + c


class TestOrderedSums:
    """Row sums add left to right whatever the Python version: the verdicts
    and ledger values must not move when ``sum`` compensates."""

    # Row 0 sums to -0.5 left to right and to 0.5 compensated; row 1's
    # off-diagonal lower entries (all upper bounds nonpositive) sum to
    # -1e16 left to right and to -1e16 - 2 compensated.
    ROWS = [1.0, 1e16, -1e16, -0.5,
            -1.0, 9.0, -1e16, -1.0,
            0.0, 0.0, 9.0, 0.0,
            0.0, 0.0, 0.0, 9.0]

    def _outcomes(self):
        T = make_tensor(2, 4, self.ROWS)
        upper = T.entries + 0.25
        upper[[4, 6, 7]] = [-0.75, -1e16, -0.75]
        AI = make_interval(T, make_tensor(2, 4, upper))
        out = [repr(row_sum(T, i)) for i in range(4)]
        for v in [check_b(T, m) for m in ("definition", "rowsum_gamma")] + [
            check_interval_b(AI, m) for m in INTERVAL_B_METHODS
        ]:
            w = v.witness
            out.append((v.status, None if w is None else (
                w.row, w.condition, repr(w.lhs), repr(w.rhs))))
            out += [(r.condition, r.rows, repr(r.lhs), repr(r.rhs), r.passed)
                    for r in getattr(v, "conditions", ())]
        for variant in ("extremes", "rowmax"):
            rep = interval_double_b_necessary(AI, variant)
            out += [(r.condition, r.rows, repr(r.lhs), repr(r.rhs), r.passed)
                    for r in rep.records]
        return out

    def test_compensated_builtin_sum_changes_nothing(self, monkeypatch):
        import builtins

        row0, row1_od = self.ROWS[:4], [-1.0, -1e16, -1.0]
        assert ordered_sum(row0) == -0.5 and _neumaier_sum(row0) == 0.5
        assert ordered_sum(row1_od) == -1e16
        assert _neumaier_sum(row1_od) == -1e16 - 2
        plain = self._outcomes()
        assert plain[0] == "-0.5"
        assert plain[4] == (Status.FAILS, (1, "a", "-0.5", "0.0"))
        assert ("b2", (2,), "9.0", "1e+16", False) in plain
        with monkeypatch.context() as mp:
            mp.setattr(builtins, "sum", _neumaier_sum)
            assert sum(row0) == 0.5
            assert self._outcomes() == plain

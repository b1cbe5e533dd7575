"""Independent ground truth and cross-validation for the interval criteria.

The oracle decides interval membership by checking every vertex of the box
(members whose entries all sit at a bound).  This is exact:

* For the B class, each defining inequality of a member is affine in every
  entry, so its minimum over the box is attained at a vertex.  If every
  vertex satisfies every inequality, every member does.
* For the double B class, the endpoint criteria that decide the family are
  read off finitely many members that raise one or two entries of the lower
  bound; all of those are vertices.  If every vertex is double B, those
  members are, the endpoint conditions follow, and the endpoint conditions
  bound every member of the box.  A belt of random interior members is
  checked as well, guarding the implementation rather than the argument.
  The belt is one block of uniform draws from a single
  ``default_rng(member_seed * 1_000_003)``: its first row is
  ``random_member(AI, member_seed * 1_000_003)`` bit for bit, the others
  are further uniform members of the same box, so the guard checks as many
  members as a generator per member would, deterministic in
  ``member_seed``, without seeding one generator per member.

The vertices are evaluated in blocks: ``interval.vertex_blocks`` lays
consecutive vertices out as the rows of one array of bounded size, and
array forms of ``check_b(T, "definition")`` and ``check_double_b`` decide
every row at once; the scan stops at the first block holding a failure.
The array forms repeat the scalar checks' arithmetic operation for
operation on the same doubles: sums add the columns in ascending offset
order from +0.0, the row maximum is kept with ``np.where(x > g, x, g)``,
products are elementwise, every comparison is ``classify.beats`` on arrays,
and the first failure is read in the scalar scan order (conditions a, b,
c; by row, then by row pair).  So the verdict, the first failing vertex,
its witness and ``vertices_checked`` are bit for bit those of checking one
vertex ``Tensor`` at a time.

The cross-validation suite draws seeded random families from one table of
generator recipes (general, Z, circulant, symmetric, B-biased, plus exactly
manufactured critical-row families), replays every classifier invariant
against the oracle and against each other, and logs each disagreement with
a serialized instance.  One generator yields every check as a property id,
an outcome and its details, and one loop tallies them into the report.
Each trial asks the vertex oracle first, so a family with more vertices
than ``DEFAULT_VERTEX_LIMIT`` stops the suite before any classifier runs.

Generated entry values are snapped to a 1/16 grid so that every sum and
product appearing in the criteria is computed exactly in double precision;
manufactured boundary instances rely on this to hit slack equalities
bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classify import (
    B_METHODS,
    Status,
    Verdict,
    Witness,
    beats,
    check_b,
    check_double_b,
    classify_double_b_dichotomy,
)
from .interval import (
    DEFAULT_VERTEX_LIMIT,
    IntervalTensor,
    interval_to_json,
    is_interval_z,
    make_interval,
    reduce_via_K,
    vertex_blocks,
)
from .interval_classify import (
    INTERVAL_B_METHODS,
    check_interval_b,
    check_interval_b_zfast,
    check_interval_circulant,
    check_interval_double_b,
    check_interval_double_b_dominance,
    check_interval_double_b_hat_sufficient,
    check_interval_double_b_zfast,
    classify_interval_double_b_dichotomy,
    interval_b_necessary,
    interval_double_b_necessary,
)
from .tensor import (
    Tensor,
    circulant_from_first_row,
    diag_tail_flat,
    is_circulant,
    make_tensor,
    orbit_map,
    row_layout,
    row_mix,
    tail1,
)

__all__ = [
    "GeneratorSpec",
    "SuiteReport",
    "oracle_interval_b",
    "oracle_interval_double_b",
    "random_interval_tensor",
    "random_member",
    "boundary_interval",
    "critical_row_tensor",
    "equivalence_suite",
]

GRID = 16.0  # entry values are multiples of 1/GRID, keeping criteria exact

STRUCTURES = ("general", "z", "circulant", "symmetric")


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one random interval instance; deterministic in ``seed``."""

    order: int
    dim: int
    diag_range: tuple[float, float] = (1.0, 8.0)
    offdiag_range: tuple[float, float] = (-2.0, 2.0)
    radius_scale: float = 0.5
    structure: str = "general"
    seed: int = 0

    def __post_init__(self):
        if self.diag_range[0] > self.diag_range[1]:
            raise ValueError("empty diag_range")
        if self.offdiag_range[0] > self.offdiag_range[1]:
            raise ValueError("empty offdiag_range")
        if self.radius_scale < 0:
            raise ValueError("radius_scale must be >= 0")
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}")


def _failed(
    method: str, AI: IntervalTensor, rows: np.ndarray, hit, checked: int
) -> Verdict:
    v, w = hit
    member = Tensor(AI.order, AI.dim, rows[v].copy())
    return Verdict(Status.FAILS, method, w, failing_tensor=member,
                   vertices_checked=checked)


def _vertex_scan(
    AI: IntervalTensor, limit: int, tol: float, failure, method: str
) -> Verdict:
    """Decide every vertex block with the array check ``failure``: FAILS at
    the first failing vertex, else HOLDS with the number of vertices."""
    checked = 0
    for start, rows in vertex_blocks(AI, limit):
        hit = failure(rows, AI, tol)
        if hit is not None:
            return _failed(method, AI, rows, hit, start + hit[0] + 1)
        checked = start + len(rows)
    return Verdict(Status.HOLDS, method, vertices_checked=checked)


def oracle_interval_b(
    AI: IntervalTensor, limit: int = DEFAULT_VERTEX_LIMIT, tol: float = 0.0
) -> Verdict:
    """Interval B membership by checking the B criterion at every vertex."""
    return _vertex_scan(AI, limit, tol, _b_failure, "vertex_b")


def oracle_interval_double_b(
    AI: IntervalTensor,
    limit: int = DEFAULT_VERTEX_LIMIT,
    tol: float = 0.0,
    interior_members: int = 64,
    member_seed: int = 0,
) -> Verdict:
    """Interval double B membership by vertex exhaustion plus a belt of
    random interior members."""
    verdict = _vertex_scan(AI, limit, tol, _double_b_failure, "vertex_double_b")
    if verdict.holds() and interior_members > 0:
        rng = np.random.default_rng(member_seed * 1_000_003)
        lo = AI.lower.entries
        span = AI.upper.entries - lo
        rows = lo + rng.uniform(0.0, 1.0, size=(interior_members, span.size)) * span
        hit = _double_b_failure(rows, AI, tol)
        if hit is not None:
            return _failed(
                "interior_double_b", AI, rows, hit, verdict.vertices_checked
            )
    return verdict


def _first_failure(fails: np.ndarray) -> tuple[int, int] | None:
    """(row, column) of the first True of a C-ordered (rows, columns)
    boolean array, scanning row by row; None when all are False."""
    k = int(np.argmax(fails))
    if not fails.flat[k]:
        return None
    return divmod(k, fails.shape[1])


def _b_failure(rows: np.ndarray, AI: IntervalTensor, tol: float):
    """``check_b(T, "definition", tol)`` for the member in every row of
    ``rows``: the first failing row's index and witness, or None.

    Row sums add the columns in ascending offset order starting from +0.0,
    as the scalar check's ``ordered_sum`` does on every Python version,
    and each test is ``not beats(lhs, rhs, tol)`` on the same doubles, so the
    witness is bit for bit the scalar one.
    """
    m, n = AI.order, AI.dim
    diag = row_layout(m, n).diag
    r = AI.row_len
    block = rows.reshape(len(rows), n, r)
    total = np.zeros((len(rows), n))
    for f in range(r):
        total += block[:, :, f]
    mean = total / r
    # Per member: row by row, condition a then condition b by offset.
    fails = np.empty((len(rows), n, r + 1), dtype=bool)
    fails[:, :, 0] = ~beats(total, 0.0, tol)
    fails[:, :, 1:] = ~beats(mean[:, :, None], block, tol)
    fails[:, np.arange(n), 1 + diag] = False
    hit = _first_failure(fails.reshape(len(rows), -1))
    if hit is None:
        return None
    v, k = hit
    i1, c = divmod(k, r + 1)
    if c == 0:
        return v, Witness(i1 + 1, "a", float(total[v, i1]), 0.0)
    f = c - 1
    return v, Witness(
        i1 + 1, "b", float(mean[v, i1]), float(block[v, i1, f]), tail1(AI, f)
    )


def _double_b_failure(rows: np.ndarray, AI: IntervalTensor, tol: float):
    """``check_double_b(T, tol)`` for the member in every row of ``rows``:
    the first failing row's index and witness, or None.

    The row maximum is kept as ``np.where(x > g, x, g)`` over the
    off-diagonal columns in ascending order from +0.0, as ``gamma_plus``
    does (``np.maximum`` could turn +0.0 into -0.0); the summed gaps add
    the columns in ascending order from +0.0, the diagonal adding +0.0,
    which leaves a sum that starts at +0.0 unchanged.  With the scalar's
    products and comparisons on the same doubles, the witness is bit for
    bit the scalar one.
    """
    m, n = AI.order, AI.dim
    lay = row_layout(m, n)
    diag, offdiag, pair_i, pair_j = lay.diag, lay.offdiag, lay.iu, lay.ju
    r = AI.row_len
    block = rows.reshape(len(rows), n, r)
    d = block[:, np.arange(n), diag]
    gam = np.zeros((len(rows), n))
    for f in range(r):
        x = block[:, :, f]
        gam = np.where(offdiag[f] & (x > gam), x, gam)
    gaps = np.zeros((len(rows), n))
    for f in range(r):
        gaps += np.where(offdiag[f], gam - block[:, :, f], 0.0)
    surplus = d - gam
    lhs_c = surplus[:, pair_i] * surplus[:, pair_j]
    rhs_c = gaps[:, pair_i] * gaps[:, pair_j]
    # Per member: condition a by row, b by row, then c by row pair.
    fails = ~np.concatenate([
        beats(d, gam, tol), beats(surplus, gaps, tol, strict=False),
        beats(lhs_c, rhs_c, tol)], axis=1)
    hit = _first_failure(fails)
    if hit is None:
        return None
    v, k = hit
    if k < n:
        return v, Witness(k + 1, "a", float(d[v, k]), float(gam[v, k]))
    if k < 2 * n:
        i1 = k - n
        return v, Witness(i1 + 1, "b", float(surplus[v, i1]), float(gaps[v, i1]))
    p = k - 2 * n
    return v, Witness(
        int(pair_i[p]) + 1, "c", float(lhs_c[v, p]), float(rhs_c[v, p]),
        pair_row=int(pair_j[p]) + 1,
    )


def _snap(arr: np.ndarray) -> np.ndarray:
    return np.round(arr * GRID) / GRID


def random_interval_tensor(spec: GeneratorSpec) -> IntervalTensor:
    """Seeded random interval with entries on the exact value grid.

    Structure ``z`` clamps off-diagonal uppers to zero, ``circulant``
    rotates a generated first row into both bounds, and ``symmetric``
    averages midpoint and radius over index-permutation orbits.
    """
    rng = np.random.default_rng(spec.seed)
    m, n = spec.order, spec.dim
    size = n**m
    r = n ** (m - 1)

    if spec.structure == "circulant":
        row_lo = _snap(rng.uniform(*spec.offdiag_range, size=r))
        row_lo[diag_tail_flat(0, m, n)] = _snap(
            np.asarray(rng.uniform(*spec.diag_range))
        )
        spread = _snap(rng.uniform(0.0, 2.0 * spec.radius_scale, size=r))
        lower = circulant_from_first_row(row_lo, m, n)
        upper = circulant_from_first_row(row_lo + spread, m, n)
        return make_interval(lower, upper)

    mid = _snap(rng.uniform(*spec.offdiag_range, size=size))
    diag_vals = _snap(rng.uniform(*spec.diag_range, size=n))
    for i in range(n):
        mid[i * r + diag_tail_flat(i, m, n)] = diag_vals[i]
    rad = _snap(rng.uniform(0.0, spec.radius_scale, size=size))

    if spec.structure == "symmetric":
        # Orbit averages divide by the orbit size (3, 6, ...), which would
        # leave the exact value grid and land rows on razor-edge ties;
        # re-snapping keeps the symmetrized values dyadic.
        mid = _snap(_orbit_average(mid, m, n))
        rad = _snap(_orbit_average(rad, m, n))
    lower = mid - rad
    upper = mid + rad

    if spec.structure == "z":
        for i in range(n):
            base = i * r
            d = diag_tail_flat(i, m, n)
            for f in range(r):
                if f == d:
                    continue
                upper[base + f] = min(upper[base + f], 0.0)
                lower[base + f] = min(lower[base + f], upper[base + f])
    return make_interval(make_tensor(m, n, lower), make_tensor(m, n, upper))


def _orbit_average(arr: np.ndarray, m: int, n: int) -> np.ndarray:
    """Each entry replaced by the mean over its permutation orbit; each
    orbit sums from +0.0 in ascending position order (bincount adds its
    weights in input order)."""
    canon = orbit_map(m, n)
    sums = np.bincount(canon, weights=arr)
    counts = np.bincount(canon)
    return sums[canon] / counts[canon]


def random_member(AI: IntervalTensor, seed: int) -> Tensor:
    """Entrywise uniform member of the box, deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    span = AI.upper.entries - AI.lower.entries
    arr = AI.lower.entries + rng.uniform(0.0, 1.0, size=span.size) * span
    return Tensor(AI.order, AI.dim, arr)


def critical_row_tensor(order: int, dim: int, scale: float = 1.0) -> Tensor:
    """Double B-tensor whose row 0 sits exactly on the slack boundary.

    Row 0 carries diagonal q*scale and off-diagonal entries -scale (q the
    off-diagonal count), every other row a comfortably dominant diagonal.
    """
    q = dim ** (order - 1) - 1
    if q < 1:
        raise ValueError("need at least one off-diagonal position")
    r = dim ** (order - 1)
    arr = np.zeros(dim**order)
    for i in range(dim):
        d = i * r + diag_tail_flat(i, order, dim)
        if i == 0:
            arr[i * r : (i + 1) * r] = -scale
            arr[d] = q * scale
        else:
            arr[d] = (q + 1) * scale
    return make_tensor(order, dim, arr)


def boundary_interval(order: int, dim: int, scale: float = 1.0) -> IntervalTensor:
    """Interval double B family whose row 0 hits slack equality exactly.

    Lower bound: diagonal q*scale in row 0 ((q+1)*scale elsewhere, q the
    off-diagonal count), zero off-diagonal.  Upper bound adds ``scale`` to
    every entry.  Requires at least two off-diagonal positions per row so
    the critical row can coexist with condition (a).
    """
    q = dim ** (order - 1) - 1
    if q < 2:
        raise ValueError("need at least two off-diagonal positions per row")
    r = dim ** (order - 1)
    lower = np.zeros(dim**order)
    for i in range(dim):
        d = i * r + diag_tail_flat(i, order, dim)
        lower[d] = (q if i == 0 else q + 1) * scale
    upper = lower + scale
    return make_interval(
        make_tensor(order, dim, lower), make_tensor(order, dim, upper)
    )


@dataclass
class SuiteReport:
    """Aggregate of one cross-validation run.

    ``properties`` maps a property id to checked/passed counts; every failed
    check lands in ``counterexamples`` with the serialized instance.  The
    inclusion-direction probe counts are reported, not asserted.
    """

    trials: int
    seed: int
    order: int
    dim: int
    structure: str
    properties: dict[str, dict[str, int]] = field(default_factory=dict)
    counterexamples: list[dict] = field(default_factory=list)
    inclusion_probe: dict = field(default_factory=dict)

    def checked(self, prop: str) -> int:
        return self.properties.get(prop, {}).get("checked", 0)

    def failures(self, prop: str) -> int:
        p = self.properties.get(prop)
        return 0 if p is None else p["checked"] - p["passed"]

    def total_failures(self) -> int:
        return sum(self.failures(p) for p in self.properties)

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "order": self.order,
            "dim": self.dim,
            "structure": self.structure,
            "properties": self.properties,
            "counterexamples": self.counterexamples,
            "inclusion_probe": self.inclusion_probe,
        }


def _shrink(AI: IntervalTensor) -> IntervalTensor:
    """A strictly nested sub-box (quarter-way toward the midpoint)."""
    lo = AI.lower.entries
    up = AI.upper.entries
    return make_interval(
        make_tensor(AI.order, AI.dim, (3.0 * lo + up) / 4.0),
        make_tensor(AI.order, AI.dim, (lo + 3.0 * up) / 4.0),
    )


def _bump_upper_diag(AI: IntervalTensor, bump: float = 1.0) -> IntervalTensor:
    arr = AI.upper.entries.copy()
    r = AI.row_len
    for i in range(AI.dim):
        arr[i * r + diag_tail_flat(i, AI.order, AI.dim)] += bump
    return IntervalTensor(AI.lower, Tensor(AI.order, AI.dim, arr))


_MIXED_CYCLE = ("general", "b_biased", "z", "general", "b_biased", "circulant")

# GeneratorSpec keywords of each suite recipe.  A "boundary" trial is the
# manufactured boundary_interval when rows have at least two off-diagonal
# positions, and a "general" draw otherwise.
_RECIPES = {
    "general": {},
    "z": {"structure": "z"},
    "circulant": {"structure": "circulant"},
    "symmetric": {"structure": "symmetric"},
    "b_biased": {
        "diag_range": (4.0, 8.0), "offdiag_range": (-0.5, 0.5), "radius_scale": 0.25
    },
    "boundary": {},
}


def equivalence_suite(
    trials: int,
    seed: int,
    order: int = 3,
    dim: int = 2,
    structure: str = "mixed",
    boundary_every: int = 25,
) -> SuiteReport:
    """Cross-validate every classifier on seeded random instances.

    ``structure`` is one of the generator structures, or ``mixed`` to cycle
    recipes and inject exactly manufactured critical-row families.  The
    report is a pure function of the arguments.
    """
    if structure != "mixed" and structure not in STRUCTURES:
        raise ValueError(f"unknown structure {structure!r}")
    report = SuiteReport(trials, seed, order, dim, structure)
    probe = dict.fromkeys(("double_b_not_b", "b_not_double_b",
                           "manufactured_boundary_count", "critical_row_instances"), 0)
    results = _suite_results(trials, seed, order, dim, structure, boundary_every, probe)
    for t, AI, prop, ok, details in results:
        rec = report.properties.setdefault(prop, {"checked": 0, "passed": 0})
        rec["checked"] += 1
        if ok:
            rec["passed"] += 1
        else:
            report.counterexamples.append({
                "property": prop,
                "trial": t,
                "instance": interval_to_json(AI),
                "details": details,
            })
    probe["double_b_implies_b_refuted"] = probe["double_b_not_b"] > 0
    probe["b_implies_double_b_refuted"] = probe["b_not_double_b"] > 0
    report.inclusion_probe = probe
    return report


def _suite_results(trials, seed, order, dim, structure, boundary_every, probe):
    """Every check of ``equivalence_suite`` as ``(trial, family, property
    id, ok, details)``, in the order the report lists them; the inclusion
    probe is counted into ``probe``."""
    prev_b = None  # the last interval B family, for row mixing
    for t in range(trials):
        trial_seed = (seed * 1_000_003 + t) & ((1 << 63) - 1)
        recipe = structure
        if structure == "mixed":
            recipe = _MIXED_CYCLE[t % len(_MIXED_CYCLE)]
            if boundary_every and t % boundary_every == boundary_every - 1:
                recipe = "boundary"
        manufactured = recipe == "boundary" and dim ** (order - 1) >= 3
        if manufactured:
            AI = boundary_interval(order, dim, (1.0, 0.5, 2.0)[t % 3])
        else:
            spec = GeneratorSpec(order, dim, seed=trial_seed, **_RECIPES[recipe])
            AI = random_interval_tensor(spec)

        # The vertex oracle first, so that a family over the vertex budget
        # stops the suite before any classifier runs.
        orc_b = oracle_interval_b(AI)
        orc_db = oracle_interval_double_b(AI, member_seed=trial_seed)
        ib_all = {meth: check_interval_b(AI, meth) for meth in INTERVAL_B_METHODS}
        ib, idb = ib_all["theorem"], check_interval_double_b(AI)
        statuses = sorted({v.status.value for v in ib_all.values()})
        yield t, AI, "interval_b_method_agreement", len(statuses) == 1, (
            f"statuses {statuses}")
        for prop, v, orc in (("interval_b_vs_oracle", ib, orc_b),
                             ("interval_double_b_vs_oracle", idb, orc_db)):
            yield t, AI, prop, v.status == orc.status, (
                f"classifier {v.status.value}, oracle {orc.status.value}")

        # Point-level method agreement and B => double B on sampled members.
        samples = [AI.lower, AI.upper] + [
            random_member(AI, seed=trial_seed + 7_919 * k) for k in range(1, 5)
        ]
        for T in samples:
            point = {meth: check_b(T, meth).status for meth in B_METHODS}
            member_b = point["definition"] is Status.HOLDS
            yield t, AI, "point_b_method_agreement", len(set(point.values())) == 1, (
                f"statuses {sorted(s.value for s in point.values())}")
            if member_b:
                yield t, AI, "point_b_implies_double_b", check_double_b(T).holds(), (
                    "B member failing the double B check")
            if ib.holds():
                yield t, AI, "interval_b_implies_member_b", member_b, (
                    "member of an interval B family failing the B check")

        # Interval B implies every vertex is (double) B, and the necessary
        # reports pass whenever the exact classifier holds.
        if ib.holds():
            yield t, AI, "interval_b_implies_vertex_b", orc_b.holds(), (
                "interval B family with a failing vertex")
            yield t, AI, "interval_b_implies_vertex_double_b", orc_db.holds(), (
                "interval B family with a vertex failing double B")
            yield t, AI, "interval_b_necessary_pass", interval_b_necessary(AI).passed, (
                "necessary interval-B report failed on a holding family")
        if idb.holds():
            ok = (
                interval_double_b_necessary(AI, "extremes").passed
                and interval_double_b_necessary(AI, "rowmax").passed
            )
            yield t, AI, "interval_double_b_necessary_pass", ok, (
                "necessary double-B report failed on a holding family")

        # Sufficient hat criterion never overclaims.
        if check_interval_double_b_hat_sufficient(AI).holds():
            yield t, AI, "hat_sufficient_implies_double_b", idb.holds(), (
                "hat criterion held on a non double B family")

        # Reduction by dominated positions preserves both verdicts.
        reduced, _ = reduce_via_K(AI)
        ok = check_interval_b(reduced, "theorem").status == ib.status
        yield t, AI, "k_reduction_preserves_interval_b", ok, (
            "interval-B verdict changed under reduction")
        ok = check_interval_double_b(reduced).status == idb.status
        yield t, AI, "k_reduction_preserves_interval_double_b", ok, (
            "double-B verdict changed under reduction")
        yield t, AI, "k_reduction_idempotent", reduce_via_K(reduced)[0] == reduced, (
            "reduction is not idempotent")

        # Upper diagonal entries are irrelevant to both families.
        bumped = _bump_upper_diag(AI)
        ok = (
            check_interval_b(bumped, "theorem").status == ib.status
            and check_interval_double_b(bumped).status == idb.status
        )
        yield t, AI, "diagonal_irrelevance", ok, (
            "verdict moved when only upper diagonals changed")

        # Membership is inherited by sub-boxes.
        nested = _shrink(AI)
        if ib.holds():
            ok = check_interval_b(nested, "theorem").holds()
            yield t, AI, "containment_monotonic_interval_b", ok, (
                "nested sub-box lost the interval B property")
        if idb.holds():
            ok = check_interval_double_b(nested).holds()
            yield t, AI, "containment_monotonic_interval_double_b", ok, (
                "nested sub-box lost the interval double B property")

        # Structured fast paths agree with the general classifiers.
        if is_interval_z(AI):
            ok = check_interval_b_zfast(AI).status == ib.status
            yield t, AI, "zfast_interval_b_agreement", ok, (
                "Z fast path disagrees on interval B")
            ok = check_interval_double_b_zfast(AI).status == idb.status
            yield t, AI, "zfast_interval_double_b_agreement", ok, (
                "Z fast path disagrees on interval double B")
        if is_circulant(AI.lower) and is_circulant(AI.upper):
            circ = check_interval_circulant(AI)
            ok = circ.status == ib.status and circ.status == idb.status
            yield t, AI, "circulant_agreement", ok, (
                f"circulant {circ.status.value}, B {ib.status.value}, "
                f"double B {idb.status.value}")
        dom = check_interval_double_b_dominance(AI)
        if dom.status is not Status.INCONCLUSIVE:
            yield t, AI, "dominance_agreement", dom.status == idb.status, (
                "dominance criterion disagrees with the general classifier")

        # Dichotomies partition exactly.
        dich = classify_interval_double_b_dichotomy(AI)
        ok = (
            (dich.kind != "not_double_b") == idb.holds()
            and (dich.kind == "interval_b") == (idb.holds() and ib.holds())
            and (dich.kind != "critical_row" or not ib.holds())
        )
        yield t, AI, "interval_dichotomy_partition", ok, f"kind {dich.kind}"
        pd = classify_double_b_dichotomy(AI.lower)
        lb = check_b(AI.lower, "definition").holds()
        ldb = check_double_b(AI.lower).holds()
        ok = (
            (pd.kind != "not_double_b") == ldb
            and (pd.kind == "is_b") == (ldb and lb)
            and (pd.kind != "critical_row" or not lb)
        )
        yield t, AI, "point_dichotomy_partition", ok, f"kind {pd.kind}"

        # Inclusion-direction probe: counted, never asserted.
        if idb.holds() and not ib.holds():
            probe["double_b_not_b"] += 1
            probe["manufactured_boundary_count"] += manufactured
        if ib.holds() and not idb.holds():
            probe["b_not_double_b"] += 1
        probe["critical_row_instances"] += dich.kind == "critical_row"

        # Row mixing of two interval B families stays interval B.
        if ib.holds():
            if prev_b is not None:
                mixed = _mix_intervals(prev_b, AI, trial_seed)
                ok = check_interval_b(mixed, "theorem").holds()
                yield t, AI, "row_mixing_closure", ok, (
                    "row mix of two interval B families is not interval B")
            prev_b = AI


def _mix_intervals(A: IntervalTensor, B: IntervalTensor, seed: int) -> IntervalTensor:
    """Row mix of two interval families: per row pick a parent and a random
    off-diagonal rearrangement, applied identically to both bounds."""
    rng = np.random.default_rng(seed ^ 0x5EED)
    q = A.row_len - 1
    assignment = {}
    for i in range(A.dim):
        pid = int(rng.integers(0, 2))
        perm = rng.permutation(q).tolist()
        assignment[i] = (pid, perm)
    lower = row_mix([A.lower, B.lower], assignment)
    upper = row_mix([A.upper, B.upper], assignment)
    return make_interval(lower, upper)

"""The benchmark's two seeded workloads.

Each workload builds its inputs from the seed alone in ``setup``, runs one
item per ``run_item`` call through the library's public entry points, and
checks every verdict in ``verify``, which runs outside the timed phase.
Library functions are always looked up on their module at call time
(``cli.main``, ``oracle.equivalence_suite`` ...), so that the traced run's
wrappers see the calls.

* ``ladder_check``: generated interval files on the size ladder, each sent
  through ``check --class interval-b``, ``check --class interval-double-b``
  and ``classify`` via ``cli.main``.  m=3, n=10 is left out: one check there
  costs ~4 s of classification plus ~4x the n=8 serialization, so that rung
  waits for the summary ledger.
* ``crossval``: the library checked against itself, in two interleaved
  parts.  Seeded mixed ``equivalence_suite`` chunks at (m=3, n=2) and
  (m=2, n=3) in the 2:1 trial proportion of the acceptance suites, each
  chunk holding one manufactured boundary family; and the interval-P
  falsification pipeline: symmetric interval B families, their
  sign-transform and random members, ``falsify_p`` on each.  The two parts
  share a workload because the time allowed for all benchmark runs leaves
  room for runs long enough to be steady on a shared 2-core machine only
  with two workloads.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from itensor import classify, cli, interval, interval_classify, oracle, tensor

EXIT_OF_STATUS = {"holds": 0, "fails": 1, "inconclusive": 2}


class _Sink:
    """Discards the CLI's human summary on stderr."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


SINK = _Sink()


def _seed_of(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1, np.uint64)[0] >> 1)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _write(path: str, text: str) -> int:
    with open(path, "w") as fh:
        fh.write(text)
    return len(text)


@dataclass
class Item:
    label: str
    run: tuple  # workload-specific arguments


@dataclass
class State:
    items: list[Item]
    inputs_sha256: str
    data: dict = field(default_factory=dict)


@dataclass
class Check:
    """Outcome of the correctness gate for one pass over the items."""

    failed: set[int]
    reasons: list[str]
    digests: list[str]
    verdict_mix: dict


# ---------------------------------------------------------------- ladder_check

LADDER_VERBS = (
    ("interval-b", ["check", "--class", "interval-b", "--method", "theorem"]),
    ("interval-double-b", ["check", "--class", "interval-double-b"]),
    ("classify", ["classify"]),
)

LADDER_RECIPES = ("default", "scaled", "boundary")

# (shape, families, first recipe): family k uses recipe (first + k) mod 3.
# A pass holds 141 items, 14 of them beyond the 90th percentile; the one n=8
# family is ~50% of the pass time.  Both percentiles sit inside a block of
# items of one kind, never on the edge between two, so that they do not jump
# between blocks from run to run.  The 80 items of ~2 ms (all three verbs on
# (3,2), interval-b and classify on (4,2)) hold the median with ten items to
# spare.  Eight items (double B and classify on the n=6, (4,4) and n=8
# families) take over 100 ms; the twelve (4,3) double-B checks, at ~70 ms,
# come next and are centred on the 90th percentile.
LADDER_RUNGS = (
    ((3, 2), 24, 0),
    ((4, 2), 4, 0),
    ((3, 4), 3, 0),
    ((4, 3), 12, 0),
    ((3, 6), 2, 1),
    ((4, 4), 1, 2),
    ((3, 8), 1, 1),
)

ORACLE_VERTEX_LIMIT = 1 << 16
BOUNDARY_SCALES = (1.0, 0.5, 2.0)


def ladder_family(recipe: str, m: int, n: int, seed: int):
    """One generated family; every recipe stays on the generator's 1/16 grid.

    ``scaled`` sets the diagonal to ~1.5 q (q = n^(m-1) - 1 off-diagonal
    positions) with off-diagonals in +-1, so interval B holds for a good
    share of seeds on every rung; ``default`` almost always fails;
    ``boundary`` is double B but not B, with a critical row.
    """
    q = n ** (m - 1) - 1
    if recipe == "default":
        return oracle.random_interval_tensor(oracle.GeneratorSpec(m, n, seed=seed))
    if recipe == "scaled":
        return oracle.random_interval_tensor(
            oracle.GeneratorSpec(
                m, n, diag_range=(1.2 * q, 1.8 * q), offdiag_range=(-1.0, 1.0),
                radius_scale=0.25, seed=seed,
            )
        )
    return oracle.boundary_interval(m, n, BOUNDARY_SCALES[seed % 3])


class LadderCheck:
    name = "ladder_check"

    def setup(self, seed: int, workdir: str) -> State:
        items, families, texts = [], [], []
        for (m, n), count, first in LADDER_RUNGS:
            for k in range(count):
                recipe = LADDER_RECIPES[(first + k) % 3]
                fam_seed = _seed_of(seed, 1, m, n, k)
                AI = ladder_family(recipe, m, n, fam_seed)
                stem = f"m{m}n{n}-{k}-{recipe}"
                src = os.path.join(workdir, stem + ".json")
                text = json.dumps(interval.interval_to_json(AI))
                _write(src, text)
                texts.append(text)
                families.append((stem, recipe, AI))
                for verb, argv in LADDER_VERBS:
                    out = os.path.join(workdir, f"{stem}.{verb}.out.json")
                    items.append(
                        Item(f"{stem}:{verb}", (argv + [src, "--output", out], out))
                    )
        state = State(items, _digest(texts), {"families": families})
        for item in items[: 2 * len(LADDER_VERBS)]:  # warm-up: two (3,2) families
            self.run_item(state, item)
        return state

    def run_item(self, state: State, item: Item):
        argv, out = item.run
        with contextlib.redirect_stderr(SINK):
            rc = cli.main(argv)
        return rc, os.path.getsize(out)

    def report_bytes(self, obs) -> int:
        return obs[1]

    def verify(self, state: State, observations: list) -> Check:
        failed, reasons, digests = set(), [], []
        mix = Counter()
        nverbs = len(LADDER_VERBS)
        for f, (stem, recipe, AI) in enumerate(state.data["families"]):
            idx = {verb: f * nverbs + v for v, (verb, _) in enumerate(LADDER_VERBS)}
            reports = {}
            for verb, i in idx.items():
                with open(state.items[i].run[1]) as fh:
                    reports[verb] = json.load(fh)["report"]
            ib = reports["interval-b"]["status"]
            db = reports["interval-double-b"]["status"]
            kind = reports["classify"]["kind"]
            expect_rc = {
                "interval-b": EXIT_OF_STATUS[ib],
                "interval-double-b": EXIT_OF_STATUS[db],
                "classify": 1 if kind == "not_double_b" else 0,
            }

            def fail(verb, why):
                failed.add(idx[verb])
                reasons.append(f"{stem}:{verb}: {why}")

            for verb, i in idx.items():
                if observations[i][0] != expect_rc[verb]:
                    fail(verb, f"exit {observations[i][0]} for report {expect_rc[verb]}")
            for meth in interval_classify.INTERVAL_B_METHODS:
                got = interval_classify.check_interval_b(AI, meth).status.value
                if got != ib:
                    fail("interval-b", f"method {meth} gives {got}, theorem {ib}")
            if (kind != "not_double_b") != (db == "holds") or (
                (kind == "interval_b") != (db == "holds" and ib == "holds")
            ):
                fail("classify", f"kind {kind} with double B {db}, B {ib}")
            if interval.vertex_count(AI) <= ORACLE_VERTEX_LIMIT:
                orc_b = oracle.oracle_interval_b(AI, ORACLE_VERTEX_LIMIT).status.value
                orc_db = oracle.oracle_interval_double_b(
                    AI, ORACLE_VERTEX_LIMIT
                ).status.value
                if orc_b != ib:
                    fail("interval-b", f"oracle {orc_b}, classifier {ib}")
                if orc_db != db:
                    fail("interval-double-b", f"oracle {orc_db}, classifier {db}")
            if recipe == "boundary" and (ib, db, kind) != (
                "fails", "holds", "critical_row"
            ):
                fail("classify", f"boundary family gave B {ib}, double B {db}, {kind}")
            for verb in idx:
                rep = reports[verb]
                keep = ("status", "witness", "kind", "critical_row",
                        "failing_mode", "failing_tail")
                digests.append(_digest({k: rep[k] for k in keep if k in rep}))
            mix[f"{recipe}.b_{ib}"] += 1
            mix[f"{recipe}.double_b_{db}"] += 1
            mix[f"{recipe}.{kind}"] += 1
        return Check(failed, reasons, digests, dict(sorted(mix.items())))


# ------------------------------------------------------- crossval: suite chunks

# Two (3,2) chunks per (2,3) chunk, as in the acceptance suites' 1000:500.
CROSSVAL_SHAPES = ((3, 2), (3, 2), (2, 3))
# 102 chunks of 45-170 ms and the 480 falsifier members of 5-11 ms below
# make 582 items: the 90th percentile falls among the (3,2) chunks, the
# median in the middle third of the members, the 160 (3,6) ones.
CROSSVAL_CYCLES = 34
# Two rounds of the six-recipe mixed cycle; the boundary family replaces the
# last trial, so every recipe still runs.
CHUNK_TRIALS = 12


class SuiteChunks:
    """Mixed equivalence-suite chunks against the vertex oracle; one chunk is
    one item."""

    def setup(self, seed: int, workdir: str) -> State:
        items = []
        for c in range(CROSSVAL_CYCLES):
            for s, (m, n) in enumerate(CROSSVAL_SHAPES):
                chunk_seed = _seed_of(seed, 2, c, s)
                out = os.path.join(workdir, f"chunk-{c}-{s}.json")
                items.append(Item(f"chunk-{c}-{s}:m{m}n{n}", (m, n, chunk_seed, out)))
        state = State(items, _digest([it.run[:3] for it in items]))
        for m, n in sorted(set(CROSSVAL_SHAPES)):  # warm-up: one small chunk each
            oracle.equivalence_suite(6, seed=seed, order=m, dim=n, boundary_every=6)
        return state

    def run_item(self, state: State, item: Item):
        m, n, chunk_seed, out = item.run
        rep = oracle.equivalence_suite(
            CHUNK_TRIALS, seed=chunk_seed, order=m, dim=n, structure="mixed",
            boundary_every=CHUNK_TRIALS,
        )
        text = cli.dumps_report({"tool": "itensor", "verb": "cross-validate",
                                 "seed": chunk_seed, "report": rep.to_json()})
        size = _write(out, text)
        return rep.total_failures(), size, rep.inclusion_probe, _digest(text)

    def report_bytes(self, obs) -> int:
        return obs[1]

    def verify(self, state: State, observations: list) -> Check:
        failed, reasons, digests = set(), [], []
        mix = Counter()
        for i, (item, (failures, _, probe, digest)) in enumerate(
            zip(state.items, observations)
        ):
            if failures:
                failed.add(i)
                reasons.append(f"{item.label}: {failures} suite failures")
            if probe["manufactured_boundary_count"] != 1:
                failed.add(i)
                reasons.append(f"{item.label}: no manufactured boundary family")
            digests.append(digest)
            for key in ("double_b_not_b", "b_not_double_b", "critical_row_instances",
                        "manufactured_boundary_count"):
                mix[key] += probe[key]
        return Check(failed, reasons, digests, dict(sorted(mix.items())))


# --------------------------------------------------- crossval: P falsification

# (m, n, families, random members per family, generator settings).  Sign
# members are 2^n per family; the counts give each shape ~equal time.
P_SHAPES = (
    (4, 2, 4, 36, dict(diag_range=(6.0, 9.0), offdiag_range=(-0.25, 0.25),
                       radius_scale=0.125)),
    (4, 3, 4, 32, None),
    (3, 6, 2, 16, None),
)
P_BUDGET = 10_000
P_MAX_ATTEMPTS = 50  # generator draws per accepted family before giving up


def _p_spec(m: int, n: int, settings):
    if settings is not None:
        return settings
    q = n ** (m - 1) - 1
    return dict(diag_range=(1.2 * q, 1.8 * q), offdiag_range=(-1.0, 1.0),
                radius_scale=0.25)


class PFalsify:
    """Even order: no member of an interval B symmetric family may be
    falsified.  Odd order admits no P tensor (x and -x give opposite signs),
    so there every member must be falsified by a checkable counterexample."""

    def setup(self, seed: int, workdir: str) -> State:
        items, texts, attempts = [], [], Counter()
        for m, n, nfam, nrand, settings in P_SHAPES:
            accepted = []
            draws = 0
            while len(accepted) < nfam:
                if draws >= P_MAX_ATTEMPTS * nfam:
                    raise RuntimeError(f"too few interval B families at m={m}, n={n}")
                spec = oracle.GeneratorSpec(
                    m, n, structure="symmetric", seed=_seed_of(seed, 3, m, n, draws),
                    **_p_spec(m, n, settings),
                )
                draws += 1
                AI = oracle.random_interval_tensor(spec)
                if interval_classify.check_interval_b(AI, "theorem").holds():
                    accepted.append(AI)
            attempts[f"m{m}n{n}.draws"] = draws
            for f, AI in enumerate(accepted):
                texts.append(interval.interval_to_json(AI))
                mid, rad = interval.midpoint_radius(AI)
                members = [tensor.sign_transform(mid, rad, z)
                           for z in itertools.product((1, -1), repeat=n)]
                members += [oracle.random_member(AI, seed=_seed_of(seed, 4, m, n, f, k))
                            for k in range(nrand)]
                for k, T in enumerate(members):
                    out = os.path.join(workdir, f"m{m}n{n}-{f}-{k}.json")
                    items.append(Item(f"m{m}n{n}-{f}-{k}", (AI, T, f, out)))
        state = State(items, _digest(texts), {"attempts": dict(attempts)})
        seen = set()
        for item in items:  # warm-up: one member per shape
            shape = (item.run[1].order, item.run[1].dim)
            if shape not in seen:
                seen.add(shape)
                classify.falsify_p(item.run[1], budget=P_BUDGET, seed=0)
        return state

    def run_item(self, state: State, item: Item):
        _, T, fseed, out = item.run
        res = classify.falsify_p(T, budget=P_BUDGET, seed=fseed)
        text = cli.dumps_report({
            "class": "p-falsify",
            "method": "sampling_falsifier",
            "status": "fails" if res.falsified else "inconclusive",
            "falsified": res.falsified,
            "counterexample_x": (list(res.counterexample_x)
                                 if res.counterexample_x else None),
            "samples_used": res.samples_used,
            "seed": res.seed,
            "budget": P_BUDGET,
        })
        size = _write(out, text)
        return res.falsified, res.counterexample_x, size, _digest(text)

    def report_bytes(self, obs) -> int:
        return obs[2]

    def verify(self, state: State, observations: list) -> Check:
        failed, reasons, digests = set(), [], []
        mix = Counter(state.data["attempts"])
        for i, (item, (falsified, x, _, digest)) in enumerate(
            zip(state.items, observations)
        ):
            AI, T, _, _ = item.run
            shape = f"m{T.order}n{T.dim}"
            digests.append(digest)
            mix[f"{shape}.members"] += 1
            mix[f"{shape}.falsified"] += int(falsified)
            if not interval.contains(AI, T):
                failed.add(i)
                reasons.append(f"{item.label}: member outside its box")
            if T.order % 2 == 0 and falsified:
                failed.add(i)
                reasons.append(f"{item.label}: even-order member falsified")
            if T.order % 2 == 1:
                ok = falsified and max(
                    xi * v for xi, v in zip(x, tensor.tensor_apply(T, x))
                ) <= 0.0
                if not ok:
                    failed.add(i)
                    reasons.append(f"{item.label}: odd-order member not refuted")
        return Check(failed, reasons, digests, dict(sorted(mix.items())))


# ---------------------------------------------------------------------- crossval


class Combined:
    """One workload made of parts: its items are the parts' items, and an
    observation is ``(part index, the part's observation)``."""

    def __init__(self, name: str, parts):
        self.name = name
        self.parts = parts

    def setup(self, seed: int, workdir: str) -> State:
        states = [part.setup(seed, workdir) for part in self.parts]
        items = [Item(item.label, (k, i)) for k, st in enumerate(states)
                 for i, item in enumerate(st.items)]
        return State(items, _digest([st.inputs_sha256 for st in states]),
                     {"states": states})

    def run_item(self, state: State, item: Item):
        k, i = item.run
        st = state.data["states"][k]
        return k, self.parts[k].run_item(st, st.items[i])

    def report_bytes(self, obs) -> int:
        return self.parts[obs[0]].report_bytes(obs[1])

    def verify(self, state: State, observations: list) -> Check:
        """Each part checks its own items; digests follow the parts' order."""
        failed, reasons, digests, mix = set(), [], [], {}
        start = 0
        for part, st in zip(self.parts, state.data["states"]):
            n = len(st.items)
            check = part.verify(st, [obs for _, obs in observations[start:start + n]])
            failed |= {start + i for i in check.failed}
            reasons += check.reasons
            digests += check.digests
            mix.update(check.verdict_mix)
            start += n
        return Check(failed, reasons, digests, dict(sorted(mix.items())))


WORKLOADS = {w.name: w for w in (
    LadderCheck(),
    Combined("crossval", (SuiteChunks(), PFalsify())),
)}

"""itensor benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload ladder_check --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ``src/`` next
to this directory, never from an installed copy.  With ``--trace 0`` the
run measures the end-to-end metrics; with ``--trace 1`` it alternates
untraced passes with passes that run under span wrappers on every traced
library function, and reports the per-layer metrics.  Both modes run the
correctness gate; the traced run also writes the spans of its set-up and
first traced pass as JSON lines to ``perfbench/.work-spans-<workload>.jsonl``.
Metric names and units come from ``BENCHMARK.json`` at the repository root.
Lines starting with ``#`` are for people; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The measured phase repeats passes over the workload's items (a closed
loop, one caller, one thread) and stops at the first item boundary after
``--seconds``, once at least one whole pass is done.  Every pass runs the
items in one fixed order that spreads the items of each kind over the
pass.  Each item's time is its mean over all its runs, so
every item weighs the same and drift in the machine's speed is averaged
over the whole phase: ``wall_s`` is the sum of the item means (one pass),
``items_per_s`` its inverse per item, and the item percentiles are taken
over the item means.
"""

from __future__ import annotations

import os

# One process, one thread: pin native thread pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCH = ROOT / "BENCHMARK.json"
LAYERS = HERE / "layers.json"
EXPECTED = HERE / "expected_seed1.json"
DEFAULT_SEED = 1
GOLDEN = (5 ** 0.5 - 1) / 2
SETUP_REPEATS = 9

# Cold import of the library, timed inside a fresh interpreter.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy; from itensor import classify, cli, interval, interval_classify, "
    "oracle, tensor; print(time.perf_counter() - t)"
)


def _commit() -> str | None:
    """HEAD of the enclosing git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _import_s() -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "itensor").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_order(n_items: int) -> list[int]:
    """Item indices in the order every pass runs them.  Workloads list items
    of one kind together; stepping through the list by the golden ratio
    spreads every such block evenly over the pass, in the same order for
    every seed."""
    return sorted(range(n_items), key=lambda i: (i * GOLDEN) % 1.0)


class Phase:
    """Item times and per-item outputs of each pass of one phase, indexed by
    item; the last pass may stop part-way at the deadline, and its items
    not reached have time None."""

    def __init__(self):
        self.item_ms: list[list[float | None]] = []  # per pass, per item
        self.errors: dict[int, str] = {}
        self.observations: list[list] = []  # per pass, per item

    @property
    def passes(self) -> int:
        return len(self.item_ms)

    @property
    def attempted(self) -> int:
        return self.runs_of(range(len(self.item_ms[0])))

    def runs_of(self, items) -> int:
        """Item runs of the given item indices, over every pass."""
        return sum(p[i] is not None for p in self.item_ms for i in items)

    def item_means(self) -> list[float]:
        """Each item's mean time in ms over all its runs."""
        return [statistics.fmean(p[i] for p in self.item_ms if p[i] is not None)
                for i in range(len(self.item_ms[0]))]


def run_pass(wl, state, order, phase: Phase, tracer=None, deadline=None) -> bool:
    """One pass over the items in ``order``, appended to ``phase``.  Stops
    before an item that would start after ``deadline``; returns whether the
    pass is whole."""
    obs, times = [None] * len(state.items), [None] * len(state.items)
    ran = 0
    for i in order:
        if deadline is not None and perf_counter() >= deadline:
            break
        item = state.items[i]
        ti = perf_counter()
        try:
            if tracer is None:
                obs[i] = wl.run_item(state, item)
            else:
                with tracer.item("bench.item"):
                    obs[i] = wl.run_item(state, item)
        except Exception as exc:  # an item that raises counts as failed
            phase.errors.setdefault(i, f"{item.label}: {exc!r}")
        times[i] = (perf_counter() - ti) * 1e3
        ran += 1
    if ran:
        phase.item_ms.append(times)
        phase.observations.append(obs)
    return ran == len(order)


def gate(wl, state, phases, seed, record):
    """Correctness of every item: no exception, outputs identical in every
    pass, the workload's own checks, and the expected digests for the
    default seed.  Returns (failed item indices, reasons, check)."""
    first = phases[0].observations[0]
    failed, reasons = set(), []
    for phase in phases:
        for i, why in phase.errors.items():
            failed.add(i)
            reasons.append(why)
        for obs, times in zip(phase.observations, phase.item_ms):
            for i, o in enumerate(obs):
                if times[i] is not None and o is not None and o != first[i]:
                    failed.add(i)
                    reasons.append(f"{state.items[i].label}: output changed between passes")
    if failed & {i for i, o in enumerate(first) if o is None}:
        return failed, reasons, None
    check = wl.verify(state, first)
    failed |= check.failed
    reasons += check.reasons
    if seed == DEFAULT_SEED:
        expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
        if record:
            expected[wl.name] = check.digests
            EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        elif expected.get(wl.name) != check.digests:
            want = expected.get(wl.name) or []
            bad = [i for i, d in enumerate(check.digests)
                   if i >= len(want) or want[i] != d] or [0]
            failed.update(bad)
            reasons.append(f"{len(bad)} verdict digests differ from {EXPECTED.name}")
    return failed, reasons, check


def end_to_end(wl, phase, setup_s, n_setups):
    means = phase.item_means()
    deciles = statistics.quantiles(means, n=10, method="inclusive")
    pass_s = sum(means) / 1e3
    samples = (f"{len(means)} item means over {phase.attempted} item runs "
               f"({phase.passes} passes, the last may be partial)")
    return {
        "setup_s": (setup_s, "s", f"median of {n_setups} (cold import + set-up)"),
        "wall_s": (pass_s, "s", f"one pass: sum of {len(means)} item means"),
        "items_per_s": (len(means) / pass_s, "1/s", samples),
        "item_ms_p50": (deciles[4], "ms", samples),
        "item_ms_p90": (deciles[8], "ms", samples),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", "process peak"),
        "report_bytes": (sum(wl.report_bytes(o) for o in phase.observations[0] if o),
                         "B", "per pass"),
    }


def overhead_s(plain: Phase, traced: Phase) -> float:
    """Tracing cost of one pass: per item, the median over paired passes of
    traced minus untraced time, summed over the items."""
    diffs = zip(*([t - u for t, u in zip(tp, up)]
                  for tp, up in zip(traced.item_ms, plain.item_ms)))
    return sum(statistics.median(d) for d in diffs) / 1e3


def per_layer(tracer, setup_mark, end_mark, passes, overhead_s, names):
    """Self time and counts of one traced set-up plus one traced pass."""
    setup_self = tracer.self_times(0, setup_mark[0])
    pass_self = tracer.self_times(setup_mark[0], end_mark[0])
    out = {}
    for name, unit in names:
        if name == "trace.overhead_s":
            value = overhead_s
        elif unit == "s":
            base = name[: -len(".s")]
            value = setup_self.get(base, 0.0) + pass_self.get(base, 0.0) / passes
        else:
            value = setup_mark[1][name] + (end_mark[1][name] - setup_mark[1][name]) / passes
        out[name] = (value, unit, "")
    return out


def silent_layers(workload, metrics) -> list[str]:
    """Layer metrics that ``layers.json`` says this workload drives but that
    read 0: the function was renamed or its calls escaped the wrappers."""
    layers = json.loads(LAYERS.read_text())["per_layer"]
    return [f"layer metric {name} reads 0 on {workload}"
            for name, (value, _, _) in metrics.items()
            if not name.startswith("trace.") and value == 0
            and workload in layers.get(name, {}).get("on", ())]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-expected", action="store_true",
                   help=f"store the default seed's verdict digests in {EXPECTED.name}")
    args = p.parse_args(argv)

    if not (SRC / "itensor" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}", file=sys.stderr)
        return 2
    metric_key = "per_layer" if args.trace else "end_to_end"
    names = [(m["name"], m["unit"]) for m in json.loads(BENCH.read_text())[metric_key]]

    sys.path.insert(0, str(SRC))
    import numpy
    import itensor
    import tracing
    import workloads
    if Path(itensor.__file__).resolve().parent != SRC / "itensor":
        print(f"error: imported itensor from {itensor.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.record_expected and args.seed != DEFAULT_SEED:
        print(f"error: --record-expected needs --seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    gone = tracing.missing() if args.trace else []
    if gone:
        print(f"error: traced functions missing from the library: {', '.join(gone)}",
              file=sys.stderr)
        return 2

    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        tracer = tracing.Tracer() if args.trace else None
        if tracer is None:
            setups = []
            for _ in range(SETUP_REPEATS):
                t_import = _import_s()
                t0 = perf_counter()
                state = wl.setup(args.seed, workdir)
                setups.append(t_import + perf_counter() - t0)
            order = run_order(len(state.items))
            phase = Phase()
            deadline = perf_counter() + args.seconds
            run_pass(wl, state, order, phase)
            while run_pass(wl, state, order, phase, deadline=deadline):
                pass
            metrics = end_to_end(wl, phase, statistics.median(setups), len(setups))
            phases = [phase]
        else:
            with tracing.instrument(tracer):
                state = wl.setup(args.seed, workdir)
            setup_mark = tracer.mark()
            order = run_order(len(state.items))
            # Untraced and traced passes alternate, so that drift in the
            # machine's speed falls on both alike.  A pair is started only
            # if it should end by the deadline.
            plain, traced = Phase(), Phase()
            t0 = perf_counter()
            pair_s = 0.0
            while not plain.passes or perf_counter() - t0 + pair_s < args.seconds:
                t_pair = perf_counter()
                run_pass(wl, state, order, plain)
                with tracing.instrument(tracer):
                    run_pass(wl, state, order, traced, tracer)
                pair_s = perf_counter() - t_pair
                if traced.passes == 1:
                    first_pass_end = tracer.mark()[0]
            end_mark = tracer.mark()
            metrics = per_layer(tracer, setup_mark, end_mark, traced.passes,
                                overhead_s(plain, traced), names)
            phases = [plain, traced]
            spans = HERE / f".work-spans-{wl.name}.jsonl"
            tracer.write_jsonl(spans, first_pass_end)

        failed_items, reasons, check = gate(wl, state, phases, args.seed,
                                            args.record_expected)
        if args.trace:
            reasons += silent_layers(wl.name, metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.runs_of(failed_items) for ph in phases)
    context = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "items_per_pass": len(state.items),
        "passes": [ph.passes for ph in phases],
        "inputs_sha256": state.inputs_sha256,
        "spans": str(spans.relative_to(ROOT)) if args.trace else None,
        "verdict_mix": check.verdict_mix if check else None,
        "error_rate": failed / attempted,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": _commit(), "source_sha256": _source_sha256(),
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    print("# context " + json.dumps(context, sort_keys=True))
    for why in reasons[:20]:
        print(f"# FAILED {why}")
    for name, unit in names:
        value, unit, note = metrics[name]
        print(f"# {name:<58} {value:>16.6g} {unit:<6} {note}")
    print(f"# {'error_rate':<58} {failed / attempted:>16.6g} {'ratio':<6} "
          f"{failed} of {attempted} items")
    print(json.dumps({
        "correct": not (failed_items or reasons),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name, _ in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

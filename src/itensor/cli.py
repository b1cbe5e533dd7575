"""Command-line front end.

Verbs: ``check`` (run one class criterion on a tensor or interval file),
``classify`` (the double-B dichotomy), ``generate`` (write a random
instance), and ``cross-validate`` (run the oracle suite).  Exit codes:
0 the property holds, 1 it fails, 2 the criterion is inconclusive,
3 usage or parse error, an input too large for memory, a tensor order
above ``tensor.MAX_ORDER``, or a ``generate`` shape above
``MAX_GENERATE_ENTRIES`` entries per bound.  The JSON
report goes to stdout (or ``--output``) and is byte-identical across
identical invocations; a human summary goes to stderr.  Floats are
printed as decimal doubles with 17 significant digits.

The ``"conditions"`` of a ``check`` report on an interval file is, by
default, ``Ledger.summary()``: one group per condition id and row (or row
pair) with ``id``, ``rows``, ``evaluated``, ``failed``, ``tightest`` and
``first_failure``.  ``--ledger full`` writes every evaluated record
instead, from the ledger's columns.  Status, witness and exit code are the
same either way; a text report builds no summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import stat
import sys
from functools import lru_cache

from . import __version__
from .classify import (
    B_METHODS,
    Status,
    check_b,
    check_b_circulant,
    check_dd,
    check_double_b,
    check_z,
    classify_double_b_dichotomy,
    falsify_p,
    p_sufficient,
    verdict_report,
)
from .interval import (
    BudgetExceeded,
    interval_from_json,
    interval_to_json,
    is_interval_z,
)
from .interval_classify import (
    INTERVAL_B_METHODS,
    Ledger,
    LedgerDicts,
    check_interval_b,
    check_interval_circulant,
    check_interval_double_b,
    classify_interval_double_b_dichotomy,
    interval_p_sufficient,
    interval_verdict_report,
)
from .oracle import GeneratorSpec, equivalence_suite, random_interval_tensor
from .tensor import MAX_ORDER, tail1, tensor_from_json

POINT_CLASSES = ("b", "double-b", "z", "sdd", "circulant-b", "p-sufficient", "p-falsify")
INTERVAL_CLASSES = (
    "interval-b",
    "interval-double-b",
    "interval-z",
    "interval-circulant",
    "interval-p-sufficient",
)
ALL_CLASSES = POINT_CLASSES + INTERVAL_CLASSES + ("dichotomy",)

EXIT_HOLDS, EXIT_FAILS, EXIT_INCONCLUSIVE, EXIT_USAGE = 0, 1, 2, 3

# Largest n**m that ``generate`` builds: each bound tensor holds n**m
# entries, and the generator keeps a few arrays of that size at once.
MAX_GENERATE_ENTRIES = 1 << 20


class UsageError(Exception):
    pass


def _check_generate_size(m: int, n: int) -> None:
    """Reject a ``generate`` shape before anything is allocated."""
    if m < 2:
        raise UsageError(f"order must be >= 2, got {m}")
    if m > MAX_ORDER:
        raise UsageError(f"order must be <= {MAX_ORDER}, got {m}")
    if n < 1:
        raise UsageError(f"dim must be >= 1, got {n}")
    if n**m > MAX_GENERATE_ENTRIES:
        raise UsageError(
            f"--m {m} --n {n} needs n**m entries per bound, more than the "
            f"{MAX_GENERATE_ENTRIES} that generate writes"
        )


def _ledger_lines(ledger: Ledger, depth: int, indent: int) -> list[str]:
    """One JSON object per record, written straight from the ledger's
    columns with one template per block."""
    p1, p2, p3 = (" " * (indent * d) for d in (depth, depth + 1, depth + 2))
    r = ledger.dim ** (ledger.order - 1)
    tails = [
        "[\n" + ",\n".join(f"{p3}{c}" for c in tail1(ledger, f)) + f"\n{p2}]"
        for f in range(r)
    ]
    one_row = [f"[\n{p3}{i + 1}\n{p2}]" for i in range(ledger.dim)]
    two_rows = [
        [f"[\n{p3}{i + 1},\n{p3}{j + 1}\n{p2}]" for j in range(ledger.dim)]
        for i in range(ledger.dim)
    ]
    lines = []
    for b in ledger.blocks:
        if b.pair_rows is None:
            cols = [[one_row[i] for i in b.rows]]
        else:
            cols = [[two_rows[i][j] for i, j in zip(b.rows, b.pair_rows)]]
        lhs, rhs, passed = b.values()
        cols += [lhs, rhs, ["true" if ok else "false" for ok in passed]]
        tmpl = (
            f'{p1}{{\n{p2}"id": {json.dumps(b.condition)},\n{p2}"rows": %s,\n'
            f'{p2}"lhs": %.17g,\n{p2}"rhs": %.17g,\n{p2}"passed": %s'
        )
        if b.tails is not None:
            cols.append([tails[f] for f in b.tails])
            tmpl += f',\n{p2}"tail": %s'
        if b.pair_tails is not None:
            cols.append([tails[f] for f in b.pair_tails])
            tmpl += f',\n{p2}"pair_tail": %s'
        tmpl += f"\n{p1}}}"
        lines += [tmpl % fields for fields in zip(*cols)]
    return lines


def dumps_report(obj, indent: int = 2) -> str:
    """Deterministic JSON with floats at 17 significant digits.

    Pieces are appended to one list and joined once; a condition ledger
    (``LedgerDicts``) is written from its columns without building dicts.
    """
    out: list[str] = []

    def emit(x, depth: int) -> None:
        if x is None:
            out.append("null")
        elif isinstance(x, bool):
            out.append("true" if x else "false")
        elif isinstance(x, int):
            out.append(str(x))
        elif isinstance(x, float):
            out.append(format(x, ".17g"))
        elif isinstance(x, str):
            out.append(json.dumps(x))
        elif isinstance(x, dict):
            if not x:
                out.append("{}")
                return
            pad_in = " " * (indent * (depth + 1))
            sep = "{\n"
            for k, v in x.items():
                out.append(f"{sep}{pad_in}{json.dumps(str(k))}: ")
                emit(v, depth + 1)
                sep = ",\n"
            out.append("\n" + " " * (indent * depth) + "}")
        elif isinstance(x, (list, tuple, LedgerDicts)):
            if not x:
                out.append("[]")
                return
            pad_in = " " * (indent * (depth + 1))
            out.append("[\n")
            if isinstance(x, LedgerDicts):
                out.append(",\n".join(_ledger_lines(x.ledger, depth + 1, indent)))
            else:
                for k, v in enumerate(x):
                    out.append(",\n" + pad_in if k else pad_in)
                    emit(v, depth + 1)
            out.append("\n" + " " * (indent * depth) + "]")
        else:
            raise TypeError(f"cannot serialize {type(x).__name__}")

    emit(obj, 0)
    out.append("\n")
    return "".join(out)


def _load_input(path: str):
    """Parse the input file and return ('tensor', T) or ('interval', AI)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}")
    if not isinstance(obj, dict):
        raise UsageError(f"{path}: top level must be a JSON object")
    digest = hashlib.sha256(raw).hexdigest()
    try:
        if "entries" in obj:
            return "tensor", tensor_from_json(obj), digest
        if "lower" in obj or "upper" in obj:
            return "interval", interval_from_json(obj), digest
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    raise UsageError(f"{path}: expected 'entries' or 'lower'/'upper' keys")


_PHRASES = {
    ("a", "interval_b_theorem"): ("Sum lower", "zero"),
    ("b", "interval_b_theorem"): ("Sum lower over other tails", "(n^(m-1)-1)*upper"),
    ("a", "interval_b_compact"): ("Sum lower", "zero"),
    ("b", "interval_b_compact"): ("Sum lower", "max(0, (n^(m-1)-1)*upper + lower)"),
    ("a", "interval_double_b"): ("lower diagonal", "max(0, upper off-diagonal)"),
    ("b1", "interval_double_b"): ("lower diagonal - upper", "max(0, Sum gaps)"),
    ("b2", "interval_double_b"): ("lower diagonal", "max(0, -Sum lower off-diagonal)"),
}


def _human_witness(w, method: str) -> str:
    lhs_name, rhs_name = _PHRASES.get((w.condition, method), ("lhs", "rhs"))
    where = f"row {w.row}"
    if w.pair_row is not None:
        where += f", row {w.pair_row}"
    if w.tail is not None:
        where += f", tail {tuple(w.tail)}"
    return (
        f"{where}: condition {w.condition} violated: "
        f"{lhs_name} = {w.lhs:.17g} does not beat {rhs_name} = {w.rhs:.17g}"
    )


def _status_exit(status: Status) -> int:
    return {
        Status.HOLDS: EXIT_HOLDS,
        Status.FAILS: EXIT_FAILS,
        Status.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    }[status]


def _run_point(args, T):
    cls = args.class_id
    tol = args.epsilon
    if cls == "b":
        method = args.method or "definition"
        if method not in B_METHODS:
            raise UsageError(f"--method for class b must be one of {B_METHODS}")
        v = check_b(T, method, tol=tol)
    elif cls == "double-b":
        v = check_double_b(T, tol=tol)
    elif cls == "z":
        v = check_z(T, tol=tol)
    elif cls == "sdd":
        v = check_dd(T, strict=True, tol=tol)
    elif cls == "circulant-b":
        v = check_b_circulant(T, tol=tol)
    elif cls == "p-sufficient":
        v = p_sufficient(T, tol=tol)
    elif cls == "p-falsify":
        res = falsify_p(T, budget=args.budget, seed=args.seed)
        status = Status.FAILS if res.falsified else Status.INCONCLUSIVE
        report = {
            "class": cls,
            "method": "sampling_falsifier",
            "status": status.value,
            "falsified": res.falsified,
            "counterexample_x": (
                list(res.counterexample_x) if res.counterexample_x else None
            ),
            "samples_used": res.samples_used,
            "seed": res.seed,
            "budget": args.budget,
        }
        summary = (
            "P property falsified" if res.falsified else "no counterexample found"
        )
        return report, status, summary
    else:
        raise UsageError(f"class {cls} does not apply to a tensor file")
    report = verdict_report(v, cls)
    summary = v.status.value.upper()
    if v.witness is not None:
        summary += ": " + _human_witness(v.witness, v.method)
    return report, v.status, summary


def _run_interval(args, AI):
    cls = args.class_id
    tol = args.epsilon
    if cls == "interval-b":
        method = args.method or "theorem"
        if method not in INTERVAL_B_METHODS:
            raise UsageError(
                f"--method for class interval-b must be one of {INTERVAL_B_METHODS}"
            )
        v = check_interval_b(AI, method, tol=tol)
    elif cls == "interval-double-b":
        v = check_interval_double_b(AI, tol=tol)
    elif cls == "interval-z":
        ok = is_interval_z(AI)
        status = Status.HOLDS if ok else Status.FAILS
        report = {"class": cls, "method": "offdiag_upper_sign", "status": status.value}
        return report, status, status.value.upper()
    elif cls == "interval-circulant":
        v = check_interval_circulant(AI, tol=tol)
    elif cls == "interval-p-sufficient":
        v = interval_p_sufficient(AI, tol=tol)
    else:
        raise UsageError(f"class {cls} does not apply to an interval file")
    report = interval_verdict_report(v, cls)
    if (args.format, args.ledger) == ("json", "summary") and "conditions" in report:
        report["conditions"] = v.conditions.summary()
    summary = v.status.value.upper()
    if v.witness is not None:
        summary += ": " + _human_witness(v.witness, v.method)
    return report, v.status, summary


def _run_check(args):
    kind, data, digest = _load_input(args.input)
    if kind == "tensor":
        if args.class_id not in POINT_CLASSES:
            raise UsageError(
                f"class {args.class_id} needs an interval file, got a tensor file"
            )
        report, status, summary = _run_point(args, data)
    else:
        if args.class_id not in INTERVAL_CLASSES:
            raise UsageError(
                f"class {args.class_id} needs a tensor file, got an interval file"
            )
        report, status, summary = _run_interval(args, data)
    return report, status, digest, summary


def _run_classify(args):
    kind, data, digest = _load_input(args.input)
    if args.class_id not in (None, "dichotomy"):
        raise UsageError("classify supports only --class dichotomy")
    if kind == "tensor":
        d = classify_double_b_dichotomy(data, tol=args.epsilon)
        report = {
            "class": "dichotomy",
            "kind": d.kind,
            "critical_row": d.critical_row,
        }
        status = Status.FAILS if d.kind == "not_double_b" else Status.HOLDS
        return report, status, digest, f"kind {d.kind}"
    d = classify_interval_double_b_dichotomy(data, tol=args.epsilon)
    report = {
        "class": "dichotomy",
        "kind": d.kind,
        "critical_row": d.critical_row,
        "failing_mode": d.failing_mode,
        "failing_tail": list(d.failing_tail) if d.failing_tail else None,
    }
    status = Status.FAILS if d.kind == "not_double_b" else Status.HOLDS
    return report, status, digest, f"kind {d.kind}"


def _write_output(path: str, text: str) -> None:
    """Write ``text`` to ``path``, creating the file if it is missing.

    A regular file is written over in place and then cut to the new length,
    never truncated to zero first: ext4 allocates and writes back the blocks
    of a file that was truncated to zero and rewritten when it is closed,
    a wait on the disk for every report.  A write that fails part-way
    still leaves only a prefix of the new text.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as fh:
        try:
            fh.write(text)
            fh.flush()
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _emit(args, envelope: dict, summary: str) -> None:
    text = dumps_report(envelope) if args.format == "json" else summary + "\n"
    if args.output:
        _write_output(args.output, text)
    else:
        sys.stdout.write(text)
    print(summary, file=sys.stderr)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The ``itensor`` argument parser, built once per process; parsing
    leaves it unchanged, so every ``main`` call reuses it."""
    p = argparse.ArgumentParser(
        prog="itensor",
        description="Structured tensor and interval tensor class checks.",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, needs_input=True):
        if needs_input:
            sp.add_argument("input", help="tensor or interval JSON file")
        sp.add_argument("--epsilon", type=float, default=0.0,
                        help="comparison tolerance (default 0: exact)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--budget", type=int, default=10000)
        sp.add_argument("--output", default=None, help="write the report here")
        sp.add_argument("--format", choices=("json", "text"), default="json")

    c = sub.add_parser("check", help="run one class criterion")
    c.add_argument("--class", dest="class_id", required=True, choices=ALL_CLASSES)
    c.add_argument("--method", default=None)
    c.add_argument("--ledger", choices=("summary", "full"), default="summary",
                   help="condition ledger of a JSON report on an interval file: "
                        "one group per condition and row (default) or every "
                        "record; ignored by other inputs and classes")
    common(c)

    cl = sub.add_parser("classify", help="double-B dichotomy")
    cl.add_argument("--class", dest="class_id", default="dichotomy",
                    choices=("dichotomy",))
    common(cl)

    g = sub.add_parser("generate", help="write a random interval instance")
    g.add_argument("--m", type=int, required=True, help="tensor order")
    g.add_argument("--n", type=int, required=True, help="tensor dimension")
    g.add_argument("--structure", default="general",
                   choices=("general", "z", "circulant", "symmetric"))
    common(g, needs_input=False)

    x = sub.add_parser("cross-validate", help="run the oracle suite")
    x.add_argument("--trials", type=int, default=200)
    x.add_argument("--m", type=int, default=3)
    x.add_argument("--n", type=int, default=2)
    x.add_argument("--structure", default="mixed",
                   choices=("mixed", "general", "z", "circulant", "symmetric"))
    common(x, needs_input=False)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if getattr(args, "epsilon", 0.0) < 0.0:
            raise UsageError("--epsilon must be >= 0")
        envelope = {
            "tool": "itensor",
            "version": __version__,
            "verb": args.verb,
            "epsilon": getattr(args, "epsilon", 0.0),
        }

        if args.verb == "check":
            report, status, digest, summary = _run_check(args)
            envelope.update(
                {"class": args.class_id, "input_sha256": digest,
                 "seed": args.seed, "budget": args.budget, "report": report}
            )
            _emit(args, envelope, summary)
            return _status_exit(status)

        if args.verb == "classify":
            report, status, digest, summary = _run_classify(args)
            envelope.update({"input_sha256": digest, "report": report})
            _emit(args, envelope, summary)
            return _status_exit(status)

        if args.verb == "generate":
            _check_generate_size(args.m, args.n)
            spec = GeneratorSpec(
                order=args.m, dim=args.n, structure=args.structure, seed=args.seed
            )
            AI = random_interval_tensor(spec)
            # The product is the instance file itself, directly consumable
            # by `check`; replay metadata goes to stderr only.
            _emit(
                args,
                interval_to_json(AI),
                f"generated order {args.m} dim {args.n} {args.structure} "
                f"interval (seed {args.seed})",
            )
            return EXIT_HOLDS

        # cross-validate
        suite = equivalence_suite(
            trials=args.trials, seed=args.seed, order=args.m, dim=args.n,
            structure=args.structure,
        )
        envelope.update({"seed": args.seed, "report": suite.to_json()})
        failures = suite.total_failures()
        probe = suite.inclusion_probe
        summary = (
            f"{args.trials} trials, {failures} counterexamples; "
            f"double-B-but-not-B instances: {probe['double_b_not_b']} "
            f"(forward inclusion "
            f"{'refuted' if probe['double_b_implies_b_refuted'] else 'unrefuted'})"
        )
        _emit(args, envelope, summary)
        return EXIT_HOLDS if failures == 0 else EXIT_FAILS
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"error: {exc} (required budget {exc.required})", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory; the input is too large for this machine",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

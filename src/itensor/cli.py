"""Command-line front end.

Verbs: ``check`` (run one class criterion on a tensor or interval file),
``classify`` (the double-B dichotomy), ``generate`` (write a random
instance), and ``cross-validate`` (run the oracle suite).  Exit codes:
0 the property holds, 1 it fails, 2 the criterion is inconclusive,
3 usage or parse error, an input file above ``MAX_INPUT_BYTES`` or
nested too deeply to parse, an input too large for memory, a tensor order
above ``tensor.MAX_ORDER``, a ``generate`` or ``cross-validate`` shape
above ``MAX_SHAPE_ENTRIES`` entries per bound, or a ``cross-validate``
family with more vertices than the oracle's limit.  The JSON
report goes to stdout (or ``--output``) and is byte-identical across
identical invocations; a human summary goes to stderr.  Floats are
printed as decimal doubles with 17 significant digits, infinities and NaN
as ``Infinity``, ``-Infinity`` and ``NaN``, the tokens ``json`` reads.

The ``"conditions"`` of a ``check`` report on an interval file is, by
default, ``Ledger.summary()``: one group per condition id and row (or row
pair) with ``id``, ``rows``, ``evaluated``, ``failed``, ``tightest`` and
``first_failure``.  The report holds it as a ``LedgerSummary``, whose group
tuples the writer prints with one ``%`` template per group shape, building
no dict.  ``--ledger full`` writes every evaluated record instead, from the
ledger's columns with one template per block.  Status, witness and exit
code are the same either way; a text report builds no summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import stat
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

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
    LedgerSummary,
    check_interval_b,
    check_interval_circulant,
    check_interval_double_b,
    classify_interval_double_b_dichotomy,
    interval_p_sufficient,
    interval_verdict_report,
)
from .oracle import STRUCTURES, GeneratorSpec, equivalence_suite, random_interval_tensor
from .tensor import MAX_ORDER, tail1, tensor_from_json

POINT_CLASSES = (
    "b", "double-b", "z", "sdd", "circulant-b", "p-sufficient", "p-falsify"
)
INTERVAL_CLASSES = (
    "interval-b",
    "interval-double-b",
    "interval-z",
    "interval-circulant",
    "interval-p-sufficient",
)
ALL_CLASSES = POINT_CLASSES + INTERVAL_CLASSES + ("dichotomy",)

EXIT_HOLDS, EXIT_FAILS, EXIT_INCONCLUSIVE, EXIT_USAGE = 0, 1, 2, 3

# Largest n**m that ``generate`` and ``cross-validate`` build: each bound
# tensor holds n**m entries, and the generator keeps a few arrays of that
# size at once.
MAX_SHAPE_ENTRIES = 1 << 20

# Largest input file ``check`` and ``classify`` read: two bounds of
# MAX_SHAPE_ENTRIES entries at 32 bytes each (64 MiB), room for every file
# ``generate`` writes.
MAX_INPUT_BYTES = 2 * MAX_SHAPE_ENTRIES * 32


class UsageError(Exception):
    pass


def _check_shape(m: int, n: int) -> None:
    """Reject a generated shape before anything is allocated."""
    if m < 2:
        raise UsageError(f"order must be >= 2, got {m}")
    if m > MAX_ORDER:
        raise UsageError(f"order must be <= {MAX_ORDER}, got {m}")
    if n < 1:
        raise UsageError(f"dim must be >= 1, got {n}")
    if n**m > MAX_SHAPE_ENTRIES:
        raise UsageError(
            f"--m {m} --n {n} needs n**m entries per bound, more than the "
            f"limit of {MAX_SHAPE_ENTRIES}"
        )


def _number(x: float) -> str:
    """A float at 17 significant digits; infinities and NaN as ``json``
    writes and reads them (``Infinity``, ``-Infinity``, ``NaN``)."""
    return format(x, ".17g") if math.isfinite(x) else json.dumps(x)


def _scalar(x) -> str:
    """A JSON scalar as ``dumps_report`` writes it."""
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return _number(x)
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _finite_floats(values: list) -> bool:
    """True when every value of a list of ledger sides (Python floats) is
    finite, which ``%.17g`` writes as ``_scalar`` does.  A sum of finite
    doubles is finite unless it overflows, which only sends the values down
    the slower, equally exact per-value branch."""
    return math.isfinite(sum(values))


def _list_text(items, pad: str, close: str) -> str:
    return "[\n" + ",\n".join(f"{pad}{x}" for x in items) + f"\n{close}]"


@lru_cache(maxsize=64)
def _index_texts(order: int, dim: int, depth: int, indent: int) -> tuple:
    """The JSON lists of one row and of a tail at ``depth``, as
    ``dumps_report`` writes them: a row by its 0-based index and a 1-based
    tail by its flat offset.  The n**2 row pairs are ``_pair_texts``."""
    pad, close = " " * (indent * (depth + 1)), " " * (indent * depth)
    shape = SimpleNamespace(order=order, dim=dim)
    return (
        tuple(_list_text((i,), pad, close) for i in range(1, dim + 1)),
        tuple(_list_text(tail1(shape, f), pad, close)
              for f in range(dim ** (order - 1))),
    )


@lru_cache(maxsize=16)
def _pair_texts(dim: int, depth: int, indent: int) -> tuple:
    """The JSON lists of two rows at ``depth``, by both 0-based rows; built
    only for a report that holds a row-pair condition."""
    pad, close = " " * (indent * (depth + 1)), " " * (indent * depth)
    rows = range(1, dim + 1)
    return tuple(tuple(_list_text((i, j), pad, close) for j in rows) for i in rows)


def _ledger_lines(ledger: Ledger, depth: int, indent: int) -> list[str]:
    """One JSON object per record, written straight from the ledger's
    columns with one template per block."""
    p1, p2 = (" " * (indent * d) for d in (depth, depth + 1))
    one_row, tails = _index_texts(ledger.order, ledger.dim, depth + 1, indent)
    lines = []
    for b in ledger.blocks:
        if b.pair_rows is None:
            cols = [[one_row[i] for i in b.column("rows")]]
        else:
            two_rows = _pair_texts(ledger.dim, depth + 1, indent)
            pairs = zip(b.column("rows"), b.column("pair_rows"))
            cols = [[two_rows[i][j] for i, j in pairs]]
        lhs, rhs, passed = map(b.column, ("lhs", "rhs", "passed"))
        num = "%.17g"
        if not _finite_floats([*lhs, *rhs]):
            lhs, rhs, num = [_scalar(x) for x in lhs], [_scalar(x) for x in rhs], "%s"
        cols += [lhs, rhs, ["true" if ok else "false" for ok in passed]]
        cond = encode_basestring_ascii(b.condition).replace("%", "%%")
        tmpl = (
            f'{p1}{{\n{p2}"id": {cond},\n{p2}"rows": %s,\n'
            f'{p2}"lhs": {num},\n{p2}"rhs": {num},\n{p2}"passed": %s'
        )
        if b.tails is not None:
            cols.append([tails[f] for f in b.column("tails")])
            tmpl += f',\n{p2}"tail": %s'
        if b.pair_tails is not None:
            cols.append([tails[f] for f in b.column("pair_tails")])
            tmpl += f',\n{p2}"pair_tail": %s'
        tmpl += f"\n{p1}}}"
        lines += [tmpl % fields for fields in zip(*cols)]
    return lines


def _summary_lines(view: LedgerSummary, depth: int, indent: int) -> list[str]:
    """One JSON object per summary group, written straight from the group
    tuples with one template per group shape: the id, and whether the
    tightest record and the first failure (or its ``null``) carry a tail
    and a pair tail."""
    p1, p2, p3 = (" " * (indent * d) for d in (depth, depth + 1, depth + 2))
    one_row = _index_texts(view.order, view.dim, depth + 1, indent)[0]
    tails = _index_texts(view.order, view.dim, depth + 2, indent)[1]
    if any(g[2] >= 0 for g in view.groups):
        two_rows = _pair_texts(view.dim, depth + 1, indent)
    values = [x for g in view.groups for s in g[5:] if s is not None for x in s[:2]]
    num = "%.17g"
    if not _finite_floats(values):
        num, values = "%s", [_scalar(x) for x in values]
    values = iter(values)

    def template(shape: tuple) -> str:
        cond, *sides = shape
        cond = encode_basestring_ascii(cond).replace("%", "%%")
        text = [f'{p1}{{\n{p2}"id": {cond},\n'
                f'{p2}"rows": %s,\n{p2}"evaluated": %d,\n{p2}"failed": %d']
        for key, side in zip(("tightest", "first_failure"), sides):
            text.append(f',\n{p2}"{key}": ')
            if side is None:
                text.append("null")
                continue
            text.append(f'{{\n{p3}"lhs": {num},\n{p3}"rhs": {num}')
            text += [f',\n{p3}"{k}": %s'
                     for k, on in zip(("tail", "pair_tail"), side) if on]
            text.append(f"\n{p2}}}")
        text.append(f"\n{p1}}}")
        return "".join(text)

    templates: dict[tuple, str] = {}
    lines = []
    for cond, row, pair, evaluated, failed, tight, first in view.groups:
        fields = [one_row[row] if pair < 0 else two_rows[row][pair], evaluated, failed]
        shape = [cond]
        for side in (tight, first):
            if side is None:
                shape.append(None)
                continue
            _, _, tail, pair_tail = side
            shape.append((tail is not None, pair_tail is not None))
            fields += (next(values), next(values))
            if tail is not None:
                fields.append(tails[tail])
            if pair_tail is not None:
                fields.append(tails[pair_tail])
        shape = tuple(shape)
        tmpl = templates.get(shape)
        if tmpl is None:
            tmpl = templates[shape] = template(shape)
        lines.append(tmpl % tuple(fields))
    return lines


def dumps_report(obj, indent: int = 2) -> str:
    """Deterministic JSON with floats at 17 significant digits.

    Pieces are appended to one list and joined once; a condition ledger
    (``LedgerDicts``) or its summary (``LedgerSummary``) is written from its
    columns without building dicts.
    """
    out: list[str] = []

    def emit(x, depth: int) -> None:
        if isinstance(x, dict):
            if not x:
                out.append("{}")
                return
            pad_in = " " * (indent * (depth + 1))
            sep = "{\n"
            for k, v in x.items():
                out.append(f"{sep}{pad_in}{encode_basestring_ascii(str(k))}: ")
                emit(v, depth + 1)
                sep = ",\n"
            out.append("\n" + " " * (indent * depth) + "}")
        elif isinstance(x, (list, tuple, LedgerDicts, LedgerSummary)):
            if not x:
                out.append("[]")
                return
            pad_in = " " * (indent * (depth + 1))
            out.append("[\n")
            if isinstance(x, LedgerDicts):
                out.append(",\n".join(_ledger_lines(x.ledger, depth + 1, indent)))
            elif isinstance(x, LedgerSummary):
                out.append(",\n".join(_summary_lines(x, depth + 1, indent)))
            else:
                for k, v in enumerate(x):
                    out.append(",\n" + pad_in if k else pad_in)
                    emit(v, depth + 1)
            out.append("\n" + " " * (indent * depth) + "]")
        else:
            out.append(_scalar(x))

    emit(obj, 0)
    out.append("\n")
    return "".join(out)


def _read_input(path: str) -> bytes:
    """The bytes of the input file, refused past ``MAX_INPUT_BYTES``: a
    regular file by its size before anything is read, anything else (a
    pipe, a device) by reading at most one byte past the cap."""
    too_big = UsageError(f"{path}: input larger than {MAX_INPUT_BYTES} bytes")
    try:
        with open(path, "rb") as fh:
            st = os.fstat(fh.fileno())
            regular = stat.S_ISREG(st.st_mode)
            if regular and st.st_size > MAX_INPUT_BYTES:
                raise too_big
            raw = fh.read() if regular else fh.read(MAX_INPUT_BYTES + 1)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if len(raw) > MAX_INPUT_BYTES:
        raise too_big
    return raw


def _load_input(path: str):
    """Parse the input file and return ('tensor', T) or ('interval', AI)."""
    raw = _read_input(path)
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}")
    except RecursionError:
        raise UsageError(f"{path}: JSON nested too deeply") from None
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
        report["conditions"] = v.conditions.summary_view()
    summary = v.status.value.upper()
    if v.witness is not None:
        summary += ": " + _human_witness(v.witness, v.method)
    return report, v.status, summary


def _run_check(args):
    if args.method is not None and args.class_id not in ("b", "interval-b"):
        raise UsageError(f"class {args.class_id} takes no --method")
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
    g.add_argument("--structure", default="general", choices=STRUCTURES)
    common(g, needs_input=False)

    x = sub.add_parser("cross-validate", help="run the oracle suite")
    x.add_argument("--trials", type=int, default=200)
    x.add_argument("--m", type=int, default=3)
    x.add_argument("--n", type=int, default=2)
    x.add_argument("--structure", default="mixed", choices=("mixed",) + STRUCTURES)
    common(x, needs_input=False)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        epsilon = getattr(args, "epsilon", 0.0)
        if not math.isfinite(epsilon):
            raise UsageError(f"--epsilon must be finite, got {epsilon}")
        if epsilon < 0.0:
            raise UsageError("--epsilon must be >= 0")
        envelope = {
            "tool": "itensor",
            "version": __version__,
            "verb": args.verb,
            "epsilon": epsilon,
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

        if args.verb in ("generate", "cross-validate"):
            _check_shape(args.m, args.n)
        if args.verb == "generate":
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
        if args.trials < 0:
            raise UsageError(f"--trials must be >= 0, got {args.trials}")
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
        # required is 2**k, whose decimal form can exceed int-to-str's digit limit.
        required = f"2**{exc.required.bit_length() - 1}"
        print(f"error: {exc} (required budget {required})", file=sys.stderr)
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

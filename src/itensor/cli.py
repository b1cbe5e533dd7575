"""Command-line front end.

Verbs: ``check`` (run one class criterion on a tensor or interval file),
``classify`` (the double-B dichotomy), ``generate`` (write a random
instance), and ``cross-validate`` (run the oracle suite); each takes only
the options it reads.  ``check`` runs one entry of ``CHECKS``.  Exit codes:
0 the property holds, 1 it fails, 2 the criterion is inconclusive,
3 usage or parse error, an input file above ``MAX_INPUT_BYTES`` or
nested too deeply to parse, an input too large for memory, a tensor order
above ``tensor.MAX_ORDER``, a ``generate`` or ``cross-validate`` shape
above ``MAX_SHAPE_ENTRIES`` entries per bound, or a ``cross-validate``
family with more vertices than the oracle's limit, or a ``classify``
whose dichotomy finds more than one critical row.  The JSON
report goes to stdout (or ``--output``) and is byte-identical across
identical invocations; a human summary goes to stderr.  Floats are
printed as decimal doubles with 17 significant digits, infinities and NaN
as ``Infinity``, ``-Infinity`` and ``NaN``, the tokens ``json`` reads.

The ``"conditions"`` of a ``check`` report on an interval file is, by
default, ``Ledger.summary()``: one group per condition id and row (or row
pair), held as a ``LedgerSummary``.  ``--ledger full`` writes every
evaluated record instead, held as ``LedgerDicts``.  Status, witness and
exit code are the same either way; a text report builds no summary.

One writer, ``_write``, writes every report, and builds no dict for a
ledger.  The key names and order of a record and a group are stated once,
by their dict forms in ``interval_classify`` (``_record_dict``,
``LedgerSummary._dict`` and ``_side_dict``).  ``_template`` writes such a
form with ``%`` slots (``_Slot``) as its leaves, which gives one template
per record or group shape, cached by shape and depth; each record
is that template filled from the ledger's columns, each group from its
group tuple.  The id is filled in like every other leaf, so no template
text needs escaping.  Row and tail lists are filled in as texts that
``_write`` wrote, cached per order, dim and depth.
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
from itertools import repeat
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import __version__
from .classify import (
    B_METHODS,
    DichotomyAnomaly,
    Status,
    Verdict,
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
    LedgerDicts,
    LedgerSummary,
    _record_dict,
    check_interval_b,
    check_interval_circulant,
    check_interval_double_b,
    classify_interval_double_b_dichotomy,
    interval_p_sufficient,
    interval_verdict_report,
)
from .oracle import STRUCTURES, GeneratorSpec, equivalence_suite, random_interval_tensor
from .tensor import MAX_ORDER, tail1, tensor_from_json

# class -> (input file kind, methods (the first is the default), check).  A
# check is named, and looked up in this module when it runs, so that a
# wrapper put on the module's attribute sees every call.
CHECKS = {
    "b": ("tensor", B_METHODS, "check_b"),
    "double-b": ("tensor", (), "check_double_b"),
    "z": ("tensor", (), "check_z"),
    "sdd": ("tensor", (), "check_dd"),
    "circulant-b": ("tensor", (), "check_b_circulant"),
    "p-sufficient": ("tensor", (), "p_sufficient"),
    "p-falsify": ("tensor", (), "falsify_p"),
    "interval-b": ("interval", INTERVAL_B_METHODS, "check_interval_b"),
    "interval-double-b": ("interval", (), "check_interval_double_b"),
    "interval-z": ("interval", (), "_check_interval_z"),
    "interval-circulant": ("interval", (), "check_interval_circulant"),
    "interval-p-sufficient": ("interval", (), "interval_p_sufficient"),
}
INTERVAL_CLASSES = tuple(c for c, (kind, *_) in CHECKS.items() if kind == "interval")
_FILES = {"tensor": "a tensor file", "interval": "an interval file"}

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


class _Slot(str):
    """A ``%`` conversion as a leaf of a dict form, which ``_write`` writes
    as it is: the form written with slot leaves is a template."""


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
        return x if type(x) is _Slot else encode_basestring_ascii(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _finite_floats(values: list) -> bool:
    """True when every value of a list of ledger sides (Python floats) is
    finite, which ``%.17g`` writes as ``_scalar`` does.  A sum of finite
    doubles is finite unless it overflows, which only sends the values down
    the slower, equally exact per-value branch."""
    return math.isfinite(sum(values))


def _text(x, depth: int) -> str:
    """``x`` as ``_write`` writes it at ``depth``."""
    out: list[str] = []
    _write(out, x, depth)
    return "".join(out)


@lru_cache(maxsize=64)
def _index_texts(order: int, dim: int, depth: int) -> tuple:
    """The texts of one row and of a tail at ``depth``: a row by its 0-based
    index and a 1-based tail by its flat offset.  The n**2 row pairs are
    ``_pair_texts``."""
    shape = SimpleNamespace(order=order, dim=dim)
    return (
        tuple(_text((i,), depth) for i in range(1, dim + 1)),
        tuple(_text(tail1(shape, f), depth) for f in range(dim ** (order - 1))),
    )


@lru_cache(maxsize=16)
def _pair_texts(dim: int, depth: int) -> tuple:
    """The texts of two rows at ``depth``, by both 0-based rows; built only
    for a report that holds a row-pair condition."""
    rows = range(1, dim + 1)
    return tuple(tuple(_text((i, j), depth) for j in rows) for i in rows)


@lru_cache(maxsize=256)
def _template(shape: tuple, num: str, depth: int) -> str:
    """The ``%`` template of a full-ledger record or a summary group at
    ``depth``: its dict form as ``_write`` writes it with slot leaves, ``%s``
    for texts and counts and ``num`` for the sides.  ``shape`` says which
    optional leaves it has: a record's tail and pair tail as two bools, or a
    group's two records, each such a pair or None for no record."""
    text, value = _Slot("%s"), _Slot(num)

    def tails(on):
        return (text if x else None for x in on)

    if isinstance(shape[0], bool):
        form = _record_dict(text, text, value, value, text, *tails(shape))
    else:
        form = LedgerSummary._dict(text, text, text, text, *(
            None if on is None else LedgerSummary._side_dict(value, value, *tails(on))
            for on in shape))
    return _text(form, depth)


def _record_lines(view: LedgerDicts, depth: int) -> list[str]:
    """The records of ``view`` at ``depth``, filled into one template per
    ledger block from its columns."""
    ledger = view.ledger
    one_row, tails = _index_texts(ledger.order, ledger.dim, depth + 1)
    lines = []
    for b in ledger.blocks:
        if b.pair_rows is None:
            rows = [one_row[i] for i in b.column("rows")]
        else:
            two_rows = _pair_texts(ledger.dim, depth + 1)
            pairs = zip(b.column("rows"), b.column("pair_rows"))
            rows = [two_rows[i][j] for i, j in pairs]
        # lhs, rhs and passed have the grid's shape.
        lhs, rhs, passed = (c.ravel().tolist() for c in (b.lhs, b.rhs, b.passed))
        num = "%.17g"
        if not _finite_floats([*lhs, *rhs]):
            lhs, rhs, num = [_scalar(x) for x in lhs], [_scalar(x) for x in rhs], "%s"
        at = [b.column(name) for name in ("tails", "pair_tails")]
        cols = [repeat(encode_basestring_ascii(b.condition)), rows, lhs, rhs,
                ["true" if ok else "false" for ok in passed]]
        cols += [[tails[f] for f in col] for col in at if col is not None]
        tmpl = _template(tuple(col is not None for col in at), num, depth)
        lines += [tmpl % fields for fields in zip(*cols)]
    return lines


def _group_lines(view: LedgerSummary, depth: int) -> list[str]:
    """The groups of ``view`` at ``depth``, filled from the group tuples into
    one template per group shape."""
    one_row = _index_texts(view.order, view.dim, depth + 1)[0]
    tails = _index_texts(view.order, view.dim, depth + 2)[1]
    if any(g[2] >= 0 for g in view.groups):
        two_rows = _pair_texts(view.dim, depth + 1)
    values = [x for g in view.groups for s in g[5:] if s is not None for x in s[:2]]
    num = "%.17g"
    if not _finite_floats(values):
        num, values = "%s", [_scalar(x) for x in values]
    values = iter(values)
    lines = []
    for cond, row, pair, evaluated, failed, *sides in view.groups:
        row_text = one_row[row] if pair < 0 else two_rows[row][pair]
        fields = [encode_basestring_ascii(cond), row_text, evaluated, failed]
        shape = []
        for side in sides:
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
        lines.append(_template(tuple(shape), num, depth) % tuple(fields))
    return lines


def _write(out: list, x, depth: int) -> None:
    """Append ``x`` to ``out`` as JSON at ``depth``; a condition ledger
    (``LedgerDicts``) or its summary (``LedgerSummary``) is filled into
    templates, building no dict."""
    if isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        pad_in = "  " * (depth + 1)
        sep = "{\n"
        for k, v in x.items():
            out.append(f"{sep}{pad_in}{encode_basestring_ascii(str(k))}: ")
            _write(out, v, depth + 1)
            sep = ",\n"
        out.append("\n" + "  " * depth + "}")
    elif isinstance(x, (list, tuple, LedgerDicts, LedgerSummary)):
        if not x:
            out.append("[]")
            return
        pad_in = "  " * (depth + 1)
        out.append("[\n")
        if isinstance(x, (LedgerDicts, LedgerSummary)):
            fill = _record_lines if isinstance(x, LedgerDicts) else _group_lines
            out += (pad_in, (",\n" + pad_in).join(fill(x, depth + 1)))
        else:
            for k, v in enumerate(x):
                out.append(",\n" + pad_in if k else pad_in)
                _write(out, v, depth + 1)
        out.append("\n" + "  " * depth + "]")
    else:
        out.append(_scalar(x))


def dumps_report(obj) -> str:
    """Deterministic JSON, indented by two spaces, with floats at 17
    significant digits: the pieces ``_write`` appends to one list, joined
    once."""
    out: list[str] = []
    _write(out, obj, 0)
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


def _check_interval_z(AI, tol: float = 0.0) -> Verdict:
    """Interval Z as a verdict: the signs of the upper off-diagonal bounds
    decide, so ``tol`` is unused."""
    status = Status.HOLDS if is_interval_z(AI) else Status.FAILS
    return Verdict(status, "offdiag_upper_sign")


def _run_check(args):
    """Run the entry of ``CHECKS`` for ``--class`` on the input file."""
    cls = args.class_id
    kind, methods, name = CHECKS[cls]
    if args.method is not None and not methods:
        raise UsageError(f"class {cls} takes no --method")
    got, data, digest = _load_input(args.input)
    if got != kind:
        raise UsageError(f"class {cls} needs {_FILES[kind]}, got {_FILES[got]}")
    check = globals()[name]
    if cls == "p-falsify":
        res = check(data, budget=args.budget, seed=args.seed)
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
        return report, status, digest, summary
    method = [args.method or methods[0]] if methods else []
    if method and method[0] not in methods:
        raise UsageError(f"--method for class {cls} must be one of {methods}")
    v = check(data, *method, tol=args.epsilon)
    report = (interval_verdict_report if kind == "interval" else verdict_report)(v, cls)
    if (args.format, args.ledger) == ("json", "summary") and "conditions" in report:
        report["conditions"] = v.conditions.summary_view()
    summary = v.status.value.upper()
    if v.witness is not None:
        summary += ": " + _human_witness(v.witness, v.method)
    return report, v.status, digest, summary


def _run_classify(args):
    kind, data, digest = _load_input(args.input)
    if kind == "tensor":
        d = classify_double_b_dichotomy(data, tol=args.epsilon)
    else:
        d = classify_interval_double_b_dichotomy(data, tol=args.epsilon)
    report = {"class": "dichotomy", "kind": d.kind, "critical_row": d.critical_row}
    if kind == "interval":
        report["failing_mode"] = d.failing_mode
        report["failing_tail"] = list(d.failing_tail) if d.failing_tail else None
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

    options = {
        "input": {"help": "tensor or interval JSON file"},
        "--epsilon": {"type": float, "default": 0.0,
                      "help": "comparison tolerance (default 0: exact)"},
        "--seed": {"type": int, "default": 0},
        "--budget": {"type": int, "default": 10000},
        "--output": {"default": None, "help": "write the report here"},
        "--format": {"choices": ("json", "text"), "default": "json"},
    }

    def common(sp, *names):
        """The options ``names`` that verb ``sp`` reads, then its output."""
        for name in (*names, "--output", "--format"):
            sp.add_argument(name, **options[name])

    c = sub.add_parser("check", help="run one class criterion")
    c.add_argument("--class", dest="class_id", required=True, choices=tuple(CHECKS))
    c.add_argument("--method", default=None)
    c.add_argument("--ledger", choices=("summary", "full"), default="summary",
                   help="condition ledger of a JSON report on an interval file: "
                        "one group per condition and row (default) or every "
                        "record; ignored by other inputs and classes")
    common(c, "input", "--epsilon", "--seed", "--budget")

    cl = sub.add_parser("classify", help="double-B dichotomy")
    cl.add_argument("--class", dest="class_id", default="dichotomy",
                    choices=("dichotomy",))
    common(cl, "input", "--epsilon")

    g = sub.add_parser("generate", help="write a random interval instance")
    g.add_argument("--m", type=int, required=True, help="tensor order")
    g.add_argument("--n", type=int, required=True, help="tensor dimension")
    g.add_argument("--structure", default="general", choices=STRUCTURES)
    common(g, "--seed")

    x = sub.add_parser("cross-validate", help="run the oracle suite")
    x.add_argument("--trials", type=int, default=200)
    x.add_argument("--m", type=int, default=3)
    x.add_argument("--n", type=int, default=2)
    x.add_argument("--structure", default="mixed", choices=("mixed",) + STRUCTURES)
    common(x, "--seed")
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
    except BudgetExceeded as exc:
        # required is 2**k, whose decimal form can exceed int-to-str's digit limit.
        required = f"2**{exc.required.bit_length() - 1}"
        print(f"error: {exc} (required budget {required})", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, ValueError, DichotomyAnomaly) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory; the input is too large for this machine",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

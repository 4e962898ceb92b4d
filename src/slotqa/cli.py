"""Command-line interface.

Every subcommand that writes a file also writes a ``<file>.prov.json``
sidecar carrying the dataset metadata and the full provenance chain:
``{"operation", "parameters", "seed"}`` entries, where parameters include
the input and output paths. ``replay`` re-executes such a chain and
verifies that each recorded output is reproduced byte for byte.

Exit codes: 0 success, 1 validation or data failure, 2 usage error
(unknown flags, missing or unreadable files, schema failures).

Each operation is declared once, by ``@Operation`` on its runner: its name,
its help text and its flags (:class:`Flag`) in ``--help`` order. The parser,
the files ``main`` checks, each provenance entry's keys and ``replay`` derive
from them: a flag's ``role`` gives the direction of a file it names, and its
``key`` says whether provenance records it and who records it (see
:class:`Flag`, which also gives the type ``replay`` requires of a recorded
value).

A runner takes the parsed arguments (on replay, the recorded values under
the same names) and returns the line to print, or the exit code once it has
printed for itself. It imports the layers it uses when it runs, so a
subcommand loads only what it needs, and keeps no reference to their functions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from .model import (
    DEFAULT_NO_ANSWER_TOKEN,
    IDF_SOURCES,
    MATCH_MODES,
    SPLITS,
    DataError,
    Dataset,
    ParseError,
    check_no_answer_token,
    expect,
    load_dataset,
    parse_sidecar,
    read_json,
    read_lines,
    read_predictions,
    refuse_overwrite,
    tsv_rows,
    validate_dataset,
    write_dataset,
    write_json,
    write_predictions,
)

class Flag:
    """One option of an operation; with ``name`` None, a value recorded without one.

    ``options`` are the argparse settings. ``role`` marks every file the
    operation reads ("in") or writes ("out") and a directory it writes into
    ("dir"); ``main`` refuses any of them given as "". ``key`` is where
    provenance records the value: ``"seed"`` is the entry's own seed, any
    other key a parameter. The CLI records the flags with a role and a key,
    in flag order, after the layer's own keys; the runner records its other
    keys.

    ``kind`` is the type replay requires of a recorded value. A role makes it
    "a path", ``action="store_true"`` "a boolean", ``type=int`` "an integer",
    ``type=float`` "a number", and anything else "a string". Only a value that
    may be null passes its kind: that cannot follow from ``required``, since
    ``score --out`` is optional, yet a null recorded there must be refused
    rather than skip the compare and exit 0.
    """

    def __init__(self, name, key=None, kind=None, role=None, **options):
        self.name, self.key, self.role, self.options = name, key, role, options
        self.kind = kind or ("a path" if role else "a boolean" if options.get("action") == "store_true"
                             else {int: "an integer", float: "a number"}.get(options.get("type"), "a string"))
        self.dest = options.get("dest", (name or key).lstrip("-").replace("-", "_"))


class Operation:
    """A subcommand; as a decorator, declares its runner under ``name``."""

    def __init__(self, name: str, help: str, *flags: Flag):
        self.name, self.help, self.flags = name, help, flags
        # an operation that records no key is never replayed
        self.recorded = [flag for flag in flags if flag.key]

    def __call__(self, run):
        self.run = run
        OPERATIONS[self.name] = self
        return run


# every subcommand, in --help order
OPERATIONS: dict[str, Operation] = {}


def _record(args, dataset, **options) -> Dataset:
    """``dataset`` with the running operation's files, then ``options``, added to its newest entry."""
    files = {flag.key: getattr(args, flag.dest) for flag in args.op.recorded if flag.role}
    *log, entry = dataset.provenance_log
    entry = {**entry, "parameters": {**entry["parameters"], **files, **options}}
    return dataset._replace(provenance_log=(*log, entry))


def _save(args, dataset, report=None, what="instances", **extra) -> str:
    """Write a dataset with the CLI's keys added to its newest entry, and its report.

    Returns the start of the runner's message.
    """
    write_dataset(_record(args, dataset, **extra), args.out)
    if report is not None and args.report:
        write_json(report.to_dict(), args.report)
    return f"wrote {len(dataset)} {what} to {args.out}"


def _options(args) -> dict:
    """The values the runner records itself: its keyed flags that name no file."""
    return {flag.key: getattr(args, flag.dest) for flag in args.op.recorded if not flag.role}


def _plain_sidecar(args, **options) -> Dataset:
    """The sidecar of an output that is not a dataset: one entry, recorded by the CLI."""
    return _record(args, Dataset(name=Path(args.out).stem).derive((), args.op.name, {}), **options)


def _load(path, no_answer_token=None) -> Dataset:
    """The dataset at ``path``, with ``no_answer_token`` if given; a DataError if it is invalid.

    The adaptation is checked against the token the sidecar records, so a token
    given to an unadapted dataset asks for no prefix.
    """
    dataset = load_dataset(path)
    if no_answer_token is not None:
        check_no_answer_token(no_answer_token)
    if violations := validate_dataset(dataset, no_answer_token):
        v = violations[0]
        raise DataError(f"{path}: instance {v.instance_id!r} breaks {v.invariant}: {v.message}"
                        f" (violations: {len(violations)}; validate lists them all)")
    return dataset if no_answer_token is None else dataset._replace(no_answer_token=no_answer_token)


def _naming(path, layer, *args):
    """``layer(*args)``; a ParseError it raises is made to start with the input ``path``."""
    try:
        return layer(*args)
    except ParseError as e:
        if str(e).startswith(f"{path}: "):  # read_json and read_lines name it already
            raise
        raise ParseError(f"{path}: {e}") from e.__cause__


_IN = Flag("--in", "in", role="in", dest="in_path", required=True, metavar="FILE")
_OUT = Flag("--out", "out", role="out", required=True, metavar="FILE")
_SPLIT = Flag("--split", "split", required=True, choices=SPLITS)
_SEED = Flag("--seed", "seed", required=True, type=int)
_REPORT = Flag("--report", role="out", metavar="FILE", help="write the report as JSON")
_DATASET = Flag("--dataset", "dataset", role="in", required=True, metavar="FILE")
_PREDS = Flag("--preds", "preds", role="in", required=True, metavar="FILE")
_NOANSWER_TOKEN = Flag("--noanswer-token", "noanswer_token", "a string or null",
                       help="map this predicted token to a no-answer")
_SCORE_OUT = Flag("--out", "out", role="out", metavar="FILE", help="write the report as JSON")
_TSV = Flag("--tsv", action="store_true", help="print one tab-separated line")


@Operation("ingest-squad", "convert SQuAD v1.1 JSON to canonical JSONL",
           _IN, _SPLIT, _OUT, _REPORT)
def _ingest_squad(args) -> str:
    from .ingest import ingest_squad

    dataset, report = _naming(args.in_path, ingest_squad, read_json(args.in_path), args.split)
    wrote = _save(args, dataset, report)
    return f"{wrote} ({report.skipped} dropped of {report.input_count} questions)"


@Operation("ingest-uwre", "convert slot-filling TSV to canonical JSONL",
           _IN, _SPLIT, _OUT,
           Flag("--templates-out", "templates_out", "a path or null", role="out", metavar="FILE",
                help="write the template inventory as TSV"),
           _REPORT)
def _ingest_uwre(args) -> str:
    from .ingest import ingest_uwre
    from .templates import save_templates

    dataset, inventory, report = _naming(args.in_path, ingest_uwre, read_lines(args.in_path), args.split)
    wrote = _save(args, dataset, report)
    message = f"{wrote} ({report.skipped} dropped of {report.input_count} records)"
    if args.templates_out:
        save_templates(inventory, args.templates_out)
        message += f"; {len(inventory)} templates to {args.templates_out}"
    return message


@Operation("negativize", "delete answer sentences to build negatives",
           _IN, _OUT,
           Flag("--keep-positives", "keep_positives", action="store_true",
                help="emit sources alongside negatives"),
           _REPORT)
def _negativize(args) -> str:
    from .transforms import negativize_squad

    result, report = negativize_squad(_load(args.in_path), keep_positives=args.keep_positives)
    wrote = _save(args, result, report)
    return f"{wrote} ({report.skipped} positives skipped: nothing left after removal)"


@Operation("adapt-noanswer", "prefix contexts with the no-answer dummy token",
           _IN, _OUT, Flag("--token", "token", default=DEFAULT_NO_ANSWER_TOKEN))
def _adapt_noanswer(args) -> str:
    from .transforms import insert_no_answer_token

    result, _ = insert_no_answer_token(_load(args.in_path), args.token)
    return f"{_save(args, result, what='adapted instances')} (token {args.token!r})"


@Operation("build-challenge", "build entity-swap challenge negatives",
           _IN, Flag("--templates", "templates", role="in", required=True, metavar="FILE"),
           _SEED, _OUT, _REPORT)
def _build_challenge(args) -> str:
    from .challenge import MissingTemplateError, build_challenge_set
    from .templates import load_templates

    dataset = _load(args.in_path)
    positives = tuple(inst for inst in dataset if inst.origin == "uwre_positive")
    if not positives:
        raise DataError(f"{args.in_path}: no uwre_positive instances to build from")
    templates, rejections = load_templates(args.templates)
    try:
        result, report = build_challenge_set(dataset._replace(instances=positives), templates, args.seed)
    except MissingTemplateError as error:
        # a failed run writes no report, so the message carries the rejections of the relation's
        # rows: with no template kept for the relation, the file rejected every row it has for it
        rows = tuple(f"line {n}: " for n, (relation, _) in tsv_rows(read_lines(args.templates), 2)
                     if relation == error.relation)
        notes = [note for note in rejections if note.startswith(rows)]
        if not notes:
            raise DataError(f"{args.templates}: {error}") from error
        raise DataError(f"{args.templates}: no usable question template for relation {error.relation!r}"
                        f" ({len(notes)} row{'s' * (len(notes) > 1)} rejected: {notes[0]})") from error
    report.note(*rejections)
    wrote = _save(args, result, report, what="challenge instances")
    return f"{wrote} ({report.extra['skipped_no_donor']} positives had no donor)"


@Operation("build-uwre-plus", "replace half of a split's negatives with challenge instances",
           _IN,
           Flag("--pool", "pool", role="in", required=True, metavar="FILE",
                help="challenge instances to draw from"),
           _SEED,
           # replayed without: the entry's seed is already the effective one
           Flag("--split-label", help="derive the effective seed from the master seed and this label"),
           _OUT, _REPORT)
def _build_uwre_plus(args) -> str:
    from .challenge import build_uwre_plus, derive_seed

    seed, derived = args.seed, {}
    if args.split_label:
        seed = derive_seed(args.seed, args.split_label)
        derived = {"master_seed": args.seed, "split_label": args.split_label}
    dataset, pool = _load(args.in_path), _load(args.pool)
    # build_uwre_plus refuses both too, but cannot name the file
    if not any(inst.origin == "uwre_negative" for inst in dataset):
        raise DataError(f"{args.in_path}: split contains no uwre_negative instances")
    if not pool:
        raise DataError(f"{args.pool}: challenge pool is empty")
    result, report = build_uwre_plus(dataset, pool, seed)
    wrote = _save(args, result, report, **derived)
    extra = report.extra
    return (
        f"{wrote} (removed {extra['removed']} negatives,"
        f" inserted {extra['inserted']}, shortfall {extra['shortfall']})"
    )


@Operation("mix", "concatenate a base with nested samples of an augment",
           Flag("--config", role="in", required=True, metavar="FILE", help="MixSpec JSON"),
           Flag("--base", "base_path", role="in", required=True, metavar="FILE"),
           Flag("--augment", "augment_path", role="in", required=True, metavar="FILE"),
           Flag("--out-dir", role="dir", required=True, metavar="DIR"),
           # mix_files records one entry per output; it names that output's one-size spec
           Flag(None, "base", dest="base_name"),
           Flag(None, "augment", dest="augment_name"),
           Flag(None, "size", type=int),
           Flag(None, "seed", type=int),
           Flag(None, "out", role="out"))
def _mix(args) -> str:
    from .mixer import MixSpec, mix_files

    if args.config is None:  # a replay
        spec = MixSpec(args.base_name, args.augment_name, args.seed, (args.size,))
        out_dir = Path(args.out).parent
    else:
        spec, out_dir = MixSpec.from_json_file(args.config), args.out_dir
    results = mix_files(spec, args.base, args.augment, out_dir, args.config)
    return "\n".join(f"wrote {report.output_count} instances to {path}" for _, path, report in results)


@Operation("predict-baseline", "run the lexical overlap baseline",
           _IN, _OUT,
           # recorded after the paths with the defaults filled in, in BaselineConfig field order
           Flag("--threshold", "no_answer_threshold", type=float),
           Flag("--max-span-tokens", "max_span_tokens", type=int),
           Flag("--idf", "idf_source", choices=IDF_SOURCES))
def _predict_baseline(args) -> str:
    from .baseline import BaselineConfig, predict_dataset

    # the flags that were given; BaselineConfig supplies the defaults of the rest
    config = BaselineConfig(**{key: value for key, value in _options(args).items() if value is not None})
    predictions = predict_dataset(_load(args.in_path), config)
    write_predictions(predictions, args.out, _plain_sidecar(args, **config._asdict()))
    answered = sum(1 for p in predictions if p.answer is not None)
    return (
        f"wrote {len(predictions)} predictions to {args.out}"
        f" ({answered} answered, {len(predictions) - answered} no-answer)"
    )


@Operation("score", "slot-filling precision/recall/F1",
           _DATASET, _PREDS, _SCORE_OUT, Flag("--match", "match", choices=MATCH_MODES, default="exact"),
           _NOANSWER_TOKEN, _TSV)
def _score(args) -> str:
    from . import metrics

    dataset = _load(args.dataset, args.noanswer_token)
    predictions = read_predictions(args.preds)
    if args.op.name == "score-challenge":
        report = metrics.score_challenge_accuracy(dataset, predictions)
    else:
        report = metrics.score_slot_filling(dataset, predictions, match=args.match)
    if args.out:
        write_json(report.to_dict(), args.out, _plain_sidecar(args, **_options(args)))
    return report.to_tsv() if args.tsv else json.dumps(report.to_dict(), indent=2, ensure_ascii=False)


Operation("score-challenge", "no-answer accuracy on an all-negative set",
          _DATASET, _PREDS, _SCORE_OUT, _NOANSWER_TOKEN, _TSV)(_score)


@Operation("validate", "check every dataset invariant",
           Flag("--in", role="in", dest="in_path", required=True, metavar="FILE"))
def _validate(args) -> str | int:
    dataset = load_dataset(args.in_path)
    violations = validate_dataset(dataset)
    if not violations:
        return f"OK: {len(dataset)} instances, no violations"
    for v in violations:
        print(f"{v.instance_id}\t{v.invariant}\t{v.message}")
    print(f"{len(violations)} violations in {len(dataset)} instances", file=sys.stderr)
    return 1


@Operation("replay", "re-execute a provenance log and verify outputs",
           Flag("--log", role="in", required=True, metavar="FILE", help="a .prov.json sidecar"))
def _replay(args) -> int:
    """Check and run each step in turn and print its lines as it ends.

    A failed check or run raises in its step's turn, so no later step runs.
    """
    import tempfile

    log = parse_sidecar(args.log).provenance_log
    if not log:
        raise ParseError(f"{args.log}: expected a sidecar object with a provenance_log")
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, entry in enumerate(log):
            for line in _replay_step(args.log, i, entry, Path(tmp)):
                print(line)
                mismatches += line.startswith("MISMATCH")
    if mismatches:
        print(f"{mismatches} outputs differ", file=sys.stderr)
        return 1
    return 0


def _same_bytes(recorded: Path, candidate: Path) -> bool:
    """Whether both paths are regular files of the same bytes, read in 1 MiB blocks to the first that differs."""
    import stat

    first, second = recorded.stat(), candidate.stat()
    if not (stat.S_ISREG(first.st_mode) and stat.S_ISREG(second.st_mode)) or first.st_size != second.st_size:
        return False
    with open(recorded, "rb") as f, open(candidate, "rb") as g:
        while block := f.read(1 << 20):
            if block != g.read(1 << 20):
                return False
        return not g.read(1)


def _replay_step(log_path, i, entry, tmp) -> list[str]:
    """The lines replay prints for step ``i`` of a log: its skip line, or one per output it reran.

    Checks the recorded keys, their types and choices, then the inputs, then
    the recorded outputs; the first that fails raises :class:`ParseError`.
    Then runs the step, writing its outputs under ``tmp``.
    """
    name = entry.get("operation")
    op = OPERATIONS.get(name) if isinstance(name, str) else None
    if op is None or not op.recorded:
        return [f"skip: step {i} ({name}) is not a replayable operation"]
    where = f"{log_path}: step {i} ({name})"
    parameters = expect(entry.get("parameters", {}), "an object", f"{where}: parameters")
    if "out" not in parameters:
        return [f"skip: step {i} ({name}) records no output path"]
    # the runner's arguments: every option the log does not record is off
    values, outputs = {flag.dest: None for flag in op.flags}, []
    for flag in op.recorded:
        record, prefix = (entry, "") if flag.key == "seed" else (parameters, "parameters.")
        # a key that may be null may also be missing, as from logs written before it existed
        if flag.key not in record and not flag.kind.endswith(" or null"):
            raise ParseError(f"{where}: missing required key '{prefix}{flag.key}'")
        value = values[flag.dest] = expect(record.get(flag.key), flag.kind, f"{where}: '{prefix}{flag.key}'")
        choices = flag.options.get("choices")
        if choices and value not in choices:
            raise ParseError(f"{where}: '{prefix}{flag.key}' must be one of {list(choices)}")
        if flag.role == "out" and value:  # written again in a directory of its own: names may repeat
            candidate = tmp / f"step{i:03d}" / flag.dest / Path(value).name
            candidate.parent.mkdir(parents=True)
            outputs.append((Path(value), candidate))
            values[flag.dest] = str(candidate)
    for flag in op.recorded:
        if flag.role == "in" and not Path(values[flag.dest]).exists():
            raise ParseError(f"{where}: missing input {flag.key}={values[flag.dest]!r}")
    for recorded, _ in outputs:
        if not recorded.exists():
            raise ParseError(f"{where}: missing recorded output {recorded}")
    op.run(argparse.Namespace(op=op, **values))
    # a mismatch: an output not written again, or anything but two regular files of the same bytes
    return [f"ok: step {i} ({name}) reproduces {recorded}"
            if candidate.exists() and _same_bytes(recorded, candidate)
            else f"MISMATCH: step {i} ({name}) does not reproduce {recorded}"
            for recorded, candidate in outputs]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slotqa",
        description="Transform QA datasets into slot-filling form and score predictions.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)
    for op in OPERATIONS.values():
        p = sub.add_parser(op.name, help=op.help)
        for flag in op.flags:
            if flag.name:
                p.add_argument(flag.name, **flag.options)
        p.set_defaults(op=op)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a character stdout cannot encode is written as an escape, as Python writes stderr
        if getattr(sys.stdout, "errors", None) == "strict":
            # on a stream opened seekable, reconfigure then asks its position; if a pipe has
            # since been dup2'd over its descriptor, that raises after the new errors are set
            with contextlib.suppress(OSError):
                sys.stdout.reconfigure(errors="backslashreplace")
        try:
            named = [flag for flag in args.op.flags if flag.name]
            for flag in named:  # "" is no file: a write to it would land beside the working directory
                if flag.role and getattr(args, flag.dest) is not None:
                    expect(getattr(args, flag.dest), "a path", flag.name)
            outputs = [getattr(args, f.dest) for f in named if f.role == "out"]
            refuse_overwrite(outputs, [getattr(args, f.dest) for f in named if f.role == "in"])
            result = args.op.run(args)
            if not isinstance(result, int):
                print(result)
                result = 0
        # an input that is missing, a directory or unreadable (OSError) is a usage error
        except (ParseError, DataError, OSError) as e:
            if isinstance(e, BrokenPipeError):
                raise
            print(f"error: {e}", file=sys.stderr)
            result = 1 if isinstance(e, DataError) else 2
        sys.stdout.flush()  # a reader that stopped early shows here, not at exit
        return result
    except BrokenPipeError:  # the reader of stdout stopped early, as `| head` does
        with open(os.devnull, "wb") as devnull:  # Python flushes stdout at exit
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a process that SIGPIPE ended
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())

"""Core data model for slot-filling QA datasets, plus their on-disk forms.

The canonical dataset format is JSONL: one instance object per line, UTF-8
with LF line endings, fields ``id``, ``question``, ``context``, ``answers``
(array of ``{start, text}`` objects), ``relation``, ``subject_entity``,
``origin``, ``split``. All character offsets count Unicode code points,
never bytes, so ``context[start : start + len(text)] == text`` holds in
Python string indexing directly.

Dataset-level metadata (name, provenance log, no-answer adaptation token)
has no slot in the line format; it lives in a sidecar JSON file next to the
JSONL, written and read by :func:`write_dataset` / :func:`load_dataset`.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

NEGATIVE_ORIGINS = frozenset({"squad_negative", "uwre_negative", "challenge_negative"})
POSITIVE_ORIGINS = frozenset({"squad_positive", "uwre_positive"})
ORIGINS = POSITIVE_ORIGINS | NEGATIVE_ORIGINS | {"synthetic"}
SPLITS = ("train", "dev", "test")
# the values of predict-baseline --idf and of score --match
IDF_SOURCES = ("self_corpus", "uniform")
MATCH_MODES = ("exact", "overlap")

# The dummy token that ``adapt-noanswer`` prefixes to every context.
DEFAULT_NO_ANSWER_TOKEN = "NoAnswerFound"

# checked in this order, so a record with several bad fields names the same one
_STRING_FIELDS = ("id", "question", "context", "origin", "split")
_SPAN_FIELD_SET = frozenset({"start", "text"})
_PREDICTION_FIELD_SET = frozenset({"id", "answer"})


class ParseError(ValueError):
    """Structural failure while reading an external file (bad schema, bad row)."""


class DataError(ValueError):
    """Semantic failure in well-formed data (broken invariant, bad precondition)."""


# what each reader requires of a JSON value or a file name, by the name its message gives;
# true and false are not numbers
JSON_KINDS = {
    "a string": lambda value: isinstance(value, str),
    "a string or null": lambda value: value is None or isinstance(value, str),
    "a boolean": lambda value: isinstance(value, bool),
    "an integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "a number": lambda value: isinstance(value, (int, float)) and not isinstance(value, bool),
    "an array": lambda value: isinstance(value, list),
    "an object": lambda value: isinstance(value, dict),
    "a path": lambda value: isinstance(value, str) and value != "" and "\0" not in value,
    "a path or null": lambda value: value in (None, "") or JSON_KINDS["a path"](value),  # "": unset
}


def expect(value: Any, kind: str, what: str) -> Any:
    """``value`` if it is of ``kind``, a name in ``JSON_KINDS``; else a ParseError that ``what`` starts."""
    if not JSON_KINDS[kind](value):
        raise ParseError(f"{what} must be {kind}")
    return value


def check_no_answer_token(token: str, side: str | Path | None = None) -> str:
    """``token``, if it is non-empty and holds no whitespace. Otherwise a DataError, or for
    a token read from the sidecar ``side`` a ParseError naming it."""
    if not token or any(ch.isspace() for ch in token):
        message = "no-answer token must be non-empty and contain no whitespace"
        raise DataError(message) if side is None else ParseError(f"{side}: {message}")
    return token


class Span(NamedTuple):
    """A gold answer: ``text`` starts at code-point offset ``start`` of the context."""

    start: int
    text: str


def no_answer_sentinel(token: str | None) -> tuple[Span, ...] | None:
    """The answers of a negative adapted with ``token``: one span over it at offset 0."""
    return None if token is None else (Span(0, token),)


class Instance(NamedTuple):
    """One question paired with one context.

    An empty ``answers`` tuple marks a negative instance: the context does
    not contain the answer. ``relation`` and ``subject_entity`` are only
    populated for instances that came from (or mimic) KB slot-filling data.
    """

    id: str
    question: str
    context: str
    answers: tuple[Span, ...] = ()
    relation: str | None = None
    subject_entity: str | None = None
    origin: str = "synthetic"
    split: str = "train"


_INSTANCE_FIELD_SET = frozenset(Instance._fields)


class QuestionTemplate(NamedTuple):
    """A parametric question for a relation; the placeholder marks the entity slot."""

    relation: str
    pattern: str


class Prediction(NamedTuple):
    """A system output for one instance; ``answer is None`` means no answer."""

    instance_id: str
    answer: str | None


class Dataset:
    """An ordered, immutable collection of instances with provenance.

    ``provenance_log`` is append-only: every transform that produces a new
    Dataset copies the old entries and adds one of its own. Each entry is
    ``{"operation": str, "parameters": dict, "seed": int | None}``.
    ``no_answer_token`` is set once a dummy-token adaptation has been applied
    so scoring can map the token back to a no-answer. ``instances`` and
    ``provenance_log`` are stored as tuples. Fields cannot be assigned:
    :meth:`_replace` makes a copy with some of them changed.
    """

    __slots__ = ("instances", "name", "provenance_log", "no_answer_token")

    def __init__(self, instances: Iterable[Instance] = (), name: str = "",
                 provenance_log: Iterable[dict] = (), no_answer_token: str | None = None) -> None:
        for key, value in zip(Dataset.__slots__, (tuple(instances), name, tuple(provenance_log), no_answer_token)):
            object.__setattr__(self, key, value)

    def __setattr__(self, key: str, value: Any = None) -> None:
        raise AttributeError(f"a Dataset is immutable: cannot change {key!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if type(other) is not Dataset:
            return NotImplemented
        return all(getattr(self, key) == getattr(other, key) for key in Dataset.__slots__)

    def __repr__(self) -> str:
        return f"Dataset({', '.join(f'{key}={getattr(self, key)!r}' for key in Dataset.__slots__)})"

    def _replace(self, **changes: Any) -> "Dataset":
        """A copy with ``changes``; an unknown field name is a TypeError."""
        return Dataset(**{**{key: getattr(self, key) for key in Dataset.__slots__}, **changes})

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self) -> Iterator[Instance]:
        return iter(self.instances)

    def derive(
        self,
        instances: Sequence[Instance],
        operation: str,
        parameters: dict,
        seed: int | None = None,
        **overrides: Any,
    ) -> "Dataset":
        """A new Dataset with ``instances``, inheriting and extending provenance."""
        entry = {"operation": operation, "parameters": dict(parameters), "seed": seed}
        return self._replace(instances=instances,
                             provenance_log=self.provenance_log + (entry,), **overrides)


class Violation(NamedTuple):
    """One broken dataset invariant, attributed to an instance."""

    instance_id: str
    invariant: str
    message: str


# a report keeps this many notes and counts the rest
_MAX_NOTES = 1000


class TransformReport:
    """Summary of one dataset-producing operation; serializes to plain JSON."""

    def __init__(self, operation: str, input_count: int = 0, output_count: int = 0, skipped: int = 0,
                 parameters: dict | None = None, extra: dict | None = None) -> None:
        self.operation, self.input_count, self.output_count = operation, input_count, output_count
        self.skipped = skipped
        self.parameters = {} if parameters is None else parameters
        self.extra = {} if extra is None else extra
        self.notes: list[str] = []
        self.notes_dropped = 0

    def note(self, *texts: str) -> None:
        """Add notes; past the first 1,000 only their number is kept."""
        room = _MAX_NOTES - len(self.notes)
        self.notes.extend(texts[:room])
        self.notes_dropped += len(texts[room:])

    def finish(self, source: Dataset, instances: Sequence[Instance], parameters: dict | None = None,
               seed: int | None = None, **overrides: Any) -> tuple[Dataset, "TransformReport"]:
        """``source`` derived to ``instances`` under this report's operation, and the report.

        The report counts exactly those instances; ``parameters`` default to its own.
        """
        self.output_count = len(instances)
        parameters = self.parameters if parameters is None else parameters
        return source.derive(instances, self.operation, parameters, seed, **overrides), self

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "operation": self.operation,
            "input_count": self.input_count,
            "output_count": self.output_count,
            "skipped": self.skipped,
            "parameters": self.parameters,
        }
        out.update(self.extra)
        out["notes"] = self.notes
        if self.notes_dropped:
            out["notes_dropped"] = self.notes_dropped
        return out


def span_problem(context: str, span: Span) -> tuple[str, str] | None:
    """The first invariant ``span`` breaks as a gold answer in ``context``, as
    ``(invariant, message)``; None if it reads its text at its offset."""
    start, text = span
    if not text:
        return "span_text_nonempty", "answer span has empty text"
    if start < 0:
        return "span_start_nonnegative", f"answer span start {start} is negative"
    found = context[start : start + len(text)]
    if found != text:
        return "span_matches_context", f"span at offset {start} reads {found!r}, not {text!r}"
    return None


def validate_dataset(dataset: Dataset, scoring_token: str | None = None) -> list[Violation]:
    """Check every dataset invariant, returning violations as data.

    Never raises on malformed content: a violation names the instance and
    the invariant it breaks. An empty result means the dataset is valid.

    A dataset adapted with a no-answer token starts every context with it and a
    space, and gives every negative without other spans the sentinel span over it.
    A negative's answers may be the sentinel of ``scoring_token``, a token scoring
    maps to a no-answer in place of the dataset's own.
    """
    violations: list[Violation] = []
    seen_ids: set[str] = set()
    token = dataset.no_answer_token
    prefix = None if token is None else token + " "
    scoring_token = token if scoring_token is None else scoring_token
    sentinel = no_answer_sentinel(scoring_token) if scoring_token else None
    for inst in dataset.instances:
        if inst.id in seen_ids:
            violations.append(
                Violation(inst.id, "unique_ids", f"duplicate instance id {inst.id!r}")
            )
        seen_ids.add(inst.id)
        if inst.origin not in ORIGINS:
            violations.append(
                Violation(inst.id, "origin_enum", f"unknown origin {inst.origin!r}")
            )
        if inst.split not in SPLITS:
            violations.append(
                Violation(inst.id, "split_enum", f"unknown split {inst.split!r}")
            )
        for span in inst.answers:
            if problem := span_problem(inst.context, span):
                violations.append(Violation(inst.id, *problem))
        if inst.origin in NEGATIVE_ORIGINS and inst.answers and inst.answers != sentinel:
            violations.append(
                Violation(
                    inst.id,
                    "negative_origin_empty_answers",
                    f"origin {inst.origin!r} requires an empty answers list",
                )
            )
        if inst.origin in POSITIVE_ORIGINS and not inst.answers:
            violations.append(
                Violation(
                    inst.id,
                    "positive_origin_nonempty_answers",
                    f"origin {inst.origin!r} requires at least one answer span",
                )
            )
        if prefix is None:
            continue
        if not inst.context.startswith(prefix):
            violations.append(
                Violation(inst.id, "no_answer_token_prefix", f"context does not start with {prefix!r}")
            )
        if inst.origin in NEGATIVE_ORIGINS and not inst.answers:
            violations.append(
                Violation(
                    inst.id,
                    "negative_no_answer_sentinel",
                    f"origin {inst.origin!r} requires the no-answer span {token!r} at offset 0",
                )
            )
    return violations


# --- canonical JSONL form ---


def instance_to_dict(inst: Instance) -> dict:
    return {
        "id": inst.id,
        "question": inst.question,
        "context": inst.context,
        "answers": [{"start": s.start, "text": s.text} for s in inst.answers],
        "relation": inst.relation,
        "subject_entity": inst.subject_entity,
        "origin": inst.origin,
        "split": inst.split,
    }


# the string escaper of json.dumps(..., ensure_ascii=False): non-ASCII is written raw
_quote = json.encoder.encode_basestring


def _json(value: Any) -> str:
    """``value`` as ``json.dumps(value, ensure_ascii=False)`` writes it, alone or inside a line."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if value is None:
        return "null"
    if kind is int:
        return repr(value)
    return json.dumps(value, ensure_ascii=False)  # a bool, a subclass, anything else


def _span_json(span: Span) -> str:
    return f'{{"start": {_json(span.start)}, "text": {_json(span.text)}}}'


def dumps_instance(inst: Instance) -> str:
    """The canonical line of ``inst``, without its newline: the same bytes as
    ``json.dumps(instance_to_dict(inst), ensure_ascii=False)``, that is the fields in
    ``Instance._fields`` order, ``", "`` and ``": "`` between items, non-ASCII written
    raw and ``null`` for an absent relation or subject.

    The line is built from the fields with no dict: each value goes through ``_json``.
    """
    id_, question, context, answers, relation, subject, origin, split = inst
    return (f'{{"id": {_json(id_)}, "question": {_json(question)}, "context": {_json(context)},'
            f' "answers": [{", ".join(map(_span_json, answers))}],'
            f' "relation": {_json(relation)}, "subject_entity": {_json(subject)},'
            f' "origin": {_json(origin)}, "split": {_json(split)}}}')


def _parse_instance(obj: Any) -> Instance:
    """An Instance from a decoded JSON value; a ParseError says what is wrong, not where."""
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object")
    if obj.keys() != _INSTANCE_FIELD_SET:
        missing = [k for k in Instance._fields if k not in obj]
        unknown = [k for k in obj if k not in _INSTANCE_FIELD_SET]
        raise ParseError(
            "bad instance fields"
            + (f", missing {missing}" if missing else "")
            + (f", unknown {unknown}" if unknown else "")
        )
    answers_raw = obj["answers"]
    if not isinstance(answers_raw, list):
        raise ParseError("field 'answers' must be an array")
    answers = []
    for i, a in enumerate(answers_raw):
        if not isinstance(a, dict) or a.keys() != _SPAN_FIELD_SET:
            raise ParseError(f"answers[{i}] must be an object with start and text")
        start, text = a["start"], a["text"]
        if not JSON_KINDS["an integer"](start):
            raise ParseError(f"answers[{i}].start must be an integer")
        if not isinstance(text, str):
            raise ParseError(f"answers[{i}].text must be a string")
        answers.append(Span(start, text))
    for key in ("relation", "subject_entity"):
        if obj[key] is not None and not isinstance(obj[key], str):
            raise ParseError(f"field {key!r} must be a string or null")
    for key in _STRING_FIELDS:
        if not isinstance(obj[key], str):
            raise ParseError(f"field {key!r} must be a string")
    return Instance(
        obj["id"],
        obj["question"],
        obj["context"],
        tuple(answers),
        obj["relation"] and sys.intern(obj["relation"]),  # few distinct values: one copy each
        obj["subject_entity"],
        sys.intern(obj["origin"]),
        sys.intern(obj["split"]),
    )


def instance_from_dict(obj: Any, where: str = "instance") -> Instance:
    try:
        return _parse_instance(obj)
    except ParseError as e:
        raise ParseError(f"{where}: {e}") from None


def write_instances(instances: Iterable[Instance], path: str | Path, sidecar=None) -> None:
    with atomic_output(path, sidecar=sidecar) as f:
        for inst in instances:
            f.write(dumps_instance(inst) + "\n")


# json.loads's own settings; its scanner decodes one value at an offset
_scan_once = json.JSONDecoder().scan_once


def decode_line(text: str) -> Any:
    """One JSONL line, without its terminator, as a JSON value.

    A line that is one JSON value and nothing else is decoded by the scanner
    alone. Every other line (JSON whitespace around the value, a BOM, an
    error) goes to ``json.loads``, so the lines accepted, the values
    returned and the errors worded are exactly ``json.loads``'s. A
    ParseError says what is wrong, not where.
    """
    if not text:
        raise ParseError("empty line")
    try:
        value, end = _scan_once(text, 0)
        if end == len(text):
            return value
    except (StopIteration, ValueError, RecursionError):
        pass
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # RecursionError: nested too deep
        raise ParseError(f"invalid JSON: {e}") from e


def read_lines(path: str | Path) -> Iterator[str]:
    """The lines of a UTF-8 text file, as text-mode iteration yields them.

    The file is read once. Bytes that are not UTF-8 are a ParseError naming
    the line they are on, once every line before it has been yielded.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:  # a byte kept as a surrogate: decode the line's bytes
                    try:
                        line.rstrip("\n").encode("utf-8", "surrogateescape").decode("utf-8")
                    except UnicodeDecodeError as e:
                        raise ParseError(
                            f"{path}: line {lineno}: invalid UTF-8 at byte {e.start}: {e.reason}"
                        ) from e
            yield line


def tsv_rows(lines: Iterable[str], fields: int, where: str = "") -> Iterator[tuple[int, list[str]]]:
    """``(line number, fields)`` of every non-empty line; a line without ``fields`` fields is a ParseError."""
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != fields:
            raise ParseError(
                f"{where}line {lineno}: expected {fields} tab-separated fields, got {len(parts)}"
            )
        yield lineno, parts


def _read_jsonl(path: str | Path, parse) -> tuple:
    """``parse`` applied to every decoded line; errors are prefixed with the line."""
    items = []
    for lineno, line in enumerate(read_lines(path), start=1):
        try:
            items.append(parse(decode_line(line.rstrip("\n"))))
        except ParseError as e:
            # the location is formatted only for the line that fails
            raise ParseError(f"{path}: line {lineno}: {e}") from e.__cause__
    return tuple(items)


def read_instances(path: str | Path) -> tuple[Instance, ...]:
    return _read_jsonl(path, _parse_instance)


def sidecar_path(path: str | Path) -> Path:
    return Path(f"{Path(path)}.prov.json")  # also for a path without a name, such as "."


def refuse_overwrite(outputs: Iterable, inputs: Iterable) -> None:
    """A ParseError if an output or its sidecar is not a regular file or would overwrite an input or another output."""
    sources = [side for p in inputs if p for side in (Path(p), sidecar_path(p)) if side.exists()]
    outputs = list(filter(None, outputs))
    for out in outputs:
        for written in (Path(out), sidecar_path(out)):
            if written.exists() and not written.is_file():
                raise ParseError(f"output {written} is not a regular file")
            for source in sources:
                if written.exists() and written.samefile(source):
                    raise ParseError(f"output {written} would overwrite input {source}")
    written_by: dict[str, str] = {}  # the real path of each file written: what writes it
    for out in outputs:
        for written, what in ((Path(out), f"output {out}"), (sidecar_path(out), f"the sidecar of output {out}")):
            if (real := os.path.realpath(written)) in written_by:
                raise ParseError(f"{what} would overwrite {written_by[real]}")
            written_by[real] = what


@contextlib.contextmanager
def atomic_output(path: str | Path, binary: bool = False, sidecar: Dataset | None = None):
    """A new file that replaces ``path`` (a link's target) whole once the block succeeds.

    It is hidden beside the target until then, with the mode ``open(path, "w")`` leaves;
    an error creating it names ``path``. On success the old sidecar is removed, the file
    renamed over the target and ``sidecar``'s metadata written; on an exception it is
    removed. Nothing is fsynced.
    """
    target = Path(os.path.realpath(path))
    temp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
    try:
        f = open(temp, "xb" if binary else "x", encoding=None if binary else "utf-8",
                 newline=None if binary else "\n")
    except OSError as e:  # name the output, not the temporary file
        raise OSError(e.errno, e.strerror, os.fspath(path)) from e
    try:
        with f:
            yield f
        with contextlib.suppress(FileNotFoundError):  # a file written over keeps its mode
            os.chmod(temp, os.stat(target).st_mode & 0o7777)
        sidecar_path(path).unlink(missing_ok=True)
        os.replace(temp, target)
    finally:
        temp.unlink(missing_ok=True)  # gone already once renamed
    if sidecar is not None:
        write_sidecar(path, sidecar)


def read_json(path: str | Path) -> Any:
    """The JSON value a whole file holds.

    Bytes that are not UTF-8, text that is not JSON, and nesting too deep
    for the decoder are a ParseError naming the file.
    """
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except (ValueError, RecursionError) as e:
            raise ParseError(f"{path}: invalid JSON: {e}") from e


def write_json(obj: Any, path: str | Path, sidecar=None) -> None:
    """Indented UTF-8 JSON and a final newline: the form of every sidecar and report."""
    with atomic_output(path, sidecar=sidecar) as f:
        json.dump(obj, f, ensure_ascii=False, indent=2)
        f.write("\n")


def write_sidecar(path: str | Path, meta: Dataset) -> None:
    """The sidecar of the file at ``path``: ``meta``'s name, no-answer token and provenance."""
    write_json({"name": meta.name, "no_answer_token": meta.no_answer_token,
                "provenance_log": list(meta.provenance_log)}, sidecar_path(path))


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write instances as JSONL, then the metadata sidecar."""
    write_instances(dataset.instances, path, sidecar=dataset)


def parse_sidecar(side: str | Path, name: str = "") -> Dataset:
    """The metadata a sidecar file holds, as a Dataset without instances.

    ``name`` stands in for a missing name. A file that is not a JSON object,
    or holds a field of the wrong type, is a ParseError naming the file.
    """
    meta = read_json(side)
    if not isinstance(meta, dict):
        raise ParseError(f"{side}: expected a JSON object")
    name = meta.get("name", name)
    token = meta.get("no_answer_token")
    log = meta.get("provenance_log", [])
    expect(name, "a string", f"{side}: name")
    if expect(token, "a string or null", f"{side}: no_answer_token") is not None:
        check_no_answer_token(token, side)
    if not isinstance(log, list) or not all(isinstance(entry, dict) for entry in log):
        raise ParseError(f"{side}: provenance_log must be a list of objects")
    return Dataset(name=name, provenance_log=log, no_answer_token=token)


def read_sidecar(path: str | Path) -> Dataset:
    """The metadata of the dataset at ``path``; its name defaults to the file's stem."""
    side, name = sidecar_path(path), Path(path).stem
    return parse_sidecar(side, name) if side.exists() else Dataset(name=name)


def load_dataset(path: str | Path) -> Dataset:
    """Read a JSONL dataset, picking up the metadata sidecar when present."""
    instances = read_instances(path)
    return read_sidecar(path)._replace(instances=instances)


# --- prediction files: one {"id": ..., "answer": ...} object per line ---


def write_predictions(predictions: Iterable[Prediction], path: str | Path, sidecar=None) -> None:
    """One line per prediction, the bytes of ``json.dumps({"id": ..., "answer": ...},
    ensure_ascii=False)``, built as :func:`dumps_instance` builds an instance's."""
    with atomic_output(path, sidecar=sidecar) as f:
        for pred in predictions:
            f.write(f'{{"id": {_json(pred.instance_id)}, "answer": {_json(pred.answer)}}}\n')


def _parse_prediction(obj: Any) -> Prediction:
    if not isinstance(obj, dict) or obj.keys() != _PREDICTION_FIELD_SET:
        raise ParseError("expected an object with id and answer")
    return Prediction(expect(obj["id"], "a string", "field 'id'"),
                      expect(obj["answer"], "a string or null", "field 'answer'"))


def read_predictions(path: str | Path) -> tuple[Prediction, ...]:
    return _read_jsonl(path, _parse_prediction)

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

    def is_negative(self) -> bool:
        """Whether ``answers`` is empty; False for a negative on a dataset adapted with a
        no-answer token, since such a negative holds the sentinel span over the token."""
        return not self.answers


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
    so scoring can map the token back to a no-answer. Fields cannot be
    assigned: :meth:`_replace` makes a copy with some of them changed.
    """

    __slots__ = ("instances", "name", "provenance_log", "no_answer_token")

    def __init__(self, instances: tuple[Instance, ...] = (), name: str = "",
                 provenance_log: tuple[dict, ...] = (), no_answer_token: str | None = None) -> None:
        for key, value in zip(Dataset.__slots__, (instances, name, provenance_log, no_answer_token)):
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
        return self._replace(instances=tuple(instances),
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


def validate_dataset(dataset: Dataset) -> list[Violation]:
    """Check every dataset invariant, returning violations as data.

    Never raises on malformed content: a violation names the instance and
    the invariant it breaks. An empty result means the dataset is valid.
    """
    violations: list[Violation] = []
    seen_ids: set[str] = set()
    sentinel = no_answer_sentinel(dataset.no_answer_token) if dataset.no_answer_token else None
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
            if not span.text:
                violations.append(
                    Violation(inst.id, "span_text_nonempty", "answer span has empty text")
                )
                continue
            if span.start < 0:
                violations.append(
                    Violation(
                        inst.id,
                        "span_start_nonnegative",
                        f"answer span start {span.start} is negative",
                    )
                )
                continue
            found = inst.context[span.start : span.start + len(span.text)]
            if found != span.text:
                violations.append(
                    Violation(
                        inst.id,
                        "span_matches_context",
                        f"span at offset {span.start} reads {found!r}, not {span.text!r}",
                    )
                )
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


def dumps_instance(inst: Instance) -> str:
    return json.dumps(instance_to_dict(inst), ensure_ascii=False)


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
        if isinstance(start, bool) or not isinstance(start, int):
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
            f.write(dumps_instance(inst))
            f.write("\n")


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
    """A ParseError if an output or its sidecar is not a regular file or would overwrite an input."""
    sources = [side for p in inputs if p for side in (Path(p), sidecar_path(p)) if side.exists()]
    for out in filter(None, outputs):
        for written in (Path(out), sidecar_path(out)):
            if written.exists() and not written.is_file():
                raise ParseError(f"output {written} is not a regular file")
            for source in sources:
                if written.exists() and written.samefile(source):
                    raise ParseError(f"output {written} would overwrite input {source}")


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
    if not isinstance(name, str):
        raise ParseError(f"{side}: name must be a string")
    if token is not None and not isinstance(token, str):
        raise ParseError(f"{side}: no_answer_token must be a string or null")
    if not isinstance(log, list) or not all(isinstance(entry, dict) for entry in log):
        raise ParseError(f"{side}: provenance_log must be a list of objects")
    return Dataset(name=name, provenance_log=tuple(log), no_answer_token=token)


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
    with atomic_output(path, sidecar=sidecar) as f:
        for pred in predictions:
            f.write(json.dumps({"id": pred.instance_id, "answer": pred.answer}, ensure_ascii=False))
            f.write("\n")


def _parse_prediction(obj: Any) -> Prediction:
    if not isinstance(obj, dict) or obj.keys() != _PREDICTION_FIELD_SET:
        raise ParseError("expected an object with id and answer")
    if not isinstance(obj["id"], str):
        raise ParseError("field 'id' must be a string")
    if obj["answer"] is not None and not isinstance(obj["answer"], str):
        raise ParseError("field 'answer' must be a string or null")
    return Prediction(obj["id"], obj["answer"])


def read_predictions(path: str | Path) -> tuple[Prediction, ...]:
    return _read_jsonl(path, _parse_prediction)

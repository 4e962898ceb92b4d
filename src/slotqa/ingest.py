"""Readers for the two source formats.

SQuAD v1.1 JSON: ``{"version": ..., "data": [{"title", "paragraphs":
[{"context", "qas": [{"id", "question", "answers": [{"text",
"answer_start"}]}]}]}]}``. Every question becomes a positive instance.

Slot-filling TSV (one record per line, no header)::

    relation<TAB>template<TAB>entity<TAB>sentence<TAB>answer1|answer2|...

An empty final field marks a negative record. Field values are taken
verbatim, so they must not contain tabs or newlines, and answer strings
must not contain ``|``. Answers are located in the sentence at their first
occurrence, scanning left to right.
"""

from __future__ import annotations

from typing import Any, Iterable

from .model import (
    Dataset,
    Instance,
    ParseError,
    QuestionTemplate,
    Span,
    SPLITS,
    TransformReport,
    expect,
    span_problem,
    tsv_rows,
)
from .templates import instantiate, placeholder_problem


def _check_split(split: str) -> None:
    if split not in SPLITS:
        raise ParseError(f"unknown split {split!r}, expected one of {list(SPLITS)}")


def _expect(obj: Any, key: str, path: str, kind: str) -> Any:
    """``obj[key]``, which must be of ``kind``, a name in ``JSON_KINDS``."""
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object")
    if key not in obj:
        raise ParseError(f"{path}: missing key {key!r}")
    return expect(obj[key], kind, f"{path}.{key}")


def ingest_squad(document: Any, split: str) -> tuple[Dataset, TransformReport]:
    """Convert a parsed SQuAD v1.1 document into canonical positive instances.

    Gold answers are deduplicated on (start, text) and validated against the
    context; a question whose answers do not all check out is dropped and
    recorded in the report rather than aborting the run.
    """
    _check_split(split)
    report = TransformReport(operation="ingest-squad", parameters={"split": split})
    instances: list[Instance] = []
    for d_i, article in enumerate(_expect(document, "data", "$", "an array")):
        paragraphs = _expect(article, "paragraphs", f"$.data[{d_i}]", "an array")
        for p_i, paragraph in enumerate(paragraphs):
            path = f"$.data[{d_i}].paragraphs[{p_i}]"
            context = _expect(paragraph, "context", path, "a string")
            for q_i, qa in enumerate(_expect(paragraph, "qas", path, "an array")):
                qa_path = f"{path}.qas[{q_i}]"
                qa_id = _expect(qa, "id", qa_path, "a string")
                question = _expect(qa, "question", qa_path, "a string")
                answers_raw = _expect(qa, "answers", qa_path, "an array")
                report.input_count += 1
                spans: list[Span] = []
                seen: set[tuple[int, str]] = set()
                bad = None
                for a_i, answer in enumerate(answers_raw):
                    a_path = f"{qa_path}.answers[{a_i}]"
                    text = _expect(answer, "text", a_path, "a string")
                    start = _expect(answer, "answer_start", a_path, "an integer")
                    if (start, text) in seen:
                        continue
                    seen.add((start, text))
                    if span_problem(context, span := Span(start, text)):
                        bad = f"{qa_id}: answer {text!r} does not match context at offset {start}"
                        break
                    spans.append(span)
                if bad is not None:
                    report.skipped += 1
                    report.note(bad)
                    continue
                if not spans:
                    report.skipped += 1
                    report.note(f"{qa_id}: no answers given")
                    continue
                instances.append(
                    Instance(
                        id=qa_id,
                        question=question,
                        context=context,
                        answers=tuple(spans),
                        origin="squad_positive",
                        split=split,
                    )
                )
    return report.finish(Dataset(name=f"squad-{split}"), instances)


def ingest_uwre(
    lines: Iterable[str], split: str
) -> tuple[Dataset, list[QuestionTemplate], TransformReport]:
    """Convert slot-filling TSV records into canonical instances.

    Returns the dataset, the template inventory (distinct (relation,
    template) pairs in file order), and a report. A positive record whose
    answer cannot be found in its sentence is dropped and recorded; a
    structurally malformed line is a parse error naming the line number.
    """
    _check_split(split)
    report = TransformReport(operation="ingest-uwre", parameters={"split": split})
    instances: list[Instance] = []
    inventory: list[QuestionTemplate] = []
    seen_templates: set[tuple[str, str]] = set()
    for lineno, (relation, template, entity, sentence, answer_field) in tsv_rows(lines, 5):
        for label, value in (
            ("relation", relation),
            ("template", template),
            ("entity", entity),
            ("sentence", sentence),
        ):
            if not value:
                raise ParseError(f"line {lineno}: empty {label} field")
        if problem := placeholder_problem(template):
            raise ParseError(f"line {lineno}: template {problem}")
        report.input_count += 1
        key = (relation, template)
        if key not in seen_templates:
            seen_templates.add(key)
            inventory.append(QuestionTemplate(relation, template))
        question = instantiate(QuestionTemplate(relation, template), entity)
        answers = answer_field.split("|") if answer_field else []
        # structural, so checked before any answer is looked for
        if "" in answers:
            raise ParseError(f"line {lineno}: empty answer string")
        spans: list[Span] = []
        seen_spans: set[tuple[int, str]] = set()
        bad = None
        for answer in answers:
            start = sentence.find(answer)
            if start < 0:
                bad = f"line {lineno}: answer {answer!r} not found in sentence"
                break
            if (start, answer) in seen_spans:
                continue
            seen_spans.add((start, answer))
            spans.append(Span(start, answer))
        if bad is not None:
            report.skipped += 1
            report.note(bad)
            continue
        instances.append(
            Instance(
                id=f"uwre-{split}-{lineno:06d}",
                question=question,
                context=sentence,
                answers=tuple(spans),
                relation=relation,
                subject_entity=entity,
                origin="uwre_positive" if spans else "uwre_negative",
                split=split,
            )
        )
    dataset, report = report.finish(Dataset(name=f"uwre-{split}"), instances)
    return dataset, inventory, report

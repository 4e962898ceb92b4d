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
)
from .templates import PLACEHOLDER, instantiate


def _check_split(split: str) -> None:
    if split not in SPLITS:
        raise ParseError(f"unknown split {split!r}, expected one of {list(SPLITS)}")


def _expect_list(obj: Any, key: str, path: str) -> list:
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object")
    if key not in obj:
        raise ParseError(f"{path}: missing key {key!r}")
    value = obj[key]
    if not isinstance(value, list):
        raise ParseError(f"{path}.{key}: expected an array")
    return value


def _expect_str(obj: dict, key: str, path: str) -> str:
    if key not in obj:
        raise ParseError(f"{path}: missing key {key!r}")
    value = obj[key]
    if not isinstance(value, str):
        raise ParseError(f"{path}.{key}: expected a string")
    return value


def ingest_squad(document: Any, split: str) -> tuple[Dataset, TransformReport]:
    """Convert a parsed SQuAD v1.1 document into canonical positive instances.

    Gold answers are deduplicated on (start, text) and validated against the
    context; a question whose answers do not all check out is dropped and
    recorded in the report rather than aborting the run.
    """
    _check_split(split)
    report = TransformReport(operation="ingest-squad", parameters={"split": split})
    instances: list[Instance] = []
    for d_i, article in enumerate(_expect_list(document, "data", "$")):
        paragraphs = _expect_list(article, "paragraphs", f"$.data[{d_i}]")
        for p_i, paragraph in enumerate(paragraphs):
            path = f"$.data[{d_i}].paragraphs[{p_i}]"
            if not isinstance(paragraph, dict):
                raise ParseError(f"{path}: expected a JSON object")
            context = _expect_str(paragraph, "context", path)
            for q_i, qa in enumerate(_expect_list(paragraph, "qas", path)):
                qa_path = f"{path}.qas[{q_i}]"
                if not isinstance(qa, dict):
                    raise ParseError(f"{qa_path}: expected a JSON object")
                qa_id = _expect_str(qa, "id", qa_path)
                question = _expect_str(qa, "question", qa_path)
                answers_raw = _expect_list(qa, "answers", qa_path)
                report.input_count += 1
                spans: list[Span] = []
                seen: set[tuple[int, str]] = set()
                bad = None
                for a_i, answer in enumerate(answers_raw):
                    a_path = f"{qa_path}.answers[{a_i}]"
                    if not isinstance(answer, dict):
                        raise ParseError(f"{a_path}: expected a JSON object")
                    text = _expect_str(answer, "text", a_path)
                    if "answer_start" not in answer:
                        raise ParseError(f"{a_path}: missing key 'answer_start'")
                    start = answer["answer_start"]
                    if isinstance(start, bool) or not isinstance(start, int):
                        raise ParseError(f"{a_path}.answer_start: expected an integer")
                    if (start, text) in seen:
                        continue
                    seen.add((start, text))
                    if not text or start < 0 or context[start : start + len(text)] != text:
                        bad = f"{qa_id}: answer {text!r} does not match context at offset {start}"
                        break
                    spans.append(Span(start, text))
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
    report.output_count = len(instances)
    dataset = Dataset(name=f"squad-{split}").derive(instances, "ingest-squad", {"split": split})
    return dataset, report


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
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ParseError(f"line {lineno}: expected 5 tab-separated fields, got {len(parts)}")
        relation, template, entity, sentence, answer_field = parts
        for label, value in (
            ("relation", relation),
            ("template", template),
            ("entity", entity),
            ("sentence", sentence),
        ):
            if not value:
                raise ParseError(f"line {lineno}: empty {label} field")
        if template.count(PLACEHOLDER) != 1:
            raise ParseError(
                f"line {lineno}: template must contain {PLACEHOLDER!r} exactly once: {template!r}"
            )
        report.input_count += 1
        key = (relation, template)
        if key not in seen_templates:
            seen_templates.add(key)
            inventory.append(QuestionTemplate(relation, template))
        question = instantiate(QuestionTemplate(relation, template), entity)
        answers = answer_field.split("|") if answer_field else []
        spans: list[Span] = []
        seen_spans: set[tuple[int, str]] = set()
        bad = None
        for answer in answers:
            if not answer:
                raise ParseError(f"line {lineno}: empty answer string")
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
    report.output_count = len(instances)
    dataset = Dataset(name=f"uwre-{split}").derive(instances, "ingest-uwre", {"split": split})
    return dataset, inventory, report

"""Question templates: turn a KB relation query into a natural-language question.

A template pattern holds the literal placeholder ``XXX`` exactly once; the
subject entity is substituted at that position. Template files are TSV with
two columns, ``relation<TAB>pattern``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from .model import DataError, QuestionTemplate, atomic_output, read_lines, tsv_rows

PLACEHOLDER = "XXX"


def placeholder_problem(pattern: str) -> str | None:
    """What is wrong with ``pattern`` as a template, or None if it holds the placeholder exactly once."""
    if pattern.count(PLACEHOLDER) != 1:
        return f"must contain {PLACEHOLDER!r} exactly once: {pattern!r}"
    return None


def instantiate(template: QuestionTemplate, entity: str) -> str:
    """Substitute ``entity`` into the template's placeholder.

    The substitution is purely positional; the entity string is inserted
    verbatim, even when it contains the placeholder text itself.
    """
    if problem := placeholder_problem(template.pattern):
        raise DataError(f"template pattern {problem}")
    return template.pattern.replace(PLACEHOLDER, entity)


def load_templates(path: str | Path) -> tuple[list[QuestionTemplate], list[str]]:
    """Read a template TSV, returning (templates, rejected row descriptions).

    Rows whose pattern does not contain the placeholder exactly once are
    rejected, not fatal. Duplicate (relation, pattern) rows are dropped,
    keeping the first. Rows that are not two tab-separated fields are a
    parse error.
    """
    templates: list[QuestionTemplate] = []
    rejections: list[str] = []
    seen: set[tuple[str, str]] = set()
    for lineno, (relation, pattern) in tsv_rows(read_lines(path), 2, f"{path}: "):
        if not relation:
            rejections.append(f"line {lineno}: empty relation")
            continue
        if problem := placeholder_problem(pattern):
            rejections.append(f"line {lineno}: pattern {problem}")
            continue
        key = (relation, pattern)
        if key in seen:
            continue
        seen.add(key)
        templates.append(QuestionTemplate(relation, pattern))
    return templates, rejections


def save_templates(templates: Iterable[QuestionTemplate], path: str | Path) -> None:
    with atomic_output(path) as f:
        for t in templates:
            f.write(f"{t.relation}\t{t.pattern}\n")


def by_relation(templates: Sequence[QuestionTemplate]) -> dict[str, list[QuestionTemplate]]:
    """Group templates by relation, preserving file order within each group."""
    grouped: dict[str, list[QuestionTemplate]] = {}
    for t in templates:
        grouped.setdefault(t.relation, []).append(t)
    return grouped

"""Dataset transforms: sentence segmentation, negativization, dummy-token prefixing.

The sentence segmenter is rule-based and deterministic so that the same
context always yields the same boundaries. The rule: a sentence closes
after ``.``, ``?`` or ``!`` when the terminator ends the text, or when it
is followed by whitespace and then an uppercase letter. A split after
``.`` is suppressed when the token ending at the period is a known
abbreviation or a run of single-letter initials ("Mr.", "U.S.", "J.R.").
Boundaries partition the context: they are ordered, non-overlapping, and
together cover every non-whitespace character.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .model import (DEFAULT_NO_ANSWER_TOKEN, Dataset, DataError, Instance, Span, TransformReport,
                    no_answer_sentinel)

# Sentence-closing candidates: a terminator that ends the text or is followed
# by whitespace (``\s`` is exactly ``str.isspace``), taken with that
# whitespace. No other terminator can close a sentence under the rule, so the
# scan skips them.
_CANDIDATE_RE = re.compile(r"[.!?](?:\s+|\Z)")

# Lowercased tokens (including the trailing period) that never end a sentence.
ABBREVIATIONS = frozenset(
    {
        "mr.", "mrs.", "ms.", "dr.", "prof.", "st.", "jr.", "sr.", "rev.",
        "hon.", "gen.", "col.", "lt.", "sgt.", "capt.", "no.", "fig.",
        "vs.", "etc.", "e.g.", "i.e.", "inc.", "ltd.", "co.", "corp.",
        "u.s.", "u.k.", "u.n.", "a.m.", "p.m.",
        "jan.", "feb.", "mar.", "apr.", "jun.", "jul.", "aug.", "sep.",
        "sept.", "oct.", "nov.", "dec.",
    }
)

_INITIALS_RE = re.compile(r"(?:[^\W\d_]\.)+\Z", re.UNICODE)


class SentenceBoundary(NamedTuple):
    """Half-open code-point range [start, end) of one sentence in a context."""

    start: int
    end: int


def _skip_whitespace(text: str, i: int) -> int:
    n = len(text)
    while i < n and text[i].isspace():
        i += 1
    return i


def _suppressed(token: str) -> bool:
    return token.lower() in ABBREVIATIONS or bool(_INITIALS_RE.fullmatch(token))


def segment_sentences(context: str) -> list[SentenceBoundary]:
    """Split a context into sentence boundaries under the frozen rule above."""
    n = len(context)
    bounds: list[tuple[int, int]] = []
    start = _skip_whitespace(context, 0)
    previous = 0  # end of the previous candidate; whitespace follows it
    for match in _CANDIDATE_RE.finditer(context):
        end = match.start() + 1
        if end == n:
            bounds.append((start, end))
            start = n
            break
        follower = match.end()
        # The token ending at a period is the last whitespace-free run since
        # the previous candidate: one rsplit, no walk back.
        if (
            follower < n
            and context[follower].isupper()
            and not (
                context[end - 1] == "."
                and _suppressed(context[previous:end].rsplit(None, 1)[-1])
            )
        ):
            bounds.append((start, end))
            start = follower
        previous = end
    if start < n:
        end = n
        while end > start and context[end - 1].isspace():
            end -= 1
        if end > start:
            bounds.append((start, end))
    return [SentenceBoundary(s, e) for s, e in bounds]


def _overlaps(boundary: SentenceBoundary, span: Span) -> bool:
    return span.start < boundary.end and boundary.start < span.start + len(span.text)


def negativize_squad(
    dataset: Dataset, keep_positives: bool = False
) -> tuple[Dataset, TransformReport]:
    """Build negative instances by deleting every sentence that touches a gold span.

    Surviving sentences are joined with a single space. A negative keeps its
    source's question and metadata, gets the id suffix ``-neg``, an empty
    answers list, and origin ``squad_negative``. A source whose sentences
    are all removed yields no negative; it is skipped and counted. With
    ``keep_positives`` the source instances are emitted too, each directly
    before its negative.
    """
    out: list[Instance] = []
    report = TransformReport(operation="negativize", input_count=len(dataset),
                             parameters={"keep_positives": keep_positives})
    for inst in dataset:
        if not inst.answers:
            raise DataError(
                f"negativize requires positive instances; {inst.id!r} has no answers"
            )
        if keep_positives:
            out.append(inst)
        bounds = segment_sentences(inst.context)
        survivors = [
            b for b in bounds if not any(_overlaps(b, span) for span in inst.answers)
        ]
        if not survivors:
            report.skipped += 1
            report.note(f"{inst.id}: every sentence overlaps a gold span")
            continue
        context = " ".join(inst.context[b.start : b.end] for b in survivors)
        out.append(
            inst._replace(
                id=inst.id + "-neg",
                context=context,
                answers=(),
                origin="squad_negative",
            )
        )
    report.output_count = len(out)
    return dataset.derive(out, report.operation, {**report.parameters, "skipped": report.skipped}), report


def insert_no_answer_token(
    dataset: Dataset, token: str = DEFAULT_NO_ANSWER_TOKEN
) -> tuple[Dataset, TransformReport]:
    """Prefix every context with a dummy token that stands for "no answer".

    Positive spans shift right by ``len(token) + 1``; every negative gains
    exactly one gold span, the token at offset 0. The returned dataset
    records the token so scoring can map a predicted token back to a
    no-answer. Adapting twice is refused.
    """
    if not token or any(ch.isspace() for ch in token):
        raise DataError("no-answer token must be non-empty and contain no whitespace")
    if dataset.no_answer_token is not None:
        raise DataError(
            f"dataset is already adapted with token {dataset.no_answer_token!r}"
        )
    prefix = token + " "
    shift = len(prefix)
    report = TransformReport(operation="adapt-noanswer", input_count=len(dataset),
                             parameters={"token": token})
    out: list[Instance] = []
    for inst in dataset:
        if inst.context == token or inst.context.startswith(prefix):
            raise DataError(
                f"{inst.id!r}: context already starts with {token!r}; refusing a second adaptation"
            )
        if inst.answers:
            answers = tuple(Span(s.start + shift, s.text) for s in inst.answers)
            report.extra["positives_shifted"] = report.extra.get("positives_shifted", 0) + 1
        else:
            answers = no_answer_sentinel(token)
            report.extra["negatives_marked"] = report.extra.get("negatives_marked", 0) + 1
        out.append(inst._replace(context=prefix + inst.context, answers=answers))
    report.output_count = len(out)
    return dataset.derive(out, report.operation, report.parameters, no_answer_token=token), report


def strip_no_answer_token(dataset: Dataset) -> tuple[Dataset, TransformReport]:
    """Undo :func:`insert_no_answer_token`: drop the prefix, unshift the spans."""
    token = dataset.no_answer_token
    if token is None:
        raise DataError("dataset carries no no-answer adaptation to strip")
    prefix = token + " "
    shift = len(prefix)
    out: list[Instance] = []
    for inst in dataset:
        if not inst.context.startswith(prefix):
            raise DataError(f"{inst.id!r}: context does not start with {token!r}")
        if inst.answers == no_answer_sentinel(token):
            answers: tuple[Span, ...] = ()
        else:
            answers = tuple(Span(s.start - shift, s.text) for s in inst.answers)
        out.append(inst._replace(context=inst.context[shift:], answers=answers))
    report = TransformReport(operation="strip-noanswer", input_count=len(out), output_count=len(out),
                             parameters={"token": token})
    return dataset.derive(out, report.operation, report.parameters, no_answer_token=None), report

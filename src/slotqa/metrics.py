"""Slot-filling scoring: precision over answered, recall over positives.

A correct no-answer on a negative instance contributes to neither
precision nor recall; answering a negative costs precision. Correctness of
an answered positive is normalized exact match against any gold span text.
Datasets adapted with a dummy no-answer token are scored transparently:
the token maps back to a no-answer on both the prediction side and the
gold side.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .model import MATCH_MODES, Dataset, DataError, Prediction, no_answer_sentinel


_ARTICLES_RE = re.compile(r"\b(a|an|the)\b")
_DROP_PUNCTUATION = str.maketrans("", "", string.punctuation)


def normalize_answer(s: str) -> str:
    """Lower text and remove punctuation, articles and extra whitespace."""
    return " ".join(_ARTICLES_RE.sub(" ", s.lower().translate(_DROP_PUNCTUATION)).split())


_COUNT_KEYS = ("positives", "negatives", "answered", "correct", "no_answer_predictions", "missing")


class EvalReport(NamedTuple):
    """Metric values plus the raw tallies they came from.

    Slot-filling scoring fills precision/recall/f1 and leaves accuracy
    None; challenge scoring fills accuracy only. ``to_dict`` drops the
    unused fields.
    """

    counts: dict
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    accuracy: float | None = None
    per_relation: dict | None = None

    def to_dict(self) -> dict:
        out: dict = {}
        for key in ("precision", "recall", "f1", "accuracy"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        out["counts"] = self.counts
        if self.per_relation is not None:
            out["per_relation"] = {
                rel: rep.to_dict() for rel, rep in self.per_relation.items()
            }
        return out

    def to_tsv(self) -> str:
        """One tab-separated line: precision, recall, f1, accuracy, then counts."""
        cells = []
        for key in ("precision", "recall", "f1", "accuracy"):
            value = getattr(self, key)
            cells.append("" if value is None else repr(value))
        cells.extend(str(self.counts.get(key, 0)) for key in _COUNT_KEYS)
        return "\t".join(cells)


def _prediction_map(
    dataset: Dataset, predictions: Iterable[Prediction]
) -> dict[str, Prediction]:
    known = {inst.id for inst in dataset}
    by_id: dict[str, Prediction] = {}
    duplicates = []
    unknown = []
    for pred in predictions:
        if pred.instance_id in by_id:
            duplicates.append(pred.instance_id)
        by_id[pred.instance_id] = pred
        if pred.instance_id not in known:
            unknown.append(pred.instance_id)
    if duplicates:
        raise DataError(f"duplicate predictions for instance ids: {sorted(set(duplicates))[:10]}")
    if unknown:
        raise DataError(f"predictions for unknown instance ids: {sorted(unknown)[:10]}")
    return by_id


def _token_overlap_credit(prediction: str, golds: Sequence[str]) -> float:
    """Max token-level F1 of the prediction against any gold, after normalization."""
    pred_tokens = normalize_answer(prediction).split()
    best = 0.0
    for gold in golds:
        gold_tokens = normalize_answer(gold).split()
        if not pred_tokens or not gold_tokens:
            if pred_tokens == gold_tokens:
                best = max(best, 1.0)
            continue
        overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
        if overlap == 0:
            continue
        p = overlap / len(pred_tokens)
        r = overlap / len(gold_tokens)
        best = max(best, 2 * p * r / (p + r))
    return best


class _Tally:
    """Running counts over a group of instances; see ``_COUNT_KEYS``."""

    __slots__ = _COUNT_KEYS

    def __init__(self) -> None:
        self.positives = self.negatives = self.answered = self.no_answer_predictions = 0
        self.missing = 0
        self.correct = 0.0

    def add(self, positive: bool, answered: bool, credit: float, missing: bool) -> None:
        if positive:
            self.positives += 1
        else:
            self.negatives += 1
        if answered:
            self.answered += 1
            self.correct += credit
        else:
            self.no_answer_predictions += 1
        if missing:
            self.missing += 1

    def counts(self, match: str) -> dict:
        counts = {key: getattr(self, key) for key in _COUNT_KEYS}
        if match == "exact":
            counts["correct"] = int(self.correct)
        return counts

    def report(self, match: str) -> EvalReport:
        precision = self.correct / self.answered if self.answered else 0.0
        recall = self.correct / self.positives if self.positives else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        return EvalReport(precision=precision, recall=recall, f1=f1, counts=self.counts(match))


def _tally(
    dataset: Dataset, by_id: Mapping[str, Prediction], match: str
) -> tuple[_Tally, dict[str, _Tally]]:
    """Score every instance once, into the whole-dataset tally and its relation's.

    Credits are summed in instance order, overall and within each relation.
    """
    token = dataset.no_answer_token
    normalized_token = None if token is None else normalize_answer(token)
    sentinel = no_answer_sentinel(token)
    overall = _Tally()
    per_relation: dict[str, _Tally] = {}
    for inst in dataset:
        golds = () if inst.answers == sentinel else tuple(span.text for span in inst.answers)
        pred = by_id.get(inst.id)
        answer = None if pred is None else pred.answer
        normalized = None
        if answer is not None and token is not None:
            # a predicted dummy token is a no-answer
            normalized = normalize_answer(answer)
            if normalized == normalized_token:
                answer = None
        credit = 0.0
        if answer is not None and golds:
            if match == "exact":
                if normalized is None:
                    normalized = normalize_answer(answer)
                if any(normalize_answer(g) == normalized for g in golds):
                    credit = 1.0
            else:
                credit = _token_overlap_credit(answer, golds)
        outcome = (bool(golds), answer is not None, credit, pred is None)
        overall.add(*outcome)
        if inst.relation is not None:
            group = per_relation.get(inst.relation)
            if group is None:
                group = per_relation[inst.relation] = _Tally()
            group.add(*outcome)
    return overall, per_relation


def score_slot_filling(
    dataset: Dataset,
    predictions: Iterable[Prediction],
    match: str = "exact",
) -> EvalReport:
    """Score predictions against a dataset under slot-filling conventions.

    precision = correct / answered, recall = correct / positives, and
    f1 = 2PR / (P + R); an empty denominator yields 0.0. A missing
    prediction counts as a no-answer (tallied under ``missing``). ``match``
    is ``"exact"`` for normalized exact match (canonical) or ``"overlap"``
    for token-overlap partial credit. When any instance carries a relation,
    the report also breaks the same scores down per relation.
    """
    if match not in MATCH_MODES:
        raise DataError(f"unknown match mode {match!r}, expected {' or '.join(map(repr, MATCH_MODES))}")
    overall, per_relation = _tally(dataset, _prediction_map(dataset, predictions), match)
    report = overall.report(match)
    if per_relation:
        report = report._replace(per_relation={rel: tally.report(match) for rel, tally in per_relation.items()})
    return report


def score_challenge_accuracy(
    dataset: Dataset, predictions: Iterable[Prediction]
) -> EvalReport:
    """Fraction of instances predicted as no-answer, on an all-negative dataset.

    Every instance must be negative (after mapping any dummy-token gold
    back to empty); a positive instance is an error, because accuracy over
    no-answers is only meaningful on a purely unanswerable set. Missing
    predictions count as no-answers.
    """
    if len(dataset) == 0:
        raise DataError("cannot score an empty dataset")
    tally, _ = _tally(dataset, _prediction_map(dataset, predictions), "exact")
    if tally.positives:
        sentinel = no_answer_sentinel(dataset.no_answer_token)
        first = next(inst for inst in dataset if inst.answers and inst.answers != sentinel)
        raise DataError(
            f"challenge accuracy needs an all-negative dataset; {first.id!r} has answers"
        )
    return EvalReport(accuracy=tally.no_answer_predictions / len(dataset), counts=tally.counts("exact"))

"""Shared builders and independent oracles used across the test modules.

The oracles re-derive expected values with deliberately dumb code (per-char
scans, full enumeration) so the library is checked against something other
than itself.
"""

from __future__ import annotations

import json
import os
import random
import re
import string

from slotqa import Dataset, Instance, Prediction, Span
from slotqa.baseline import STOP_WORDS
from slotqa.transforms import ABBREVIATIONS, SentenceBoundary, segment_sentences


def make_instance(
    id="i0",
    question="Where was Obama born?",
    context="President Obama was born in Honolulu, Hawaii.",
    answers=((28, "Honolulu, Hawaii"),),
    origin=None,
    split="train",
    relation=None,
    subject_entity=None,
):
    spans = tuple(Span(start, text) for start, text in answers)
    if origin is None:
        origin = "squad_positive" if spans else "squad_negative"
    return Instance(
        id=id,
        question=question,
        context=context,
        answers=spans,
        relation=relation,
        subject_entity=subject_entity,
        origin=origin,
        split=split,
    )


def make_dataset(*instances, **kwargs):
    return Dataset(instances=tuple(instances), **kwargs)


def oracle_dumps_line(record):
    """The canonical line of an Instance or a Prediction, without its newline:
    ``json.dumps`` of a dict built one key at a time, in the README's order."""
    line = {}
    if isinstance(record, Prediction):
        line["id"] = record.instance_id
        line["answer"] = record.answer
    else:
        line["id"] = record.id
        line["question"] = record.question
        line["context"] = record.context
        line["answers"] = []
        for span in record.answers:
            line["answers"].append({"start": span.start, "text": span.text})
        line["relation"] = record.relation
        line["subject_entity"] = record.subject_entity
        line["origin"] = record.origin
        line["split"] = record.split
    return json.dumps(line, ensure_ascii=False)


def oracle_normalize_answer(s):
    """The answer normalizer as four closures, rebuilt on every call."""

    def remove_articles(text):
        return re.sub(r"\b(a|an|the)\b", " ", text)

    def white_space_fix(text):
        return " ".join(text.split())

    def remove_punc(text):
        exclude = set(string.punctuation)
        return "".join(ch for ch in text if ch not in exclude)

    def lower(text):
        return text.lower()

    return white_space_fix(remove_articles(remove_punc(lower(s))))


def tally_score(dataset, predictions):
    """Brute-force slot-filling tally, independent of the metrics module.

    Classifies every (instance, prediction) pair and derives precision and
    recall from the raw buckets.
    """
    by_id = {p.instance_id: p for p in predictions}
    token = dataset.no_answer_token
    true_positive = wrong_on_positive = answered_negative = 0
    ignored_no_answer = missed_positive = 0
    n_positives = 0
    for inst in dataset:
        golds = list(inst.answers)
        if token is not None and golds == [Span(0, token)]:
            golds = []
        pred = by_id.get(inst.id)
        answer = pred.answer if pred is not None else None
        if answer is not None and token is not None:
            if oracle_normalize_answer(answer) == oracle_normalize_answer(token):
                answer = None
        if golds:
            n_positives += 1
        if answer is None:
            if golds:
                missed_positive += 1
            else:
                ignored_no_answer += 1
            continue
        if not golds:
            answered_negative += 1
            continue
        if any(oracle_normalize_answer(answer) == oracle_normalize_answer(g.text) for g in golds):
            true_positive += 1
        else:
            wrong_on_positive += 1
    answered = true_positive + wrong_on_positive + answered_negative
    precision = true_positive / answered if answered else 0.0
    recall = true_positive / n_positives if n_positives else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def oracle_overlap_f1(prediction, golds):
    """Best token F1 of ``prediction`` against any gold, after normalization.

    The overlap is counted by striking each matched token from a list of the
    gold tokens, so a token counts as often as both sides hold it.
    """
    pred_tokens = oracle_normalize_answer(prediction).split()
    best = 0.0
    for gold in golds:
        gold_tokens = oracle_normalize_answer(gold).split()
        if not pred_tokens or not gold_tokens:
            if pred_tokens == gold_tokens:
                best = max(best, 1.0)
            continue
        unmatched = list(gold_tokens)
        overlap = 0
        for token in pred_tokens:
            if token in unmatched:
                unmatched.remove(token)
                overlap += 1
        if overlap:
            precision = overlap / len(pred_tokens)
            recall = overlap / len(gold_tokens)
            best = max(best, 2 * precision * recall / (precision + recall))
    return best


_WORD = re.compile(r"[^\W_]+", re.UNICODE)


def oracle_tokenize(text):
    """The tokenizer one match at a time: (lowered match, start, end)."""
    return [(m.group(0).lower(), m.start(), m.end()) for m in _WORD.finditer(text)]


_ORACLE_TERMINATORS = frozenset(".!?")
_ORACLE_INITIALS_RE = re.compile(r"(?:[^\W\d_]\.)+\Z", re.UNICODE)


def _oracle_skip_whitespace(text, i):
    n = len(text)
    while i < n and text[i].isspace():
        i += 1
    return i


def _oracle_suppressed(text, period_index):
    j = period_index
    while j > 0 and not text[j - 1].isspace():
        j -= 1
    token = text[j : period_index + 1]
    return token.lower() in ABBREVIATIONS or bool(_ORACLE_INITIALS_RE.fullmatch(token))


def oracle_segment_sentences(context):
    """The sentence rule as a per-character scan that visits every position."""
    n = len(context)
    bounds = []
    start = _oracle_skip_whitespace(context, 0)
    i = start
    while i < n and start < n:
        ch = context[i]
        if ch in _ORACLE_TERMINATORS:
            end = i + 1
            if end == n:
                bounds.append((start, end))
                start = n
                break
            follower = _oracle_skip_whitespace(context, end)
            if (
                follower > end
                and follower < n
                and context[follower].isupper()
                and not (ch == "." and _oracle_suppressed(context, i))
            ):
                bounds.append((start, end))
                start = follower
                i = follower
                continue
        i += 1
    if start < n:
        end = n
        while end > start and context[end - 1].isspace():
            end -= 1
        if end > start:
            bounds.append((start, end))
    return [SentenceBoundary(s, e) for s, e in bounds]


def oracle_best_span(instance, config, idf_table):
    """Exhaustive enumeration of the baseline scoring rule.

    Returns (score, char_start, char_end) of the best candidate under the
    documented rule, or None when no candidate exists.
    """
    tokens = oracle_tokenize(instance.context)
    q_tokens = [m.group(0).lower() for m in _WORD.finditer(instance.question)]
    q_all = set(q_tokens)
    if instance.subject_entity:
        q_all |= {m.group(0).lower() for m in _WORD.finditer(instance.subject_entity)}
    q_content = q_all - STOP_WORDS
    if not q_content:
        return None
    best = None
    for boundary in segment_sentences(instance.context):
        sentence = [t for t in tokens if t[1] >= boundary.start and t[2] <= boundary.end]
        types = {w for w, _, _ in sentence}
        matched = q_content & types
        if not matched:
            continue
        sentence_score = sum(idf_table.idf(w) for w in sorted(matched))
        n = len(sentence)
        for i in range(n):
            for j in range(i, min(i + config.max_span_tokens, n)):
                window = sentence[i : j + 1]
                if any(w in q_all for w, _, _ in window):
                    continue
                credit = sum(
                    idf_table.idf(w)
                    for w in sorted({w for w, _, _ in window} - STOP_WORDS)
                )
                adjacency = 0.0
                if i > 0 and sentence[i - 1][0] in q_content:
                    adjacency += 0.25 * idf_table.idf(sentence[i - 1][0])
                if j + 1 < n and sentence[j + 1][0] in q_content:
                    adjacency += 0.25 * idf_table.idf(sentence[j + 1][0])
                score = sentence_score + credit + adjacency
                start, end = window[0][1], window[-1][2]
                if (
                    best is None
                    or score > best[0]
                    or (score == best[0] and (start, end - start) < (best[1], best[2] - best[1]))
                ):
                    best = (score, start, end)
    return best


def char_level_survivors(context, spans):
    """Sentences that share no character position with any span, by per-char scan."""
    covered = set()
    for span in spans:
        covered.update(range(span.start, span.start + len(span.text)))
    survivors = []
    for b in segment_sentences(context):
        if not any(pos in covered for pos in range(b.start, b.end)):
            survivors.append(context[b.start : b.end])
    return survivors


def oracle_sample(population, k, seed):
    """Ascending indices of the seeded sample of size k from ``range(population)``.

    The sorted first k of one seeded shuffle of every index, so the samples
    under one seed nest across k and a k beyond the population takes all.
    """
    order = list(range(population))
    random.Random(seed).shuffle(order)
    return sorted(order[:k])


def record_forks(monkeypatch) -> list[int]:
    """Patch ``os.fork`` to record, in the returned list, the pid of every child forked."""
    pids, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids

"""A training-free lexical span extractor with a no-answer threshold.

The scoring rule is frozen so predictions are reproducible and can be
checked by exhaustive enumeration:

* Tokens are maximal runs of word characters (underscore excluded),
  lowercased, with their code-point offsets kept.
* Q_all is the set of question tokens plus the subject entity's tokens;
  Q_content is Q_all minus a fixed stop list (wh-words and function words).
* Only sentences sharing at least one Q_content token yield candidates.
* A candidate span is a contiguous token run inside one sentence, at most
  ``max_span_tokens`` long, containing no Q_all token. Question words and
  the substituted entity therefore never earn credit inside a span.
* score(span) = sum of idf over the Q_content tokens present in the
  span's sentence, plus the idf of each distinct non-stop token inside the
  span, plus 0.25 * idf for each immediate neighbour token (within the
  sentence) that is a Q_content token. The neighbour term prefers spans
  adjacent to question-term matches.
* The best-scoring span is the answer when its score reaches
  ``no_answer_threshold``; otherwise the prediction is no-answer. Ties go
  to the earlier start, then the shorter span.

idf(w) = ln((1 + N) / (1 + df(w))) + 1 over the instance contexts of a
dataset, so unseen words get the maximum rarity value and an empty corpus
scores every word 1.0. ``predict`` computes each weight once per sentence.

``predict_dataset`` makes one pass over each context's set of token strings:
it counts document frequencies and flags the instances whose context shares
a Q_content token. A sentence's tokens are a subset of its context's, so an
unflagged instance is no-answer without being tokenized or segmented. Only
flagged instances go to ``predict``, one context's tokens alive at a time.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate, chain
from typing import Mapping, NamedTuple

from .model import IDF_SOURCES, Dataset, DataError, Instance, Prediction
from .transforms import segment_sentences

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# Splitting on the captured token pattern alternates separators and tokens.
_SPLIT_RE = re.compile(f"({_TOKEN_RE.pattern})", re.UNICODE)

STOP_WORDS = frozenset(
    """
    who whom whose what which when where why how
    a an the this that these those there here it its
    is are was were be been being am do does did done
    has have had having can could will would shall should may might must
    of in on at by for with to from as into over under about between
    and or but not no nor so if than then that
    he she they them his her their
    """.split()
)


def tokenize(text: str) -> list[tuple[str, int, int]]:
    """Lowercased word tokens with their (start, end) code-point offsets.

    Tokens are matched on the original text and lowered one by one:
    lowering first would move boundaries ('İ' lowers to 'i' + U+0307).
    """
    return list(zip(*_token_columns(text)))


def _token_columns(text: str) -> tuple[list[str], list[int], list[int]]:
    """``tokenize(text)`` as three lists: words, starts and ends."""
    parts = _SPLIT_RE.split(text)  # separators and tokens alternate
    bounds = list(accumulate(map(len, parts)))
    return list(map(str.lower, parts[1::2])), bounds[0:-1:2], bounds[1::2]


# ASCII letters lowered and digits kept, every other byte a space: on ASCII
# text, the tokens are then what split() returns
_ASCII_TOKENS = bytes(
    c | 0x20 if chr(c).isalpha() else c if chr(c).isdigit() else 0x20 for c in range(128)
) + b" " * 128


def _token_set(text: str) -> set[str]:
    """The distinct lowercased tokens of ``text``, without offsets."""
    if text.isascii():
        return set(text.encode().translate(_ASCII_TOKENS).decode().split())
    return set(map(str.lower, _TOKEN_RE.findall(text)))


def _question_terms(instance: Instance) -> tuple[set[str], set[str]]:
    """Q_all (question plus subject entity tokens) and Q_content."""
    q_all = _token_set(instance.question)
    if instance.subject_entity:
        q_all |= _token_set(instance.subject_entity)
    return q_all, q_all - STOP_WORDS


class BaselineConfig(NamedTuple):
    max_span_tokens: int = 8
    no_answer_threshold: float = 1.0
    idf_source: str = "self_corpus"

    def validate(self) -> None:
        if self.max_span_tokens < 1:
            raise DataError(f"max_span_tokens must be at least 1, got {self.max_span_tokens}")
        if not math.isfinite(self.no_answer_threshold):
            raise DataError(f"no_answer_threshold must be finite, got {self.no_answer_threshold}")
        if self.no_answer_threshold < 0:
            raise DataError(f"no_answer_threshold must be non-negative, got {self.no_answer_threshold}")
        if self.idf_source not in IDF_SOURCES:
            raise DataError(f"unknown idf_source {self.idf_source!r}")


class IdfTable(NamedTuple):
    """Document frequencies over a corpus; a table of no documents scores every word 1.0."""

    n_docs: int = 0
    doc_freq: Mapping[str, int] | None = None

    def idf(self, token: str) -> float:
        n_docs, doc_freq = self
        df = doc_freq.get(token, 0) if doc_freq else 0
        return math.log((1 + n_docs) / (1 + df)) + 1.0


def uniform_idf() -> IdfTable:
    return IdfTable(n_docs=0, doc_freq={})


def build_idf(dataset: Dataset) -> IdfTable:
    """Document frequencies where each instance's context is one document."""
    doc_freq: Counter[str] = Counter()
    for inst in dataset:
        doc_freq.update(_token_set(inst.context))
    return IdfTable(n_docs=len(dataset.instances), doc_freq=doc_freq)


def predict(instance: Instance, config: BaselineConfig, idf_table: IdfTable) -> Prediction:
    """Apply the frozen scoring rule to one instance."""
    config.validate()
    q_all, q_content = _question_terms(instance)
    if not q_content:
        return Prediction(instance.id, None)

    # Lists, not tuples: slices of every length would otherwise fill the
    # interpreter's per-length tuple free lists and raise peak RSS.
    words, starts, ends = _token_columns(instance.context)
    max_span = config.max_span_tokens
    # (score, char_start, char_end). Spans come in increasing (char_start, char_end)
    # order, so a strictly higher score alone keeps the earlier, then shorter, span.
    best = (-math.inf, 0, 0)
    for boundary in segment_sentences(instance.context):
        # Tokens with boundary.start <= start and end <= boundary.end.
        lo = bisect_left(starts, boundary.start)
        hi = bisect_right(ends, boundary.end)
        sentence_words = words[lo:hi]
        overlap = q_content.intersection(sentence_words)
        if not overlap:
            continue
        idf = {w: idf_table.idf(w) for w in set(sentence_words)}
        sentence_score = sum(idf[w] for w in sorted(overlap))
        n_tokens = len(sentence_words)
        # Per token, what it adds inside a span (None: no span holds it; a stop
        # word's 0.0 leaves a sum exactly as it was) and as a neighbour; bonus
        # is padded with a 0.0 on each side of the sentence.
        credits = [None if w in q_all else 0.0 if w in STOP_WORDS else idf[w] for w in sentence_words]
        bonus = [0.0, *[0.25 * idf[w] if w in q_content else 0.0 for w in sentence_words], 0.0]
        for a in range(n_tokens):
            if credits[a] is None:
                continue
            before, credit, seen = bonus[a], 0.0, set()
            for b in range(a, min(a + max_span, n_tokens)):
                token_credit, token = credits[b], sentence_words[b]
                if token_credit is None:
                    break
                if token not in seen:
                    credit += token_credit
                    seen.add(token)
                score = sentence_score + credit + (before + bonus[b + 2])
                if score > best[0]:
                    best = (score, starts[lo + a], ends[lo + b])
    if best[0] < config.no_answer_threshold:
        return Prediction(instance.id, None)
    return Prediction(instance.id, instance.context[best[1] : best[2]])


# Each share of flagged instances is at least this many. With 2 shared CPUs,
# this process predicting one share beside one forked child breaks even with
# a serial pass at about 250 UWRE+ instances (medians of 41 alternating
# predict_dataset calls, serial against split: UWRE+ 125 flagged 5.7 against
# 7.0 ms, 250 11.1 against 11.2, 500 23.0 against 18.8; bench-like SQuAD 250
# 48.4 against 33.1, 1,000 192.4 against 123.8). A share is twice the cheaper
# set's break-even share, a margin for a busy machine: one run here read
# split SQuAD slower up to 1,000 flagged, each process at half speed.
_FORK_MIN_FLAGGED = 250


def predict_dataset(
    dataset: Dataset, config: BaselineConfig, idf_table: IdfTable | None = None
) -> list[Prediction]:
    """``[predict(i, config, table) for i in dataset]``, where ``table`` is
    ``idf_table`` or else the one ``config.idf_source`` names.

    The survey runs in this process. The flagged instances are then split
    into at most one contiguous chunk per available CPU, each of at least
    ``_FORK_MIN_FLAGGED``, for :func:`~slotqa.parallel.fork_map`: this
    process predicts the first while forked children, which inherit the
    table, predict the rest and send back only their answers.
    """
    from .parallel import fork_map, shares

    config.validate()
    instances = dataset.instances
    count_df = idf_table is None and config.idf_source == "self_corpus"
    doc_freq: Counter[str] = Counter()
    answerable = bytearray(len(instances))
    for i, inst in enumerate(instances):
        context_words = _token_set(inst.context)
        if count_df:
            doc_freq.update(context_words)
        if not context_words.isdisjoint(_question_terms(inst)[1]):
            answerable[i] = 1
    if idf_table is None:
        idf_table = IdfTable(n_docs=len(instances), doc_freq=doc_freq) if count_df else uniform_idf()
    flagged = [inst for inst, flag in zip(instances, answerable) if flag]
    parts = shares(len(flagged), _FORK_MIN_FLAGGED)
    chunks = [flagged[len(flagged) * k // parts : len(flagged) * (k + 1) // parts] for k in range(parts)]
    answers = chain.from_iterable(
        fork_map(lambda chunk: [predict(inst, config, idf_table).answer for inst in chunk], chunks)
    )
    return [Prediction(inst.id, next(answers) if flag else None) for inst, flag in zip(instances, answerable)]

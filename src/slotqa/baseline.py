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
scores every word 1.0. An ``IdfTable`` computes each word's weight once.

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
from itertools import accumulate
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


def _token_set(text: str) -> set[str]:
    """The distinct lowercased tokens of ``text``, without offsets."""
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

    def to_dict(self) -> dict:
        return self._asdict()


class IdfTable:
    """Document frequencies over a corpus; a table of no documents scores every word 1.0.

    Each word's weight is cached on first use; the cache is not part of the value.
    """

    __slots__ = ("n_docs", "doc_freq", "_weights")

    def __init__(self, n_docs: int = 0, doc_freq: Mapping[str, int] | None = None) -> None:
        self.n_docs, self.doc_freq, self._weights = n_docs, doc_freq, {}

    def __eq__(self, other: object) -> bool:
        if type(other) is not IdfTable:
            return NotImplemented
        return (self.n_docs, self.doc_freq) == (other.n_docs, other.doc_freq)

    def __repr__(self) -> str:
        return f"IdfTable(n_docs={self.n_docs!r}, doc_freq={self.doc_freq!r})"

    def idf(self, token: str) -> float:
        weight = self._weights.get(token)
        if weight is None:
            df = self.doc_freq.get(token, 0) if self.doc_freq else 0
            weight = math.log((1 + self.n_docs) / (1 + df)) + 1.0
            self._weights[token] = weight
        return weight


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
    best: tuple[float, int, int] | None = None  # (score, char_start, char_end)
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
        # Maximal runs [run_start, run_end) of tokens outside q_all; spans
        # never contain question terms.
        runs: list[tuple[int, int]] = []
        run_start = None
        for pos, token in enumerate(sentence_words):
            if token in q_all:
                if run_start is not None:
                    runs.append((run_start, pos))
                    run_start = None
            elif run_start is None:
                run_start = pos
        if run_start is not None:
            runs.append((run_start, n_tokens))
        for run_start, run_end in runs:
            for a in range(run_start, run_end):
                credit = 0.0
                seen: set[str] = set()
                before = a - 1
                if before >= 0 and sentence_words[before] in q_content:
                    before_adjacency = 0.25 * idf[sentence_words[before]]
                else:
                    before_adjacency = 0.0
                char_start = starts[lo + a]
                for b in range(a, min(a + max_span, run_end)):
                    token = sentence_words[b]
                    if token not in seen and token not in STOP_WORDS:
                        credit += idf[token]
                        seen.add(token)
                    adjacency = before_adjacency
                    after = b + 1
                    if after < n_tokens and sentence_words[after] in q_content:
                        adjacency += 0.25 * idf[sentence_words[after]]
                    score = sentence_score + credit + adjacency
                    char_end = ends[lo + b]
                    if (
                        best is None
                        or score > best[0]
                        or (score == best[0] and char_start < best[1])
                        or (score == best[0] and char_start == best[1] and char_end < best[2])
                    ):
                        best = (score, char_start, char_end)
    if best is None or best[0] < config.no_answer_threshold:
        return Prediction(instance.id, None)
    return Prediction(instance.id, instance.context[best[1] : best[2]])


def predict_dataset(
    dataset: Dataset, config: BaselineConfig, idf_table: IdfTable | None = None
) -> list[Prediction]:
    """``[predict(i, config, table) for i in dataset]``, where ``table`` is
    ``idf_table`` or else the one ``config.idf_source`` names."""
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
    return [
        predict(inst, config, idf_table) if flag else Prediction(inst.id, None)
        for inst, flag in zip(instances, answerable)
    ]

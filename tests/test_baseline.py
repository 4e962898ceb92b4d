import math
import os
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from slotqa import (
    BaselineConfig,
    DataError,
    IdfTable,
    build_idf,
    predict,
    predict_dataset,
    uniform_idf,
)
from slotqa import baseline, parallel
from slotqa.baseline import STOP_WORDS, tokenize

from helpers import make_dataset, make_instance, oracle_best_span, oracle_tokenize, record_forks

FIG_CONTEXT = "President Obama was born in Honolulu, Hawaii."


def fig_instance(**kw):
    return make_instance(context=FIG_CONTEXT, answers=((28, "Honolulu, Hawaii"),), **kw)


def test_tokenize_offsets():
    assert tokenize("Hello, world!") == [("hello", 0, 5), ("world", 7, 12)]
    assert tokenize("") == []
    assert tokenize("under_score") == [("under", 0, 5), ("score", 6, 11)]
    # Each token is lowered on its own: 'İ'.lower() is 'i' + U+0307, and a
    # final sigma is judged within the token, not across the apostrophe.
    assert tokenize("İ") == [("i\u0307", 0, 1)]
    assert tokenize("ΑΣ'Β") == [("ας", 0, 2), ("β", 3, 4)]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "_",
        "__a__b_",
        "0123 45x6",
        "İ",
        "İstanbul İİ",
        "ΑΣ'Β",
        "ΟΔΟΣ. ΟΔΟΣ",
        "ǅemal ﬁne ß",
        "a\u0307b",
        " lead and trail ",
    ],
)
def test_tokenize_matches_finditer_oracle_fixed(text):
    assert tokenize(text) == oracle_tokenize(text)


@settings(max_examples=500)
@given(st.text(max_size=300))
def test_tokenize_matches_finditer_oracle(text):
    assert tokenize(text) == oracle_tokenize(text)


@settings(max_examples=500)
@given(st.text(alphabet=st.characters(max_codepoint=127), max_size=300))
def test_ascii_token_sets_equal_the_regex_token_sets(text):
    # every ASCII code point, so "_", digits and control characters too
    assert baseline._token_set(text) == set(map(str.lower, baseline._TOKEN_RE.findall(text)))
    assert baseline._token_set(text) == {word for word, _, _ in oracle_tokenize(text)}


def test_config_validation():
    with pytest.raises(DataError):
        BaselineConfig(max_span_tokens=0).validate()
    for threshold in (-0.5, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DataError):
            BaselineConfig(no_answer_threshold=threshold).validate()
    with pytest.raises(DataError):
        BaselineConfig(idf_source="pretrained").validate()
    BaselineConfig().validate()


def test_config_dict_keeps_the_field_order():
    # predict-baseline records this dict in its sidecar, so the order is part of the bytes
    assert list(BaselineConfig()._asdict().items()) == [
        ("max_span_tokens", 8), ("no_answer_threshold", 1.0), ("idf_source", "self_corpus"),
    ]


def test_idf_formula():
    corpus = make_dataset(make_instance(context="a b b"))
    table = build_idf(corpus)
    # df counts documents, not occurrences
    assert table.idf("b") == math.log(2 / 2) + 1 == 1.0
    assert table.idf("a") == 1.0
    assert table.idf("unseen") == math.log(2 / 1) + 1


def test_an_idf_table_is_a_value():
    corpus = make_dataset(
        make_instance(id="d0", context="apple banana"),
        make_instance(id="d1", context="apple cherry"),
    )
    table = build_idf(corpus)
    fresh = build_idf(corpus)
    # df 2, df 1 and unseen, each asked twice: the weight is the formula's
    for word, df in [("apple", 2), ("banana", 1), ("unseen", 0)] * 2:
        assert table.idf(word) == math.log((1 + 2) / (1 + df)) + 1.0
    assert table == fresh
    assert table == IdfTable(2, table.doc_freq) == (2, table.doc_freq)
    assert repr(table) == repr(fresh)
    assert repr(table) == f"IdfTable(n_docs=2, doc_freq={table.doc_freq!r})"
    assert table != IdfTable(n_docs=3, doc_freq=table.doc_freq)
    assert uniform_idf().idf("x") == uniform_idf().idf("x") == 1.0
    assert uniform_idf() == IdfTable(n_docs=0, doc_freq={})
    with pytest.raises(AttributeError):
        table.n_docs = 3
    with pytest.raises(AttributeError):
        table.doc_freq = {}


def test_equal_idf_tables_give_equal_weights_after_their_mapping_changes():
    doc_freq = {"x": 9}
    asked, fresh = IdfTable(9, doc_freq), IdfTable(9, doc_freq)
    assert asked.idf("x") == 1.0
    doc_freq["x"] = 0  # no weight asked before outlives the mapping it was read from
    assert asked == fresh
    assert asked.idf("x") == fresh.idf("x") == math.log(10 / 1) + 1.0


@given(st.text())
def test_uniform_idf_is_a_table_of_no_documents(word):
    assert uniform_idf().idf(word) == IdfTable(n_docs=0, doc_freq={}).idf(word) == 1.0


def test_idf_empty_corpus_and_uniform():
    assert build_idf(make_dataset()).idf("anything") == 1.0
    assert uniform_idf().idf("anything") == 1.0


def test_idf_rarer_scores_higher():
    corpus = make_dataset(
        make_instance(id="d0", context="apple banana"),
        make_instance(id="d1", context="apple cherry"),
        make_instance(id="d2", context="apple durian"),
    )
    table = build_idf(corpus)
    assert table.idf("banana") > table.idf("apple")
    assert table.idf("unseen") > table.idf("banana")


def test_predict_fig_example_overlaps_gold():
    pred = predict(fig_instance(), BaselineConfig(no_answer_threshold=0.5), uniform_idf())
    assert pred.answer == "in Honolulu, Hawaii"


def test_predict_matches_enumeration_uniform_idf():
    config = BaselineConfig(no_answer_threshold=0.0)
    table = uniform_idf()
    cases = [
        fig_instance(),
        make_instance(
            id="i1",
            question="Who employs Jo Bloggs?",
            context="Jo Bloggs works for Acme Corp. The office cat sleeps all day.",
            answers=((20, "Acme Corp"),),
            subject_entity="Jo Bloggs",
        ),
        make_instance(
            id="i2",
            question="Where was Obama born?",
            context="NoAnswerFound President Obama was born in Honolulu, Hawaii.",
            answers=((42, "Honolulu, Hawaii"),),
        ),
        make_instance(
            id="i3",
            question="What is qq?",
            context="The qq item. More qq text follows here.",
            answers=((7, "item"),),
        ),
    ]
    for inst in cases:
        best = oracle_best_span(inst, config, table)
        pred = predict(inst, config, table)
        assert best is not None
        assert pred.answer == inst.context[best[1] : best[2]]


def test_predict_matches_enumeration_self_corpus_text():
    instances = [
        make_instance(
            id=f"p{i}",
            question=f"Where was Person{i:02d} born?",
            context=f"Person{i:02d} was born City{i:02d}. The weather stayed calm that week.",
            answers=((18, f"City{i:02d}"),),
            subject_entity=f"Person{i:02d}",
        )
        for i in range(6)
    ]
    ds = make_dataset(*instances)
    table = build_idf(ds)
    config = BaselineConfig(no_answer_threshold=0.0)
    for inst in ds:
        best = oracle_best_span(inst, config, table)
        pred = predict(inst, config, table)
        assert pred.answer == inst.context[best[1] : best[2]]
        assert pred.answer == inst.answers[0].text


CONTEXT_PIECES = [
    "Obama", "born", "Hawaii", "the", "in", "was", "Dr.", "U.S.", "J.R.", "Mr.",
    "Acme", "acme", "Corp", "x_y", "3.5", "İ", ".", "!", "?", ",", " ", "  ", "\n",
]


@settings(max_examples=300)
@given(
    context=st.lists(st.sampled_from(CONTEXT_PIECES), max_size=40).map(" ".join),
    question=st.lists(
        st.sampled_from(["who", "was", "Obama", "born", "acme", "Hawaii"]), max_size=4
    ).map(" ".join),
    max_span=st.integers(min_value=1, max_value=4),
)
def test_predict_matches_enumeration_on_random_contexts(context, question, max_span):
    # Uniform idf makes every score a multiple of 0.25, so the summation order
    # cannot matter and ties are exact.
    inst = make_instance(question=question, context=context, answers=())
    config = BaselineConfig(max_span_tokens=max_span, no_answer_threshold=0.0)
    best = oracle_best_span(inst, config, uniform_idf())
    expected = None if best is None else context[best[1] : best[2]]
    assert predict(inst, config, uniform_idf()).answer == expected


def test_threshold_above_best_score_means_no_answer():
    inst = fig_instance()
    table = uniform_idf()
    best = oracle_best_span(inst, BaselineConfig(no_answer_threshold=0.0), table)
    high = BaselineConfig(no_answer_threshold=best[0] + 0.001)
    assert predict(inst, high, table).answer is None
    at = BaselineConfig(no_answer_threshold=best[0])
    assert predict(inst, at, table).answer is not None


def test_no_shared_content_words_means_no_answer():
    inst = make_instance(
        question="Where was Obama born?",
        context="The weather is nice today.",
        answers=(),
        origin="squad_negative",
    )
    pred = predict(inst, BaselineConfig(no_answer_threshold=0.0), uniform_idf())
    assert pred.answer is None


def test_empty_or_stopword_question_means_no_answer():
    config = BaselineConfig(no_answer_threshold=0.0)
    table = uniform_idf()
    empty = make_instance(question="", answers=(), origin="squad_negative")
    assert predict(empty, config, table).answer is None
    stops = make_instance(question="Who is he?", answers=(), origin="squad_negative")
    assert predict(stops, config, table).answer is None


def test_tie_breaks_earlier_then_shorter():
    inst = make_instance(
        question="What is qq?",
        context="qq aa. qq bb.",
        answers=((3, "aa"),),
    )
    pred = predict(inst, BaselineConfig(no_answer_threshold=0.0), uniform_idf())
    assert pred.answer == "aa"


def test_span_length_cap():
    inst = make_instance(
        question="Describe zzz now",
        context="zzz alpha beta gamma delta.",
        answers=((4, "alpha"),),
    )
    table = uniform_idf()
    capped = predict(inst, BaselineConfig(max_span_tokens=2, no_answer_threshold=0.0), table)
    assert capped.answer == "alpha beta"
    wide = predict(inst, BaselineConfig(max_span_tokens=8, no_answer_threshold=0.0), table)
    assert wide.answer == "alpha beta gamma delta"


def test_question_terms_never_inside_spans():
    inst = make_instance(
        question="Where was Obama born?",
        context="Friends met Obama near the lighthouse pier.",
        answers=((27, "lighthouse"),),
    )
    pred = predict(inst, BaselineConfig(no_answer_threshold=0.0), uniform_idf())
    assert pred.answer is not None
    assert "obama" not in pred.answer.lower()


def test_threshold_monotonicity():
    instances = [
        fig_instance(id="a"),
        make_instance(
            id="b",
            question="Who employs Jo?",
            context="Jo works for Acme Corp.",
            answers=((13, "Acme Corp"),),
        ),
        make_instance(
            id="c",
            question="Where was Obama born?",
            context="The weather is nice today.",
            answers=(),
            origin="squad_negative",
        ),
    ]
    ds = make_dataset(*instances)
    table = build_idf(ds)
    previous_answered = None
    for threshold in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
        config = BaselineConfig(no_answer_threshold=threshold)
        answered = {
            p.instance_id
            for p in predict_dataset(ds, config, table)
            if p.answer is not None
        }
        if previous_answered is not None:
            assert answered <= previous_answered
        previous_answered = answered


def test_predict_dataset_builds_table_from_config():
    ds = make_dataset(fig_instance())
    by_source = predict_dataset(ds, BaselineConfig(idf_source="uniform", no_answer_threshold=0.5))
    explicit = predict_dataset(ds, BaselineConfig(no_answer_threshold=0.5), uniform_idf())
    assert by_source == explicit


def test_predict_dataset_is_deterministic():
    rng = random.Random(8)
    words = ["ember", "quartz", "violet", "harbor", "maple", "stone"]
    instances = []
    for i in range(12):
        rng.shuffle(words)
        context = f"Topic{i} involves {words[0]} {words[1]}. Nothing else matters."
        instances.append(
            make_instance(
                id=f"r{i}",
                question=f"What does Topic{i} involve?",
                context=context,
                answers=((context.index(words[0]), words[0]),),
            )
        )
    ds = make_dataset(*instances)
    config = BaselineConfig()
    assert predict_dataset(ds, config) == predict_dataset(ds, config)


def test_stop_word_list_is_lowercase_and_nonempty():
    assert STOP_WORDS
    assert all(w == w.lower() for w in STOP_WORDS)


# Pieces that tokenize specially ('İ' lowers to two code points, 'ΑΣ'Β' to
# "ας" and "β"), stop words, and words no question uses ("quartz").
DATASET_CONTEXT_PIECES = [
    "Obama", "born", "Hawaii", "the", "in", "was", "İ", "ΑΣ'Β", "Dr.", "U.S.",
    "quartz", "Acme", ".", "?", ",", " ", "\n",
]
DATASET_QUESTION_PIECES = ["who", "was", "is", "the", "Obama", "born", "İ", "ας", "zebra"]


def _datasets():
    fields = st.tuples(
        st.lists(st.sampled_from(DATASET_CONTEXT_PIECES), max_size=20).map(" ".join),
        st.lists(st.sampled_from(DATASET_QUESTION_PIECES), max_size=3).map(" ".join),
        st.sampled_from([None, "", "Acme", "İ", "zebra", "the", "ΑΣ'Β"]),
    )
    return st.lists(fields, max_size=6).map(
        lambda rows: make_dataset(
            *(
                make_instance(id=f"i{n}", context=c, question=q, answers=(), subject_entity=e)
                for n, (c, q, e) in enumerate(rows)
            )
        )
    )


@settings(max_examples=300)
@given(
    ds=_datasets(),
    idf_source=st.sampled_from(["self_corpus", "uniform"]),
    supplied=st.sampled_from([None, "uniform", "own", "other"]),
    threshold=st.sampled_from([0.0, 1.0, 3.0]),
    max_span=st.integers(min_value=1, max_value=4),
)
def test_predict_dataset_equals_predict_per_instance(ds, idf_source, supplied, threshold, max_span):
    config = BaselineConfig(max_span_tokens=max_span, no_answer_threshold=threshold, idf_source=idf_source)
    other = make_dataset(make_instance(context="Obama quartz quartz. Acme born."))
    table = {None: None, "uniform": uniform_idf(), "own": build_idf(ds), "other": build_idf(other)}[supplied]
    if table is None:
        expected_table = uniform_idf() if idf_source == "uniform" else build_idf(ds)
    else:
        expected_table = table
    expected = [predict(inst, config, expected_table) for inst in ds]
    assert predict_dataset(ds, config, table) == expected


@settings(max_examples=100, deadline=None)
@given(
    ds=_datasets(),
    idf_source=st.sampled_from(["self_corpus", "uniform"]),
    threshold=st.sampled_from([0.0, 1.0, 3.0]),
    cpus=st.integers(min_value=2, max_value=4),
)
def test_predict_dataset_in_forked_chunks_equals_the_serial_result(ds, idf_source, threshold, cpus):
    config = BaselineConfig(no_answer_threshold=threshold, idf_source=idf_source)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(parallel, "_may_fork", lambda: False)
        serial = predict_dataset(ds, config)
    with pytest.MonkeyPatch.context() as m:
        # every flagged instance may be a chunk of its own
        m.setattr(baseline, "_FORK_MIN_FLAGGED", 1)
        m.setattr(parallel, "available_cpus", lambda: cpus)
        assert predict_dataset(ds, config) == serial


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_predict_dataset_forks_one_child_per_chunk_after_the_first(monkeypatch, cpus):
    parent = os.getpid()
    instances = [fig_instance(id=f"f{i}", question="Where was Obama born?") for i in range(5)]
    ds = make_dataset(*instances, make_instance(id="none", question="Where was Obama born?", context="No."))
    config = BaselineConfig()
    serial = [predict(inst, config, build_idf(ds)) for inst in ds]
    forks, pids, real = record_forks(monkeypatch), [], baseline.predict

    def predict_where(instance, *args):
        pids.append(os.getpid())  # a child's appends stay in the child
        return real(instance, *args)

    monkeypatch.setattr(baseline, "predict", predict_where)
    monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
    assert predict_dataset(ds, config) == serial
    assert forks == [] and pids == [parent] * 5  # five flagged: one chunk of at least _FORK_MIN_FLAGGED
    monkeypatch.setattr(baseline, "_FORK_MIN_FLAGGED", 2)
    pids.clear()
    assert predict_dataset(ds, config) == serial
    # at most one chunk per CPU, each of at least two flagged instances; the first is predicted here
    chunks = min(cpus, 2)
    assert len(forks) == (chunks - 1 if sys.platform == "linux" else 0)
    assert pids == [parent] * (5 // chunks if sys.platform == "linux" else 5)


def test_predict_dataset_predicts_only_instances_that_share_a_content_term(monkeypatch):
    instances = [
        fig_instance(id="shares"),
        make_instance(id="disjoint", question="Where was Obama born?", context="The weather is nice."),
        make_instance(id="stop-words", question="Who is he?", context="Who is he? He is here."),
        make_instance(id="empty-context", question="Where was Obama born?", context=""),
        make_instance(id="entity", question="Where was XXX born?", context="Obama lived in Hawaii.",
                      subject_entity="Hawaii"),
        make_instance(id="dotted-i", question="Is İ here?", context="Yes, İ is here."),
        make_instance(id="sigma", question="What is ας?", context="ΑΣ'Β is a word."),
    ]
    ds = make_dataset(*instances)

    def words(text):
        return {w for w, _, _ in oracle_tokenize(text or "")}

    shares = {
        inst.id
        for inst in ds
        if ((words(inst.question) | words(inst.subject_entity)) - STOP_WORDS) & words(inst.context)
    }
    assert shares == {"shares", "entity", "dotted-i", "sigma"}

    called = []
    real_predict = baseline.predict

    def spy(inst, config, table):
        called.append(inst.id)
        return real_predict(inst, config, table)

    monkeypatch.setattr(baseline, "predict", spy)
    for config in (BaselineConfig(no_answer_threshold=0.0), BaselineConfig(idf_source="uniform")):
        called.clear()
        predictions = predict_dataset(ds, config)
        assert called == [inst.id for inst in ds if inst.id in shares]
        assert [p.instance_id for p in predictions] == [inst.id for inst in ds]
        assert all(p.answer is None for p in predictions if p.instance_id not in shares)

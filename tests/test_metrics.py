import random

import pytest
from hypothesis import given, settings, strategies as st

from slotqa import (
    DataError,
    Prediction,
    Span,
    insert_no_answer_token,
    normalize_answer,
    score_challenge_accuracy,
    score_slot_filling,
)

from helpers import (
    make_dataset,
    make_instance,
    oracle_normalize_answer,
    oracle_overlap_f1,
    tally_score,
)


def hand_worked_case():
    ds = make_dataset(
        make_instance(id="p1", answers=((28, "Honolulu, Hawaii"),)),
        make_instance(
            id="p2",
            context="His father was born in Kenya.",
            answers=((23, "Kenya"),),
        ),
        make_instance(id="n1", answers=(), origin="squad_negative"),
        make_instance(id="n2", answers=(), origin="squad_negative"),
    )
    preds = [
        Prediction("p1", "Honolulu, Hawaii"),
        Prediction("p2", "Nairobi"),
        Prediction("n1", None),
        Prediction("n2", "Paris"),
    ]
    return ds, preds


def test_normalize_answer_examples():
    assert normalize_answer("The U.S. Army") == "us army"
    assert normalize_answer("Honolulu, Hawaii") == "honolulu hawaii"
    assert normalize_answer("an  apple") == "apple"
    assert normalize_answer("A") == ""
    assert normalize_answer("42.") == "42"


@pytest.mark.parametrize(
    "text",
    ["", "The", "a-n apple", "the.end", "İstanbul, THE city", "ΑΣ the\u00a0an\u2003a", "théâtre!", "x\u0085a y"],
)
def test_normalize_answer_matches_closure_oracle_fixed(text):
    assert normalize_answer(text) == oracle_normalize_answer(text)


@settings(max_examples=1000)
@given(st.text())
def test_normalize_answer_matches_closure_oracle(text):
    assert normalize_answer(text) == oracle_normalize_answer(text)


def test_hand_worked_precision_recall_f1():
    ds, preds = hand_worked_case()
    report = score_slot_filling(ds, preds)
    assert report.precision == 1 / 3
    assert report.recall == 1 / 2
    assert report.f1 == pytest.approx(0.4, abs=1e-12)
    assert report.counts == {
        "positives": 2,
        "negatives": 2,
        "answered": 3,
        "correct": 1,
        "no_answer_predictions": 1,
        "missing": 0,
    }


def test_hand_worked_case_matches_brute_force():
    ds, preds = hand_worked_case()
    report = score_slot_filling(ds, preds)
    assert (report.precision, report.recall, report.f1) == tally_score(ds, preds)


def test_all_correct_scores_one():
    ds, _ = hand_worked_case()
    preds = [
        Prediction("p1", "Honolulu, Hawaii"),
        Prediction("p2", "Kenya"),
        Prediction("n1", None),
        Prediction("n2", None),
    ]
    report = score_slot_filling(ds, preds)
    assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
    assert report.counts["no_answer_predictions"] == 2


def test_empty_predictions_score_zero():
    ds, _ = hand_worked_case()
    report = score_slot_filling(ds, [])
    assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)
    assert report.counts["missing"] == 4


def test_missing_equals_explicit_no_answer():
    ds, _ = hand_worked_case()
    explicit = score_slot_filling(ds, [Prediction(i.id, None) for i in ds])
    implicit = score_slot_filling(ds, [])
    assert explicit.precision == implicit.precision
    assert explicit.recall == implicit.recall
    assert explicit.counts["no_answer_predictions"] == implicit.counts["no_answer_predictions"]


def test_match_is_normalized_not_literal():
    ds = make_dataset(make_instance(id="p1", answers=((28, "Honolulu, Hawaii"),)))
    report = score_slot_filling(ds, [Prediction("p1", "the honolulu  hawaii.")])
    assert report.precision == 1.0


def test_any_gold_span_counts():
    ds = make_dataset(
        make_instance(
            id="p1",
            context="Honolulu, Hawaii saw Obama born. Hawaii celebrated.",
            answers=((0, "Honolulu, Hawaii"), (33, "Hawaii")),
        )
    )
    assert score_slot_filling(ds, [Prediction("p1", "Hawaii")]).precision == 1.0


def test_duplicate_predictions_rejected():
    ds, _ = hand_worked_case()
    with pytest.raises(DataError) as exc:
        score_slot_filling(ds, [Prediction("p1", "x"), Prediction("p1", "y")])
    assert "p1" in str(exc.value)


def test_unknown_prediction_ids_rejected():
    ds, _ = hand_worked_case()
    with pytest.raises(DataError) as exc:
        score_slot_filling(ds, [Prediction("ghost", "x")])
    assert "ghost" in str(exc.value)


def test_prediction_order_is_irrelevant():
    ds, preds = hand_worked_case()
    shuffled = list(preds)
    random.Random(5).shuffle(shuffled)
    assert score_slot_filling(ds, preds) == score_slot_filling(ds, shuffled)


def test_zero_division_control():
    negatives = make_dataset(
        make_instance(id="n1", answers=(), origin="squad_negative"),
    )
    default = score_slot_filling(negatives, [Prediction("n1", None)])
    assert (default.precision, default.recall, default.f1) == (0.0, 0.0, 0.0)


def test_adapted_dataset_scores_like_unadapted():
    ds, preds = hand_worked_case()
    adapted, _ = insert_no_answer_token(ds)
    adapted_preds = [
        Prediction("p1", "Honolulu, Hawaii"),
        Prediction("p2", "Nairobi"),
        Prediction("n1", "NoAnswerFound"),
        Prediction("n2", "Paris"),
    ]
    plain = score_slot_filling(ds, preds)
    mapped = score_slot_filling(adapted, adapted_preds)
    assert mapped.precision == plain.precision
    assert mapped.recall == plain.recall
    assert mapped.counts == plain.counts


def test_sentinel_gold_counts_as_negative():
    ds = make_dataset(make_instance(id="n1", answers=(), origin="squad_negative"))
    adapted, _ = insert_no_answer_token(ds)
    assert adapted.instances[0].answers == (Span(0, "NoAnswerFound"),)
    report = score_slot_filling(adapted, [Prediction("n1", "NoAnswerFound")])
    assert report.counts["positives"] == 0
    assert report.counts["negatives"] == 1
    assert report.counts["no_answer_predictions"] == 1


def test_per_relation_breakdown():
    ds = make_dataset(
        make_instance(id="a1", relation="birth", answers=((28, "Honolulu, Hawaii"),)),
        make_instance(id="a2", relation="birth", answers=(), origin="squad_negative"),
        make_instance(id="b1", relation="work", answers=((28, "Honolulu, Hawaii"),)),
    )
    preds = [
        Prediction("a1", "Honolulu, Hawaii"),
        Prediction("a2", None),
        Prediction("b1", "wrong"),
    ]
    report = score_slot_filling(ds, preds)
    assert set(report.per_relation) == {"birth", "work"}
    assert report.per_relation["birth"].precision == 1.0
    assert report.per_relation["work"].precision == 0.0
    # group tally must agree with scoring each group alone
    birth_only = make_dataset(*[i for i in ds if i.relation == "birth"])
    alone = score_slot_filling(birth_only, preds[:2])
    assert report.per_relation["birth"].counts == alone.counts
    # every group, in both modes, reports what scoring it alone reports
    for match in ("exact", "overlap"):
        report = score_slot_filling(ds, preds, match=match)
        for rel, group in report.per_relation.items():
            members = [i for i in ds if i.relation == rel]
            ids = {i.id for i in members}
            alone = score_slot_filling(
                make_dataset(*members), [p for p in preds if p.instance_id in ids], match=match
            )
            assert group.to_dict() == alone.per_relation[rel].to_dict()


_GOLDS = ["Honolulu, Hawaii", "Kenya", "Acme Corp"]
_GUESSES = _GOLDS + ["the Kenya", "Acme", "Paris, France", "Hawaii Honolulu", "NoAnswerFound", ""]
_MISSING = object()


@st.composite
def relation_cases(draw):
    """A dataset whose instances carry a few relations (or none), with predictions."""
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from([None, "r1", "r2", "r3"]),
                st.none() | st.sampled_from(_GOLDS),
                st.just(_MISSING) | st.none() | st.sampled_from(_GUESSES),
            ),
            min_size=1,
            max_size=20,
        )
    )
    instances, preds = [], []
    for i, (relation, gold, guess) in enumerate(rows):
        context = f"Filler words then {gold or 'nothing'} appears."
        answers = ((context.index(gold), gold),) if gold else ()
        instances.append(make_instance(id=f"i{i}", context=context, answers=answers, relation=relation))
        if guess is not _MISSING:
            preds.append(Prediction(f"i{i}", guess))
    ds = make_dataset(*instances)
    if draw(st.booleans()):
        ds, _ = insert_no_answer_token(ds)
    return ds, preds


@settings(max_examples=300)
@given(relation_cases(), st.sampled_from(["exact", "overlap"]))
def test_per_relation_report_equals_scoring_the_relation_alone(case, match):
    ds, preds = case
    report = score_slot_filling(ds, preds, match=match)
    relations = [i.relation for i in ds if i.relation is not None]
    if not relations:
        assert report.per_relation is None
        return
    assert list(report.per_relation) == list(dict.fromkeys(relations))
    for rel, group in report.per_relation.items():
        members = tuple(i for i in ds if i.relation == rel)
        ids = {i.id for i in members}
        alone = score_slot_filling(
            ds._replace(instances=members), [p for p in preds if p.instance_id in ids], match=match
        )
        assert group.per_relation is None
        assert group.to_dict() == alone.per_relation[rel].to_dict()
        assert alone.to_dict() == dict(group.to_dict(), per_relation={rel: group.to_dict()})


def test_no_relations_no_breakdown():
    ds, preds = hand_worked_case()
    assert score_slot_filling(ds, preds).per_relation is None


def test_overlap_mode_gives_partial_credit():
    ds = make_dataset(make_instance(id="p1", answers=((28, "Honolulu, Hawaii"),)))
    preds = [Prediction("p1", "born in Honolulu")]
    exact = score_slot_filling(ds, preds)
    overlap = score_slot_filling(ds, preds, match="overlap")
    assert exact.precision == 0.0
    # prediction tokens {born, in, honolulu}, gold {honolulu, hawaii}: F1 = 0.4
    assert overlap.precision == pytest.approx(0.4, abs=1e-12)
    assert 0.0 < overlap.counts["correct"] < 1.0


def test_overlap_mode_never_scores_below_exact():
    ds, preds = hand_worked_case()
    exact = score_slot_filling(ds, preds)
    overlap = score_slot_filling(ds, preds, match="overlap")
    assert overlap.precision >= exact.precision
    assert overlap.recall >= exact.recall


# few words, so that tokens repeat within and across answers
_overlap_text = st.lists(
    st.sampled_from(["a", "the", "x", "x", "y", "Z.", "z", ",", ""]), max_size=6
).map(" ".join)


@settings(max_examples=300)
@given(
    st.lists(st.tuples(st.lists(_overlap_text, max_size=3), st.none() | _overlap_text), max_size=6)
)
def test_overlap_counts_equal_the_oracle(cases):
    ds = make_dataset(
        *(
            make_instance(id=f"i{i}", answers=tuple((0, g) for g in golds))
            for i, (golds, _) in enumerate(cases)
        )
    )
    preds = [Prediction(f"i{i}", answer) for i, (_, answer) in enumerate(cases)]
    report = score_slot_filling(ds, preds, match="overlap")
    correct = 0.0
    for golds, answer in cases:
        if answer is not None and golds:
            correct += oracle_overlap_f1(answer, golds)
    assert report.counts["correct"] == correct
    assert report.counts["answered"] == sum(answer is not None for _, answer in cases)


def test_unknown_match_mode_rejected():
    ds, preds = hand_worked_case()
    with pytest.raises(DataError):
        score_slot_filling(ds, preds, match="fuzzy")


def test_flipping_answered_negative_to_no_answer_helps():
    ds, preds = hand_worked_case()
    before = score_slot_filling(ds, preds)
    flipped = [p if p.instance_id != "n2" else Prediction("n2", None) for p in preds]
    after = score_slot_filling(ds, flipped)
    assert after.precision >= before.precision
    assert after.recall == before.recall


def test_report_to_dict_and_tsv_shape():
    ds, preds = hand_worked_case()
    report = score_slot_filling(ds, preds)
    d = report.to_dict()
    assert "accuracy" not in d
    assert set(d) == {"precision", "recall", "f1", "counts"}
    assert len(report.to_tsv().split("\t")) == 10


def challenge_dataset(n):
    return make_dataset(
        *[
            make_instance(
                id=f"c{i}",
                answers=(),
                origin="challenge_negative",
                relation="birth",
                subject_entity=f"P{i}",
            )
            for i in range(n)
        ]
    )


def test_challenge_accuracy_83_of_100():
    ds = challenge_dataset(100)
    preds = [
        Prediction(f"c{i}", None if i < 83 else "spurious answer") for i in range(100)
    ]
    report = score_challenge_accuracy(ds, preds)
    assert report.accuracy == 83 / 100 == 0.83
    assert report.counts["answered"] == 17
    assert report.counts["no_answer_predictions"] == 83


def test_challenge_accuracy_perfect_and_missing():
    ds = challenge_dataset(4)
    assert score_challenge_accuracy(ds, []).accuracy == 1.0
    report = score_challenge_accuracy(ds, [Prediction("c0", "x")])
    assert report.accuracy == 0.75
    assert report.counts["missing"] == 3


def test_challenge_accuracy_rejects_positives_and_empty():
    with pytest.raises(DataError):
        score_challenge_accuracy(make_dataset(), [])
    mixed = make_dataset(
        make_instance(id="c0", answers=(), origin="challenge_negative"),
        make_instance(id="p0"),
        make_instance(id="p1"),
    )
    with pytest.raises(DataError, match="all-negative dataset; 'p0' has answers"):
        score_challenge_accuracy(mixed, [])


def test_challenge_accuracy_maps_dummy_token():
    ds = challenge_dataset(2)
    adapted, _ = insert_no_answer_token(ds)
    report = score_challenge_accuracy(
        adapted, [Prediction("c0", "NoAnswerFound"), Prediction("c1", "real answer")]
    )
    assert report.accuracy == 0.5
    assert report.to_dict() == {
        "accuracy": 0.5,
        "counts": {
            "positives": 0,
            "negatives": 2,
            "answered": 1,
            "correct": 0,
            "no_answer_predictions": 1,
            "missing": 0,
        },
    }


def random_case(rng, size):
    instances = []
    preds = []
    for i in range(size):
        positive = rng.random() < 0.6
        if positive:
            text = rng.choice(["Honolulu, Hawaii", "Kenya", "Acme Corp"])
            context = f"Filler words then {text} appears."
            inst = make_instance(
                id=f"i{i}",
                context=context,
                answers=((context.index(text), text),),
                relation=rng.choice([None, "r1", "r2"]),
            )
        else:
            inst = make_instance(
                id=f"i{i}",
                answers=(),
                origin="squad_negative",
                relation=rng.choice([None, "r1", "r2"]),
            )
        instances.append(inst)
        roll = rng.random()
        if roll < 0.25:
            continue  # missing prediction
        if roll < 0.45:
            preds.append(Prediction(f"i{i}", None))
        elif roll < 0.7:
            preds.append(Prediction(f"i{i}", inst.answers[0].text if inst.answers else "guess"))
        else:
            preds.append(Prediction(f"i{i}", rng.choice(["Kenya", "wrong", "Paris, France"])))
    return make_dataset(*instances), preds


def test_random_cases_match_brute_force_tally():
    rng = random.Random(1234)
    for _ in range(300):
        ds, preds = random_case(rng, rng.randint(1, 20))
        report = score_slot_filling(ds, preds)
        expected = tally_score(ds, preds)
        assert abs(report.precision - expected[0]) <= 1e-12
        assert abs(report.recall - expected[1]) <= 1e-12
        assert abs(report.f1 - expected[2]) <= 1e-12

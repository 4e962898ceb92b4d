import pytest
from hypothesis import given, settings, strategies as st

from slotqa import (
    DataError,
    Span,
    insert_no_answer_token,
    negativize_squad,
    segment_sentences,
    strip_no_answer_token,
    validate_dataset,
)
from slotqa.model import dumps_instance
from slotqa.transforms import DEFAULT_NO_ANSWER_TOKEN

from helpers import (
    char_level_survivors,
    make_dataset,
    make_instance,
    oracle_segment_sentences,
)

TWO_SENTENCES = "Obama was born in Hawaii. His father was born in Kenya."


def texts(context):
    return [context[b.start : b.end] for b in segment_sentences(context)]


def test_segment_two_declaratives():
    bounds = segment_sentences(TWO_SENTENCES)
    assert [(b.start, b.end) for b in bounds] == [(0, 25), (26, 55)]
    assert texts(TWO_SENTENCES) == [
        "Obama was born in Hawaii.",
        "His father was born in Kenya.",
    ]


def test_segment_initials_stay_together():
    assert texts("A. B. Smith wrote it. Nobody read it.") == [
        "A. B. Smith wrote it.",
        "Nobody read it.",
    ]


def test_segment_known_abbreviations():
    assert texts("Mr. Smith arrived. He sat down.") == ["Mr. Smith arrived.", "He sat down."]
    assert texts("It runs at 9 a.m. daily. Be there.") == [
        "It runs at 9 a.m. daily.",
        "Be there.",
    ]


def test_segment_requires_uppercase_continuation():
    # lowercase after the period suggests an abbreviation we do not know
    assert len(segment_sentences("He lived approx. eight years. Then he moved.")) == 2


def test_segment_question_and_exclamation():
    assert texts("Really?! You went. Wow!") == ["Really?!", "You went.", "Wow!"]


def test_segment_empty_and_whitespace():
    assert segment_sentences("") == []
    assert segment_sentences(" \t\n ") == []


def test_segment_no_terminator():
    assert texts("no punctuation at all") == ["no punctuation at all"]


@given(st.text(max_size=200))
def test_segment_partitions_non_whitespace(text):
    bounds = segment_sentences(text)
    covered = set()
    prev_end = 0
    for b in bounds:
        assert 0 <= b.start < b.end <= len(text)
        assert b.start >= prev_end
        assert not text[b.start].isspace()
        assert not text[b.end - 1].isspace()
        covered.update(range(b.start, b.end))
        prev_end = b.end
    non_ws = {i for i, ch in enumerate(text) if not ch.isspace()}
    assert non_ws <= covered


# Pieces that exercise every branch of the rule: terminators, known
# abbreviations and initials, upper/lower/title-case followers, and
# whitespace that only str.isspace knows (U+001C, U+0085, U+00A0, U+3000)
# next to look-alikes that are not whitespace (U+200B).
SEGMENT_PIECES = [
    ".", "!", "?", "?!", "...", "Dr.", "dr.", "U.S.", "J.R.", "e.g.", "a.m.",
    "3.5", "A", "B", "Z", "x", "y", "ǅ", "İ", "É", "7",
    " ", "  ", "\n", "\t", "\x1c", "\x85", "\xa0", "\u3000", "\u200b",
]


@settings(max_examples=500)
@given(st.lists(st.sampled_from(SEGMENT_PIECES), max_size=60).map("".join))
def test_segment_matches_per_character_oracle_on_dense_text(text):
    assert segment_sentences(text) == oracle_segment_sentences(text)


@settings(max_examples=300)
@given(st.text(max_size=300))
def test_segment_matches_per_character_oracle(text):
    assert segment_sentences(text) == oracle_segment_sentences(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        ".",
        "End.",
        "One.\x1cTwo.",
        "One.\x85Two. three",
        "One.\xa0Two!\u3000Three?",
        "One.\u200bTwo.",
        "Dr. Who. U.S. Army. J.R. Ewing! Ok",
        "x. y. Z.  ",
        "He met Dr. Who. Then left.",
        "a b\u3000c U.S. Army. x\ty J.R. Ewing! Ok",
    ],
)
def test_segment_matches_per_character_oracle_fixed(text):
    assert segment_sentences(text) == oracle_segment_sentences(text)


def test_negativize_drops_answer_sentence():
    start = TWO_SENTENCES.index("Hawaii")
    ds = make_dataset(make_instance(context=TWO_SENTENCES, answers=((start, "Hawaii"),)))
    out, report = negativize_squad(ds)
    assert len(out) == 1
    neg = out.instances[0]
    assert neg.context == "His father was born in Kenya."
    assert neg.id == "i0-neg"
    assert neg.answers == ()
    assert neg.origin == "squad_negative"
    assert neg.question == ds.instances[0].question
    assert report.output_count == 1
    assert report.skipped == 0
    assert out.provenance_log[-1]["operation"] == "negativize"


def test_negativize_skips_when_everything_overlaps():
    ds = make_dataset(make_instance(context="Obama was born in Hawaii.", answers=((18, "Hawaii"),)))
    out, report = negativize_squad(ds)
    assert len(out) == 0
    assert report.skipped == 1
    assert any("i0" in note for note in report.notes)


def test_negativize_removes_every_overlapping_sentence():
    context = "Alpha lives here. Beta works there. Gamma sleeps now."
    answers = ((context.index("Alpha"), "Alpha"), (context.index("Gamma"), "Gamma"))
    ds = make_dataset(make_instance(context=context, answers=answers))
    out, _ = negativize_squad(ds)
    assert out.instances[0].context == "Beta works there."
    # cross-check with the per-character oracle
    expected = char_level_survivors(context, ds.instances[0].answers)
    assert out.instances[0].context == " ".join(expected)


def test_negativize_span_straddling_boundary_removes_both():
    context = "One two. Three four. Five six."
    start = context.index("two. Three")
    ds = make_dataset(make_instance(context=context, answers=((start, "two. Three"),)))
    out, _ = negativize_squad(ds)
    assert out.instances[0].context == "Five six."


def test_negativize_keep_positives_interleaves():
    start = TWO_SENTENCES.index("Hawaii")
    ds = make_dataset(
        make_instance(id="a", context=TWO_SENTENCES, answers=((start, "Hawaii"),)),
        make_instance(id="b", context="Single sentence with Hawaii.", answers=((21, "Hawaii"),)),
    )
    out, report = negativize_squad(ds, keep_positives=True)
    assert [i.id for i in out.instances] == ["a", "a-neg", "b"]
    assert len(out) <= 2 * len(ds)
    assert report.skipped == 1


def test_negativize_rejects_negative_input():
    ds = make_dataset(make_instance(answers=(), origin="squad_negative"))
    with pytest.raises(DataError):
        negativize_squad(ds)


def test_negativize_output_validates():
    context = "Alpha lives here. Beta works there. Gamma sleeps now."
    ds = make_dataset(
        make_instance(context=context, answers=((context.index("Beta"), "Beta"),))
    )
    out, _ = negativize_squad(ds, keep_positives=True)
    assert validate_dataset(out) == []


def test_insert_token_shifts_offsets():
    ds = make_dataset(make_instance())
    out, report = insert_no_answer_token(ds)
    inst = out.instances[0]
    assert out.no_answer_token == DEFAULT_NO_ANSWER_TOKEN
    assert inst.context == "NoAnswerFound President Obama was born in Honolulu, Hawaii."
    assert inst.answers[0].start == 28 + len(DEFAULT_NO_ANSWER_TOKEN) + 1 == 42
    assert inst.answers[0].text == "Honolulu, Hawaii"
    assert validate_dataset(out) == []
    assert report.parameters["token"] == DEFAULT_NO_ANSWER_TOKEN


def test_insert_token_marks_negatives():
    ds = make_dataset(make_instance(answers=(), origin="squad_negative"))
    out, _ = insert_no_answer_token(ds)
    assert out.instances[0].answers == (Span(0, DEFAULT_NO_ANSWER_TOKEN),)
    assert validate_dataset(out) == []


def test_insert_token_custom_token():
    ds = make_dataset(make_instance())
    out, _ = insert_no_answer_token(ds, token="UNANSWERABLE")
    assert out.instances[0].context.startswith("UNANSWERABLE ")
    assert out.instances[0].answers[0].start == 28 + len("UNANSWERABLE") + 1


def test_insert_token_empty_dataset_still_flags():
    out, _ = insert_no_answer_token(make_dataset())
    assert out.no_answer_token == DEFAULT_NO_ANSWER_TOKEN


def test_insert_token_twice_is_an_error():
    once, _ = insert_no_answer_token(make_dataset(make_instance()))
    with pytest.raises(DataError):
        insert_no_answer_token(once)


def test_insert_token_rejects_whitespace_token():
    with pytest.raises(DataError):
        insert_no_answer_token(make_dataset(make_instance()), token="No Answer")
    with pytest.raises(DataError):
        insert_no_answer_token(make_dataset(make_instance()), token="")


def test_strip_token_round_trip():
    ds = make_dataset(
        make_instance(id="p"),
        make_instance(id="n", answers=(), origin="squad_negative"),
        name="orig",
    )
    adapted, _ = insert_no_answer_token(ds)
    back, _ = strip_no_answer_token(adapted)
    assert back.no_answer_token is None
    assert back.instances == ds.instances
    for before, after in zip(ds.instances, back.instances):
        assert dumps_instance(before) == dumps_instance(after)


def test_strip_token_requires_adapted_input():
    with pytest.raises(DataError):
        strip_no_answer_token(make_dataset(make_instance()))

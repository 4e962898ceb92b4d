import pytest

from slotqa import ParseError, Span, ingest_squad, ingest_uwre, validate_dataset
from slotqa.model import dumps_instance

CONTEXT = "President Obama was born in Honolulu, Hawaii. He later moved to Chicago."


def squad_doc(qas=None, context=CONTEXT):
    if qas is None:
        qas = [
            {
                "id": "q1",
                "question": "Where was Obama born?",
                "answers": [{"text": "Honolulu, Hawaii", "answer_start": 28}],
            }
        ]
    return {
        "version": "1.1",
        "data": [{"title": "Obama", "paragraphs": [{"context": context, "qas": qas}]}],
    }


def test_ingest_squad_basic():
    ds, report = ingest_squad(squad_doc(), "train")
    assert len(ds) == 1
    inst = ds.instances[0]
    assert inst.id == "q1"
    assert inst.context == CONTEXT
    assert inst.origin == "squad_positive"
    assert inst.split == "train"
    assert inst.answers[0].start == 28
    # the recorded offset must agree with an independent search
    assert CONTEXT.index("Honolulu, Hawaii") == 28
    assert validate_dataset(ds) == []
    assert report.input_count == 1
    assert report.output_count == 1
    assert ds.name == "squad-train"
    assert ds.provenance_log[-1]["operation"] == "ingest-squad"


def test_ingest_squad_empty_document():
    ds, report = ingest_squad({"version": "1.1", "data": []}, "dev")
    assert len(ds) == 0
    assert report.output_count == 0


def test_ingest_squad_dedups_repeated_answers():
    qas = [
        {
            "id": "q1",
            "question": "Where was Obama born?",
            "answers": [
                {"text": "Honolulu, Hawaii", "answer_start": 28},
                {"text": "Honolulu, Hawaii", "answer_start": 28},
                {"text": "Honolulu", "answer_start": 28},
            ],
        }
    ]
    ds, _ = ingest_squad(squad_doc(qas), "train")
    assert [(s.start, s.text) for s in ds.instances[0].answers] == [
        (28, "Honolulu, Hawaii"),
        (28, "Honolulu"),
    ]


def test_ingest_squad_drops_mislocated_answer():
    qas = [
        {
            "id": "q1",
            "question": "Where was Obama born?",
            "answers": [{"text": "Honolulu, Hawaii", "answer_start": 27}],
        },
        {
            "id": "q2",
            "question": "Where did he move?",
            "answers": [{"text": "Chicago", "answer_start": CONTEXT.index("Chicago")}],
        },
    ]
    ds, report = ingest_squad(squad_doc(qas), "train")
    assert [i.id for i in ds.instances] == ["q2"]
    assert report.skipped == 1
    assert report.input_count - report.skipped == report.output_count
    assert any("q1" in note for note in report.notes)


def test_ingest_squad_drops_question_without_answers():
    qas = [{"id": "q1", "question": "Where was Obama born?", "answers": []}]
    ds, report = ingest_squad(squad_doc(qas), "train")
    assert len(ds) == 0
    assert report.skipped == 1


def test_ingest_squad_schema_errors_carry_paths():
    with pytest.raises(ParseError) as exc:
        ingest_squad({"version": "1.1", "data": {"oops": 1}}, "train")
    assert "$.data" in str(exc.value)

    doc = squad_doc()
    del doc["data"][0]["paragraphs"][0]["context"]
    with pytest.raises(ParseError) as exc:
        ingest_squad(doc, "train")
    assert "$.data[0].paragraphs[0]" in str(exc.value)

    doc = squad_doc()
    doc["data"][0]["paragraphs"][0]["qas"][0]["answers"][0]["answer_start"] = "28"
    with pytest.raises(ParseError) as exc:
        ingest_squad(doc, "train")
    assert "answers[0]" in str(exc.value)


def test_ingest_squad_rejects_bad_split():
    with pytest.raises(ParseError):
        ingest_squad(squad_doc(), "validation")


UWRE_LINE = (
    "place_of_birth\tWhere was XXX born?\tObama\t"
    "Obama was born in Honolulu.\tHonolulu\n"
)


def test_ingest_uwre_positive_record():
    ds, inventory, report = ingest_uwre([UWRE_LINE], "train")
    assert len(ds) == 1
    inst = ds.instances[0]
    assert inst.question == "Where was Obama born?"
    assert inst.relation == "place_of_birth"
    assert inst.subject_entity == "Obama"
    assert inst.origin == "uwre_positive"
    assert inst.answers == (Span(start=18, text="Honolulu"),)
    assert inst.id == "uwre-train-000001"
    assert [t.relation for t in inventory] == ["place_of_birth"]
    assert report.output_count == 1
    assert validate_dataset(ds) == []


def test_ingest_uwre_negative_record():
    line = "place_of_birth\tWhere was XXX born?\tObama\tObama likes golf.\t\n"
    ds, _, _ = ingest_uwre([line], "dev")
    inst = ds.instances[0]
    assert inst.answers == ()
    assert inst.origin == "uwre_negative"
    assert inst.split == "dev"


def test_ingest_uwre_first_occurrence_wins():
    sentence = "Paris stayed in Paris last May."
    line = f"r\tWhere did XXX stay?\tParis Hilton\t{sentence}\tParis\n"
    ds, _, _ = ingest_uwre([line], "train")
    span = ds.instances[0].answers[0]
    # brute-force oracle: smallest index of any occurrence
    expected = min(i for i in range(len(sentence)) if sentence.startswith("Paris", i))
    assert span.start == expected == 0


def test_ingest_uwre_multiple_answers():
    line = "r\tWho employs XXX?\tJo\tJo works for Acme and for Initech.\tAcme|Initech\n"
    ds, _, _ = ingest_uwre([line], "train")
    texts = [s.text for s in ds.instances[0].answers]
    assert texts == ["Acme", "Initech"]


def test_ingest_uwre_drops_unlocatable_answer():
    lines = [
        "r\tWho employs XXX?\tJo\tJo works for Acme.\tGlobex\n",
        UWRE_LINE,
    ]
    ds, _, report = ingest_uwre(lines, "train")
    assert len(ds) == 1
    assert report.skipped == 1
    assert any("line 1" in note for note in report.notes)


@pytest.mark.parametrize("dropped", [1000, 1001])
def test_a_report_keeps_the_first_thousand_notes_and_counts_the_rest(dropped):
    bad = "r\tWho employs XXX?\tJo\tJo works for Acme.\tGlobex\n"
    ds, _, report = ingest_uwre([bad] * dropped + [UWRE_LINE], "train")
    assert (len(ds), report.skipped) == (1, dropped)
    out = report.to_dict()
    assert out["notes"] == [f"line {i}: answer 'Globex' not found in sentence" for i in range(1, 1001)]
    if dropped > 1000:
        assert list(out)[-2:] == ["notes", "notes_dropped"]
        assert out["notes_dropped"] == dropped - 1000
    else:
        assert list(out)[-1] == "notes"


def test_ingest_uwre_malformed_rows_are_fatal():
    with pytest.raises(ParseError) as exc:
        ingest_uwre(["r\tWhere was XXX born?\tObama\tno answer field\n"], "train")
    assert "line 1" in str(exc.value)

    with pytest.raises(ParseError):
        ingest_uwre(["r\tWhere was he born?\tObama\tObama was born.\t\n"], "train")

    with pytest.raises(ParseError):
        ingest_uwre(["r\tWhere was XXX born?\t\tObama was born.\t\n"], "train")

    with pytest.raises(ParseError):
        ingest_uwre(["r\tWho employs XXX?\tJo\tJo works for Acme.\tAcme||Initech\n"], "train")


def test_ingest_uwre_inventory_is_first_seen_order():
    lines = [
        "b\tWhere was XXX born?\tA\tA was born in X.\t\n",
        "a\tWho employs XXX?\tB\tB works for Y.\t\n",
        "b\tWhere was XXX born?\tC\tC was born in Z.\t\n",
        "b\tWhat city was XXX born in?\tC\tC was born in Z.\t\n",
    ]
    _, inventory, _ = ingest_uwre(lines, "train")
    assert [(t.relation, t.pattern) for t in inventory] == [
        ("b", "Where was XXX born?"),
        ("a", "Who employs XXX?"),
        ("b", "What city was XXX born in?"),
    ]


def test_ingest_outputs_are_write_stable(tmp_path):
    ds, _, _ = ingest_uwre([UWRE_LINE], "train")
    first = "".join(dumps_instance(i) + "\n" for i in ds.instances)
    from slotqa import read_instances, write_instances

    p = tmp_path / "a.jsonl"
    write_instances(ds.instances, p)
    again = tmp_path / "b.jsonl"
    write_instances(read_instances(p), again)
    assert p.read_bytes() == again.read_bytes() == first.encode("utf-8")


@pytest.mark.parametrize("split", ["train", "test"])
def test_each_ingest_starts_the_log_with_one_entry(split):
    squad, _ = ingest_squad(squad_doc(), split)
    uwre, _, _ = ingest_uwre([UWRE_LINE], split)
    for ds, operation in ((squad, "ingest-squad"), (uwre, "ingest-uwre")):
        assert ds.provenance_log == (
            {"operation": operation, "parameters": {"split": split}, "seed": None},
        )
        # the sidecar writes the keys in this order
        assert list(ds.provenance_log[0]) == ["operation", "parameters", "seed"]
        assert type(ds.instances) is tuple and ds.no_answer_token is None

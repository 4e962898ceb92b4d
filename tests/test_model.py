import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from slotqa import (
    BaselineConfig,
    DataError,
    Dataset,
    Instance,
    MixSpec,
    ParseError,
    Prediction,
    Span,
    dumps_instance,
    instance_from_dict,
    instance_to_dict,
    load_dataset,
    read_instances,
    validate_dataset,
    write_dataset,
    write_instances,
)
from slotqa.model import decode_line, read_lines, read_predictions, sidecar_path

from helpers import make_dataset, make_instance


def test_negative_means_empty_answers():
    pos = make_instance()
    neg = make_instance(id="i1", answers=())
    assert not pos.is_negative()
    assert neg.is_negative()


def test_validate_clean_dataset():
    ds = make_dataset(make_instance(), make_instance(id="i1", answers=(), origin="squad_negative"))
    assert validate_dataset(ds) == []


def test_validate_span_text_mismatch():
    bad = make_instance(context="abc def", answers=((0, "def"),))
    violations = validate_dataset(make_dataset(bad))
    assert len(violations) == 1
    v = violations[0]
    assert v.instance_id == "i0"
    assert v.invariant == "span_matches_context"
    assert "def" in v.message


def test_validate_duplicate_ids():
    ds = make_dataset(make_instance(id="dup"), make_instance(id="dup"))
    invariants = [v.invariant for v in validate_dataset(ds)]
    assert "unique_ids" in invariants


def test_validate_polarity_both_directions():
    neg_with_answer = make_instance(id="a", origin="squad_negative")
    pos_without = make_instance(id="b", answers=(), origin="uwre_positive")
    invariants = {v.invariant for v in validate_dataset(make_dataset(neg_with_answer, pos_without))}
    assert "negative_origin_empty_answers" in invariants
    assert "positive_origin_nonempty_answers" in invariants


def test_validate_bad_enum_values():
    ds = make_dataset(
        make_instance(id="a", origin="mystery"),
        make_instance(id="b", split="validation"),
    )
    invariants = {v.invariant for v in validate_dataset(ds)}
    assert "origin_enum" in invariants
    assert "split_enum" in invariants


def test_validate_is_total_on_garbage_spans():
    # start far beyond the context must report, not raise
    ds = make_dataset(
        make_instance(id="a", context="ab", answers=((500, "zz"),)),
        make_instance(id="b", context="ab", answers=((-3, "a"),)),
        make_instance(id="c", context="ab", answers=((0, ""),), origin="squad_positive"),
    )
    invariants = {v.invariant for v in validate_dataset(ds)}
    assert "span_matches_context" in invariants
    assert "span_start_nonnegative" in invariants
    assert "span_text_nonempty" in invariants


def test_instance_dict_field_order_and_shape():
    d = instance_to_dict(make_instance(relation="place_of_birth", subject_entity="Obama"))
    assert list(d) == [
        "id",
        "question",
        "context",
        "answers",
        "relation",
        "subject_entity",
        "origin",
        "split",
    ]
    assert d["answers"] == [{"start": 28, "text": "Honolulu, Hawaii"}]


def test_instance_dict_writes_the_instance_fields_in_order():
    assert tuple(instance_to_dict(make_instance())) == Instance._fields


def test_instance_from_dict_rejects_unknown_and_missing_keys():
    good = instance_to_dict(make_instance())
    extra = dict(good, bogus=1)
    with pytest.raises(ParseError):
        instance_from_dict(extra)
    short = dict(good)
    del short["split"]
    with pytest.raises(ParseError):
        instance_from_dict(short)


def test_instance_from_dict_rejects_bool_start():
    d = instance_to_dict(make_instance(context="xab", answers=((1, "a"),)))
    d["answers"] = [{"start": True, "text": "a"}]
    with pytest.raises(ParseError):
        instance_from_dict(d)


def _record(drop=(), **fields):
    d = instance_to_dict(make_instance())
    for key in drop:
        del d[key]
    d.update(fields)
    return d


_RECORD_FAULTS = [
    ([], "expected a JSON object"),
    (_record(drop=["split"], bogus=1), "bad instance fields, missing ['split'], unknown ['bogus']"),
    (_record(answers={"x": 1}), "field 'answers' must be an array"),
    (_record(answers=[{"start": 0, "text": "P", "end": 1}]), "answers[0] must be an object with start and text"),
    (_record(answers=[{"start": True, "text": "P"}]), "answers[0].start must be an integer"),
    (_record(answers=[{"start": 0, "text": 5}]), "answers[0].text must be a string"),
    (_record(relation=3), "field 'relation' must be a string or null"),
    (_record(id=7), "field 'id' must be a string"),
]


@pytest.mark.parametrize("record, message", _RECORD_FAULTS)
def test_instance_from_dict_messages(record, message):
    with pytest.raises(ParseError) as caught:
        instance_from_dict(record, where="rec")
    assert str(caught.value) == f"rec: {message}"


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("", "empty line"),
        ("{oops", "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ]
    + [(json.dumps(record), message) for record, message in _RECORD_FAULTS],
)
def test_read_instances_names_the_line_of_the_first_bad_record(tmp_path, bad_line, message):
    good = json.dumps(_record())
    path = tmp_path / "bad.jsonl"
    path.write_text(f"{good}\n{bad_line}\n{good}\n", encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        read_instances(path)
    assert str(caught.value) == f"{path}: line 2: {message}"


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("", "empty line"),
        ("nul", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        ('{"id": "a"}', "expected an object with id and answer"),
        ('{"id": 1, "answer": null}', "field 'id' must be a string"),
        ('{"id": "a", "answer": 2}', "field 'answer' must be a string or null"),
    ],
)
def test_read_predictions_names_the_line_of_the_first_bad_record(tmp_path, bad_line, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(f'{{"id": "x", "answer": null}}\n{bad_line}\n', encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        read_predictions(path)
    assert str(caught.value) == f"{path}: line 2: {message}"


def test_read_instances_names_the_line_that_is_not_utf8_as_text_mode_numbers_it(tmp_path):
    good = json.dumps(_record()).encode("utf-8")
    path = tmp_path / "bad.jsonl"
    path.write_bytes(good + b"\r\n" + good + b"\r" + b'{"id": "caf\xe9"}\n' + good + b"\n")
    with pytest.raises(ParseError) as caught:
        read_instances(path)
    assert str(caught.value) == f"{path}: line 3: invalid UTF-8 at byte 11: invalid continuation byte"


def test_read_lines_names_the_first_line_that_is_not_utf8(tmp_path):
    """Against an oracle that decodes each line of the bytes as universal newlines split them."""
    rng = random.Random(7)
    pieces = [b"a", b"\xc3\xa9", b"\xe2\x82\xac", b"\xf0\x9f\x99\x82", b"\n", b"\r\n", b"\r",
              b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\x80"]
    path = tmp_path / "f.txt"
    for _ in range(300):
        data = b"".join(rng.choices(pieces, k=rng.randrange(1, 30)))
        path.write_bytes(data)
        expected = None
        for lineno, line in enumerate(data.splitlines(), start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as e:
                expected = f"{path}: line {lineno}: invalid UTF-8 at byte {e.start}: {e.reason}"
                break
        lines = []
        try:
            lines.extend(read_lines(path))
        except ParseError as e:
            assert str(e) == expected, data
        else:
            assert expected is None, data
            assert lines == data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").splitlines(True)


def test_read_instances_keeps_one_copy_of_each_origin_split_and_relation(tmp_path):
    path = tmp_path / "d.jsonl"
    lines = [json.dumps(_record(id=f"q{i}", relation="place of birth")) + "\n" for i in range(2)]
    path.write_text("".join(lines), encoding="utf-8")
    first, second = read_instances(path)
    assert first.origin is second.origin
    assert first.split is second.split
    assert first.relation is second.relation


def test_read_instances_refuses_a_line_nested_too_deep(tmp_path):
    path = tmp_path / "deep.jsonl"
    path.write_text(json.dumps(_record()) + "\n" + "[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
    prefix = f"{path}: line 2: invalid JSON: maximum recursion depth exceeded"
    with pytest.raises(ParseError, match="^" + re.escape(prefix)):
        read_instances(path)


def test_jsonl_roundtrip(tmp_path):
    ds = make_dataset(
        make_instance(relation="r", subject_entity="Obama"),
        make_instance(id="i1", answers=(), origin="challenge_negative", split="test"),
    )
    path = tmp_path / "x.jsonl"
    write_instances(ds.instances, path)
    back = read_instances(path)
    assert tuple(back) == ds.instances
    # LF endings, trailing newline, no BOM
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    assert not raw.startswith(b"\xef\xbb\xbf")


def test_jsonl_offsets_are_code_points(tmp_path):
    context = "a\U0001d11eb music"
    inst = make_instance(context=context, answers=((1, "\U0001d11e"),))
    assert validate_dataset(make_dataset(inst)) == []
    path = tmp_path / "u.jsonl"
    write_instances([inst], path)
    assert read_instances(path)[0].answers[0].start == 1


def test_read_instances_rejects_blank_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(dumps_instance(make_instance()) + "\n\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_instances(path)


def test_read_instances_rejects_non_object_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('["not", "an", "object"]\n', encoding="utf-8")
    with pytest.raises(ParseError):
        read_instances(path)


def test_dataset_sidecar_roundtrip(tmp_path):
    ds = Dataset(
        instances=(make_instance(),),
        name="demo",
        provenance_log=(
            {"operation": "ingest-squad", "parameters": {"split": "train"}, "seed": None},
        ),
        no_answer_token="NoAnswerFound",
    )
    path = tmp_path / "demo.jsonl"
    write_dataset(ds, path)
    assert sidecar_path(path).exists()
    back = load_dataset(path)
    assert back == ds


def test_load_dataset_without_sidecar_defaults(tmp_path):
    path = tmp_path / "plain.jsonl"
    write_instances([make_instance()], path)
    ds = load_dataset(path)
    assert ds.name == "plain"
    assert ds.provenance_log == ()
    assert ds.no_answer_token is None


@pytest.mark.parametrize("log", ["abc", {"operation": "x"}, [1], ["step"], [{}, None]])
def test_load_dataset_rejects_provenance_log_that_is_not_a_list_of_objects(tmp_path, log):
    path = tmp_path / "odd.jsonl"
    write_instances([make_instance()], path)
    sidecar_path(path).write_text(json.dumps({"provenance_log": log}), encoding="utf-8")
    expected = f"{sidecar_path(path)}: provenance_log must be a list of objects"
    with pytest.raises(ParseError, match=re.escape(expected)):
        load_dataset(path)


@pytest.mark.parametrize(
    "meta, message",
    [({"name": ["a"]}, "name must be a string"), ({"no_answer_token": 5}, "no_answer_token must be")],
)
def test_load_dataset_rejects_sidecar_name_or_token_of_the_wrong_type(tmp_path, meta, message):
    path = tmp_path / "odd.jsonl"
    write_instances([make_instance()], path)
    sidecar_path(path).write_text(json.dumps(meta), encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{sidecar_path(path)}: {message}")):
        load_dataset(path)


def test_load_dataset_rejects_a_sidecar_that_is_not_utf8(tmp_path):
    path = tmp_path / "odd.jsonl"
    write_instances([make_instance()], path)
    sidecar_path(path).write_bytes(b'{"name": "caf\xe9"}')
    with pytest.raises(ParseError, match=re.escape(f"{sidecar_path(path)}: invalid JSON: ")):
        load_dataset(path)


def test_derive_appends_provenance():
    ds = make_dataset(make_instance(), name="base")
    out = ds.derive(ds.instances, "negativize", {"keep_positives": False})
    assert out.provenance_log[-1] == {
        "operation": "negativize",
        "parameters": {"keep_positives": False},
        "seed": None,
    }
    assert out.name == "base"


@pytest.mark.parametrize("value, field", [
    (make_instance(), "context"),
    (Span(0, "x"), "start"),
    (Prediction("a", None), "answer"),
    (MixSpec("b", "a", 1), "sizes"),
    (BaselineConfig(), "no_answer_threshold"),
    (make_dataset(make_instance()), "instances"),
    (make_dataset(make_instance()), "no_answer_token"),
])
def test_fields_cannot_be_assigned(value, field):
    # transforms never mutate their input: every record and dataset is immutable
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    if isinstance(value, Dataset):
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert getattr(value, field) is before


def test_dataset_replace_changes_only_the_named_fields():
    ds = make_dataset(make_instance(), name="base")
    renamed = ds._replace(name="other")
    assert (renamed.name, renamed.instances, ds.name) == ("other", ds.instances, "base")
    assert renamed == Dataset(ds.instances, "other", ds.provenance_log, ds.no_answer_token)
    assert renamed != ds
    with pytest.raises(TypeError, match="bogus"):
        ds._replace(bogus=1)


@st.composite
def valid_datasets(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    instances = []
    for i in range(n):
        context = draw(st.text(min_size=1, max_size=30))
        answers = ()
        if draw(st.booleans()):
            start = draw(st.integers(min_value=0, max_value=len(context) - 1))
            end = draw(st.integers(min_value=start + 1, max_value=len(context)))
            answers = (Span(start, context[start:end]),)
        instances.append(
            Instance(
                id=f"i{i}",
                question=draw(st.text(max_size=20)),
                context=context,
                answers=answers,
                relation=draw(st.none() | st.text(min_size=1, max_size=8)),
                subject_entity=draw(st.none() | st.text(min_size=1, max_size=8)),
                origin="squad_positive" if answers else "squad_negative",
                split=draw(st.sampled_from(["train", "dev", "test"])),
            )
        )
    return Dataset(instances=tuple(instances), name=draw(st.text(max_size=10)))


@given(valid_datasets())
def test_serialization_roundtrip_property(ds):
    for inst in ds.instances:
        assert instance_from_dict(json.loads(dumps_instance(inst))) == inst
    assert validate_dataset(ds) == []


# --- the JSONL line decoder against json.loads ---

_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)
_DUPLICATE_KEY_OBJECTS = st.lists(
    st.tuples(st.sampled_from(["id", "a", ""]), _JSON_VALUES), max_size=4
).map(lambda pairs: "{" + ",".join(f"{json.dumps(k)}:{json.dumps(v)}" for k, v in pairs) + "}")
_FRAGMENTS = st.sampled_from(
    [
        "NaN", "-NaN", "Infinity", "-Infinity", "infinity", "nan", "1e999", "-0", "01", "1.",
        ".5", '"\\u00e9"', '"\\ud800"', '"\\udc00\\ud800"', '"\\ud83d\\ude00"', '"\\u12"',
        '"\\x"', '"\t"', '"a', "tru", "true", "null", "[1,]", '{"a":1,}', '{"id":"x"}{"id":"y"}',
        "{", "}", "[", "]", ",", ":", '"', "\\",
    ]
)
_JSONISH = st.text(alphabet='{}[]",:-+.0123456789eEtrufalsnNIinfy \\u\t\n\r\ufeff', max_size=12)
_LINES = st.builds(
    lambda bom, lead, body, trail, junk: bom + lead + body + trail + junk,
    st.sampled_from([""] * 7 + ["\ufeff"]),
    st.text(alphabet=" \t\n\r", max_size=2),
    st.one_of(
        st.builds(json.dumps, _JSON_VALUES, ensure_ascii=st.booleans()),
        _DUPLICATE_KEY_OBJECTS,
        _FRAGMENTS,
        _JSONISH,
    ),
    st.text(alphabet=" \t\n\r", max_size=2),
    st.sampled_from([""] * 9 + ["x", "]", "}", ",1", " 2", "\x00", "\u2028", "\u00a0"]),
)


@settings(max_examples=600, deadline=None)
@given(_LINES)
def test_decode_line_agrees_with_json_loads(text):
    if not text:
        with pytest.raises(ParseError, match="^empty line$"):
            decode_line(text)
        return
    try:
        want = json.loads(text)
    except json.JSONDecodeError as e:
        with pytest.raises(ParseError) as caught:
            decode_line(text)
        assert str(caught.value) == f"invalid JSON: {e}"
        assert type(caught.value.__cause__) is type(e)
        assert str(caught.value.__cause__) == str(e)
    else:
        # repr tells 1 from 1.0 and True, -0.0 from 0.0, and shows NaN
        assert repr(decode_line(text)) == repr(want)

import ast
import enum
import json
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from slotqa import (
    BaselineConfig,
    DataError,
    Dataset,
    EvalReport,
    Instance,
    MixSpec,
    ParseError,
    Prediction,
    Span,
    build_challenge_set,
    build_uwre_plus,
    dumps_instance,
    ingest_squad,
    ingest_uwre,
    insert_no_answer_token,
    instance_from_dict,
    instance_to_dict,
    load_dataset,
    negativize_squad,
    read_instances,
    strip_no_answer_token,
    validate_dataset,
    write_dataset,
    write_instances,
    write_predictions,
)
from slotqa import model
from slotqa.model import decode_line, read_lines, read_predictions, sidecar_path

from helpers import make_dataset, make_instance, oracle_dumps_line


def test_negative_means_empty_answers():
    pos = make_instance()
    neg = make_instance(id="i1", answers=())
    assert pos.answers
    assert not neg.answers


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


def test_validate_checks_a_no_answer_adaptation_against_the_dataset_s_own_token():
    plain = make_dataset(make_instance(), make_instance(id="n", answers=()))
    adapted, _ = insert_no_answer_token(plain)
    assert validate_dataset(adapted) == []
    pos, neg = adapted.instances
    broken = adapted._replace(instances=(plain.instances[0], neg._replace(answers=())))
    assert validate_dataset(broken) == [
        ("i0", "no_answer_token_prefix", "context does not start with 'NoAnswerFound '"),
        ("n", "negative_no_answer_sentinel", "origin 'squad_negative' requires the no-answer span"
                                             " 'NoAnswerFound' at offset 0"),
    ]
    # a token to score with asks an unadapted dataset for no prefix, and its sentinel
    # stands in for the dataset's own in the rule for a negative's answers
    assert validate_dataset(plain, "X") == []
    assert [v.invariant for v in validate_dataset(adapted, "X")] == ["negative_origin_empty_answers"]


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
    [({"name": ["a"]}, "name must be a string"), ({"no_answer_token": 5}, "no_answer_token must be"),
     # a token adapt-noanswer refuses
     *(({"no_answer_token": token}, "no-answer token must be non-empty and contain no whitespace")
       for token in ("", "No Answer", "tab\there"))],
)
def test_load_dataset_rejects_sidecar_name_or_token_of_the_wrong_type(tmp_path, meta, message):
    path = tmp_path / "odd.jsonl"
    write_instances([make_instance()], path)
    sidecar_path(path).write_text(json.dumps(meta), encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{sidecar_path(path)}: {message}")):
        load_dataset(path)


def test_bool_is_an_isinstance_argument_only_in_the_json_kind_table():
    """Every reader checks JSON kinds through ``model.JSON_KINDS``, so none writes its own bool rule."""
    found = []
    for path in sorted(Path(model.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tables = [node for node in ast.walk(tree) if isinstance(node, ast.Assign)
                  and any(getattr(target, "id", None) == "JSON_KINDS" for target in node.targets)]
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "isinstance"):
                continue
            if any(getattr(node, "id", None) == "bool" for arg in call.args[1:] for node in ast.walk(arg)):
                owners = [t for t in tables if t.lineno <= call.lineno <= t.end_lineno]
                found.append((path.name, "JSON_KINDS" if owners else call.lineno))
    assert sorted(set(found)) == [("model.py", "JSON_KINDS")]


def _is_output_count_store(node):
    return isinstance(node, ast.Attribute) and node.attr == "output_count" and isinstance(node.ctx, ast.Store)


def _is_placeholder_count(node):
    return (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "count"
            and any(getattr(arg, "id", None) == "PLACEHOLDER" for arg in node.args))


def _is_tab_split(node):
    return (isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("split", "rsplit")
            and any(getattr(arg, "value", None) == "\t" for arg in node.args))


def _is_fork_call(node):
    return isinstance(node, ast.Call) and ast.unparse(node.func) == "os.fork"


def _is_span_slice(node):
    """``context[start : start + len(text)]``: the text a span reads in its context."""
    return isinstance(node, ast.Subscript) and bool(
        re.fullmatch(r"(.*\.)?context\[(.+):\2 \+ len\(.+\)\]", ast.unparse(node)))


def _is_kinds_table(node):
    return isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id.endswith("_KINDS")


def _top_level_name(statement):
    """The name a top-level statement defines or assigns, or None."""
    if isinstance(statement, ast.Assign):
        return getattr(statement.targets[0], "id", None)
    return getattr(statement, "name", None)


def _names_available_cpus(node):
    """A use, attribute or import of the name ``available_cpus``."""
    name = node.name if isinstance(node, ast.alias) else None
    return "available_cpus" in (getattr(node, "id", None), getattr(node, "attr", None), name)


@pytest.mark.parametrize("match, owners", [
    # a report counts exactly what TransformReport.finish derives; the mixer, with no instance list, its lines
    (_is_output_count_store, [("model.py", "TransformReport")]),
    (lambda node: isinstance(node, ast.keyword) and node.arg == "output_count", [("mixer.py", "mix_files")]),
    (_is_placeholder_count, [("templates.py", "placeholder_problem")]),
    (_is_tab_split, [("model.py", "tsv_rows")]),
    # how many processes a piece of work takes is decided in slotqa.parallel alone
    (_is_fork_call, [("parallel.py", "_start")]),
    (_names_available_cpus, [("parallel.py", "fork_map"), ("parallel.py", "shares")]),
    # only the two steps that cut their work into shares fork: replay runs each step here
    (lambda node: isinstance(node, ast.ImportFrom) and node.module == "parallel",
     [("baseline.py", "predict_dataset"), ("mixer.py", "_scan")]),
    # a gold span is checked against its context by validate_dataset and ingest_squad alike
    (_is_span_slice, [("model.py", "span_problem")]),
    # every reader and replay check a value's type through the one kind table
    (_is_kinds_table, [("model.py", "JSON_KINDS")]),
], ids=["output_count_assigned", "output_count_passed", "placeholder_counted", "tsv_line_split",
        "fork_called", "available_cpus_named", "parallel_imported", "span_sliced", "kinds_table_assigned"])
def test_each_rule_is_stated_in_one_place(match, owners):
    """Every node of ``src/slotqa`` that ``match`` accepts lies in a top-level definition of ``owners``."""
    found = set()
    for path in sorted(Path(model.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if match(node):
                top = [d for d in tree.body if d.lineno <= node.lineno <= d.end_lineno]
                found.add((path.name, _top_level_name(top[0])))
    assert sorted(found) == owners


_UWRE_LINES = [
    "born_in\tWhere was XXX born?\tAda\tAda was born in Leeds.\tLeeds\n",
    "born_in\tWhere was XXX born?\tBo\tBo was born in York.\tYork\n",
    "born_in\tWhere was XXX born?\tCy\tCy was born in Hull.\tParis\n",  # dropped: not in the sentence
    "born_in\tWhere was XXX born?\tDee\tDee liked tea.\t\n",
    "born_in\tWhere was XXX born?\tEd\tEd wrote letters.\t\n",
]


def _squad():
    document = json.loads((Path(__file__).parent / "fixtures" / "synthetic_squad.json").read_text("utf-8"))
    return ingest_squad(document, "train")


def _adapted():
    return insert_no_answer_token(negativize_squad(_squad()[0])[0])


def _challenge():
    dataset, templates, _ = ingest_uwre(_UWRE_LINES, "train")
    positives = tuple(inst for inst in dataset if inst.origin == "uwre_positive")
    return build_challenge_set(dataset._replace(instances=positives), templates, 7)


# each layer that returns a dataset, run on a small input
_LAYERS = {
    "ingest_squad": _squad,
    "ingest_uwre": lambda: ingest_uwre(_UWRE_LINES, "train")[::2],
    "negativize_squad": lambda: negativize_squad(_squad()[0]),
    "insert_no_answer_token": _adapted,
    "strip_no_answer_token": lambda: strip_no_answer_token(_adapted()[0]),
    "build_challenge_set": _challenge,
    "build_uwre_plus": lambda: build_uwre_plus(ingest_uwre(_UWRE_LINES, "train")[0], _challenge()[0], 7),
}


@pytest.mark.parametrize("layer", _LAYERS)
def test_a_transform_report_counts_and_names_the_dataset_it_comes_with(layer):
    result, report = _LAYERS[layer]()
    assert report.output_count == len(result) > 0
    assert report.operation == result.provenance_log[-1]["operation"]


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
    (EvalReport({}), "f1"),
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


def test_a_dataset_holds_its_instances_and_provenance_as_tuples(tmp_path):
    path = tmp_path / "d.jsonl"
    write_dataset(make_dataset(make_instance(), name="d").derive([make_instance()], "negativize", {}), path)
    loaded = load_dataset(path)
    rebuilt = Dataset(instances=list(loaded.instances), name=loaded.name,
                      provenance_log=list(loaded.provenance_log))
    assert rebuilt == loaded
    assert type(rebuilt.instances) is type(rebuilt.provenance_log) is tuple


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


# --- the line encoder against a dumb oracle ---


class _Start(enum.IntEnum):
    ONE = 1


class _Text(str):
    """A str subclass: json.dumps writes it as a string, and so must the encoder."""


# what JSON escapes and what it writes raw: quotes, backslashes, controls, DEL, U+2028/9,
# non-BMP characters
_AWKWARD = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\u2028", "\u2029",
                            "\U0001F600", "\U00010000", "\u00e9", "\u4e00"])
_TEXT = st.text(alphabet=st.one_of(st.characters(), _AWKWARD), max_size=12)
# a lone surrogate is encoded too, but cannot be written to a UTF-8 file
_ANY_TEXT = st.text(alphabet=st.one_of(st.characters(), _AWKWARD, st.just("\ud800")), max_size=12)
_CANONICAL = st.builds(Instance, _ANY_TEXT, _ANY_TEXT, _ANY_TEXT,
                       st.lists(st.builds(Span, st.integers(), _ANY_TEXT), max_size=3).map(tuple),
                       st.none() | _ANY_TEXT, st.none() | _ANY_TEXT, _ANY_TEXT, _ANY_TEXT)
# values of another type than the field's: a str subclass, an int, a bool, a float, and a
# list whose non-ASCII text must be written raw there too
_ODD = st.one_of(_TEXT.map(_Text), st.integers(), st.booleans(), st.floats(), st.lists(_TEXT, max_size=2))
_ODD_START = st.one_of(st.booleans(), st.just(_Start.ONE), st.floats(allow_nan=False))


@st.composite
def _instances(draw):
    """An instance of the canonical types, or one with a field or a span of another type."""
    inst = draw(_CANONICAL)
    odd = draw(st.sampled_from([None, "start", "text", "span", *Instance._fields]))
    if odd == "answers":
        return inst._replace(answers=list(inst.answers))
    if odd in ("start", "text", "span"):
        answers = inst.answers or (Span(0, "x"),)
        i = draw(st.integers(0, len(answers) - 1))
        if odd == "span":  # a plain tuple has no .start, so no line is written
            span = tuple(answers[i])
        else:
            span = answers[i]._replace(**{odd: draw(_ODD_START if odd == "start" else _ODD)})
        return inst._replace(answers=answers[:i] + (span,) + answers[i + 1:])
    return inst if odd is None else inst._replace(**{odd: draw(_ODD)})


def _outcome(function, value):
    """``function(value)``, or the name of the exception it raises."""
    try:
        return function(value)
    except Exception as e:
        return type(e).__name__


@settings(max_examples=500, deadline=None)
@given(_instances())
def test_dumps_instance_writes_the_oracle_line(inst):
    assert _outcome(dumps_instance, inst) == _outcome(oracle_dumps_line, inst)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(Prediction, _TEXT | _ODD, st.none() | _TEXT | _ODD), max_size=4))
def test_write_predictions_writes_the_oracle_lines(predictions):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "preds.jsonl"
        write_predictions(predictions, path)
        assert path.read_bytes() == "".join(oracle_dumps_line(p) + "\n" for p in predictions).encode("utf-8")

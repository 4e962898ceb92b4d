import pytest
from hypothesis import given, strategies as st

from slotqa import (
    DataError,
    ParseError,
    QuestionTemplate,
    instantiate,
    load_templates,
    save_templates,
)
from slotqa.templates import PLACEHOLDER, by_relation

BIRTH = QuestionTemplate(relation="place_of_birth", pattern="Where was XXX born?")


def test_instantiate_basic():
    q = instantiate(BIRTH, "Obama")
    assert q == "Where was Obama born?"


def test_instantiate_employer_example():
    t = QuestionTemplate("employer", "Who does XXX work for?")
    assert instantiate(t, "Acme Corp") == "Who does Acme Corp work for?"


def test_entity_literally_named_placeholder():
    # substitution is verbatim, so an entity spelled "XXX" must survive
    assert instantiate(BIRTH, "XXX") == "Where was XXX born?"


def test_pattern_placeholder_count_must_be_one():
    with pytest.raises(DataError):
        instantiate(QuestionTemplate("r", "Where was he born?"), "Obama")
    with pytest.raises(DataError):
        instantiate(QuestionTemplate("r", "XXX said XXX?"), "Obama")


def test_load_templates_keeps_valid_rows_and_reports_rejects(tmp_path):
    path = tmp_path / "templates.tsv"
    path.write_text(
        "place_of_birth\tWhere was XXX born?\n"
        "broken\tWhere was he born?\n"
        "employer\tWho does XXX work for?\n",
        encoding="utf-8",
    )
    templates, rejections = load_templates(path)
    assert [t.relation for t in templates] == ["place_of_birth", "employer"]
    assert len(rejections) == 1
    assert "line 2" in rejections[0]


def test_load_templates_dedup_keeps_first(tmp_path):
    path = tmp_path / "templates.tsv"
    path.write_text(
        "r\tWhere was XXX born?\n"
        "r\tWhere was XXX born?\n"
        "r\tWhat city was XXX born in?\n",
        encoding="utf-8",
    )
    templates, rejections = load_templates(path)
    assert len(templates) == 2
    assert rejections == []
    assert [t.pattern for t in by_relation(templates)["r"]] == [
        "Where was XXX born?",
        "What city was XXX born in?",
    ]


def test_load_templates_wrong_column_count_is_fatal(tmp_path):
    path = tmp_path / "templates.tsv"
    path.write_text("r\tWhere was XXX born?\textra\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_templates(path)


def test_save_then_load_roundtrip(tmp_path):
    templates = [BIRTH, QuestionTemplate("employer", "Who does XXX work for?")]
    path = tmp_path / "out.tsv"
    save_templates(templates, path)
    back, rejections = load_templates(path)
    assert back == templates
    assert rejections == []


entities = st.text(min_size=1, max_size=15).filter(lambda s: "\t" not in s and "\n" not in s)


@given(entities)
def test_instantiate_splices_entity_exactly(entity):
    idx = BIRTH.pattern.index(PLACEHOLDER)
    result = instantiate(BIRTH, entity)
    assert len(result) == len(BIRTH.pattern) - len(PLACEHOLDER) + len(entity)
    assert result[:idx] == BIRTH.pattern[:idx]
    assert result[idx : idx + len(entity)] == entity
    assert result[idx + len(entity) :] == BIRTH.pattern[idx + len(PLACEHOLDER) :]

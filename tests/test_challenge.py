import pytest

from slotqa import (
    DataError,
    QuestionTemplate,
    build_challenge_set,
    build_uwre_plus,
    derive_seed,
    instantiate,
    validate_dataset,
)
from slotqa.model import dumps_instance

from helpers import make_dataset, make_instance

BIRTH = QuestionTemplate("place_of_birth", "Where was XXX born?")


def uwre_positive(id, entity, context, answer, relation="place_of_birth"):
    start = context.index(answer)
    return make_instance(
        id=id,
        question=f"Where was {entity} born?",
        context=context,
        answers=((start, answer),),
        origin="uwre_positive",
        relation=relation,
        subject_entity=entity,
    )


def two_entity_pool():
    return make_dataset(
        uwre_positive("u1", "Obama", "Obama was born in Honolulu.", "Honolulu"),
        uwre_positive("u2", "Merkel", "Merkel was born in Hamburg.", "Hamburg"),
        name="uwre-train",
    )


def test_challenge_swaps_in_the_only_candidate():
    ds, report = build_challenge_set(two_entity_pool(), [BIRTH], seed=3)
    assert len(ds) == 2
    first = ds.instances[0]
    assert first.id == "u1-chal"
    assert first.context == "Obama was born in Honolulu."
    assert first.subject_entity == "Merkel"
    assert first.question == "Where was Merkel born?"
    assert first.answers == ()
    assert first.origin == "challenge_negative"
    assert first.relation == "place_of_birth"
    assert ds.instances[1].subject_entity == "Obama"
    assert validate_dataset(ds) == []
    assert report.output_count == 2
    assert report.extra["seed"] == 3
    assert ds.name.endswith("-challenge")


def test_challenge_donor_comes_from_eligible_set():
    pool = make_dataset(
        uwre_positive("u1", "Obama", "Obama was born in Honolulu.", "Honolulu"),
        uwre_positive("u2", "Merkel", "Merkel was born in Hamburg.", "Hamburg"),
        uwre_positive("u3", "Ada Lovelace", "Ada Lovelace was born in London.", "London"),
        uwre_positive("u4", "Curie", "Curie was born in Warsaw.", "Warsaw"),
        # its own entity is absent from its sentence, yet never its own donor
        uwre_positive("u5", "Tesla", "The inventor was born in Smiljan.", "Smiljan"),
    )
    for seed in range(12):
        ds, _ = build_challenge_set(pool, [BIRTH], seed=seed)
        for source, challenge in zip(pool, ds):
            # brute-force eligibility: other entities absent from the context
            eligible = {
                other.subject_entity
                for other in pool
                if other.subject_entity.lower() != source.subject_entity.lower()
                and other.subject_entity.lower() not in source.context.lower()
            }
            assert challenge.subject_entity in eligible
            assert challenge.question == instantiate(BIRTH, challenge.subject_entity)


def test_challenge_same_seed_is_byte_identical():
    pool = make_dataset(
        *[
            uwre_positive(f"u{i}", f"Person{i}", f"Person{i} was born in City{i}.", f"City{i}")
            for i in range(10)
        ]
    )
    a, _ = build_challenge_set(pool, [BIRTH], seed=99)
    b, _ = build_challenge_set(pool, [BIRTH], seed=99)
    assert [dumps_instance(i) for i in a] == [dumps_instance(i) for i in b]


def test_challenge_skips_entity_present_in_context():
    pool = make_dataset(
        uwre_positive("u1", "Obama", "Obama met Merkel in Honolulu.", "Honolulu"),
        uwre_positive("u2", "Merkel", "Merkel was born in Hamburg.", "Hamburg"),
    )
    ds, report = build_challenge_set(pool, [BIRTH], seed=0)
    # u1's only possible donor appears in its context, so u1 is skipped
    assert [i.id for i in ds.instances] == ["u2-chal"]
    assert report.extra["skipped_no_donor"] == 1


def test_challenge_donor_check_is_case_insensitive():
    pool = make_dataset(
        uwre_positive("u1", "Obama", "They said OBAMA and merkel met.", "met"),
        uwre_positive("u2", "Merkel", "Merkel was born in Hamburg.", "Hamburg"),
    )
    ds, _ = build_challenge_set(pool, [BIRTH], seed=0)
    assert [i.id for i in ds.instances] == ["u2-chal"]


def test_challenge_single_entity_relation_is_skipped():
    pool = make_dataset(uwre_positive("u1", "Obama", "Obama was born in Honolulu.", "Honolulu"))
    ds, report = build_challenge_set(pool, [BIRTH], seed=0)
    assert len(ds) == 0
    assert report.extra["skipped_no_donor"] == 1


def test_challenge_duplicate_entities_collapse():
    # same entity under two spellings of case is one candidate, not two
    pool = make_dataset(
        uwre_positive("u1", "Obama", "Obama was born in Honolulu.", "Honolulu"),
        uwre_positive("u2", "OBAMA", "OBAMA lived in Chicago.", "Chicago"),
    )
    ds, report = build_challenge_set(pool, [BIRTH], seed=0)
    assert len(ds) == 0
    assert report.extra["skipped_no_donor"] == 2


def test_challenge_requires_template():
    pool = two_entity_pool()
    with pytest.raises(DataError):
        build_challenge_set(pool, [QuestionTemplate("employer", "Who does XXX work for?")], seed=0)


def test_challenge_rejects_non_uwre_positive_input():
    ds = make_dataset(make_instance(origin="squad_positive", relation="r", subject_entity="X"))
    with pytest.raises(DataError):
        build_challenge_set(ds, [BIRTH], seed=0)


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(42, "train") == derive_seed(42, "train")
    assert derive_seed(42, "train") != derive_seed(42, "dev")
    assert derive_seed(42, "train") != derive_seed(43, "train")
    assert 0 <= derive_seed(0, "") < 2**64


def challenge_pool(n, relation="place_of_birth"):
    instances = [
        make_instance(
            id=f"c{i}",
            question=f"Where was Person{i} born?",
            context=f"Other{i} was born in City{i}.",
            answers=(),
            origin="challenge_negative",
            relation=relation,
            subject_entity=f"Person{i}",
        )
        for i in range(n)
    ]
    return make_dataset(*instances, name="pool")


def split_with_negatives(n_pos, n_neg):
    instances = [
        make_instance(
            id=f"p{i}",
            context=f"Person{i} was born in City{i}.",
            answers=((0, f"Person{i}"),),
            origin="uwre_positive",
            relation="place_of_birth",
            subject_entity=f"Person{i}",
        )
        for i in range(n_pos)
    ]
    instances += [
        make_instance(
            id=f"n{i}",
            context=f"Person{i} likes tea.",
            answers=(),
            origin="uwre_negative",
            relation="place_of_birth",
            subject_entity=f"Person{i}",
        )
        for i in range(n_neg)
    ]
    return make_dataset(*instances, name="uwre-train")


def test_uwre_plus_replaces_half_the_negatives():
    ds, report = build_uwre_plus(split_with_negatives(3, 5), challenge_pool(10), seed=5)
    kept_negatives = [i for i in ds if i.origin == "uwre_negative"]
    inserted = [i for i in ds if i.origin == "challenge_negative"]
    positives = [i for i in ds if i.origin == "uwre_positive"]
    assert len(kept_negatives) == 3  # 5 - floor(5/2)
    assert len(inserted) == 2
    assert len(positives) == 3
    assert report.extra == {
        "original_negatives": 5,
        "removed": 2,
        "inserted": 2,
        "shortfall": 0,
        "seed": 5,
    }
    assert ds.name == "uwre-train-plus"
    assert validate_dataset(ds) == []


def test_uwre_plus_positives_pass_through_in_order():
    split = split_with_negatives(4, 2)
    ds, _ = build_uwre_plus(split, challenge_pool(10), seed=1)
    assert [i.id for i in ds if i.origin == "uwre_positive"] == ["p0", "p1", "p2", "p3"]


def test_uwre_plus_small_counts():
    # one negative: floor(1/2) = 0 removed, 0 inserted
    ds, report = build_uwre_plus(split_with_negatives(1, 1), challenge_pool(4), seed=2)
    assert report.extra["removed"] == 0
    assert report.extra["inserted"] == 0
    assert len([i for i in ds if i.origin == "uwre_negative"]) == 1

    ds, report = build_uwre_plus(split_with_negatives(1, 2), challenge_pool(4), seed=2)
    assert report.extra["removed"] == 1
    assert report.extra["inserted"] == 1


def test_uwre_plus_records_shortfall_when_pool_is_small():
    ds, report = build_uwre_plus(split_with_negatives(2, 9), challenge_pool(2), seed=7)
    assert report.extra["removed"] == 4
    assert report.extra["inserted"] == 2
    assert report.extra["shortfall"] == 2
    assert len([i for i in ds if i.origin == "uwre_negative"]) == 5


def test_uwre_plus_requires_negatives_and_pool():
    with pytest.raises(DataError):
        build_uwre_plus(split_with_negatives(3, 0), challenge_pool(4), seed=0)
    with pytest.raises(DataError):
        build_uwre_plus(split_with_negatives(3, 2), challenge_pool(0), seed=0)


def test_uwre_plus_rejects_non_challenge_pool():
    bad_pool = make_dataset(make_instance(id="x", origin="squad_negative", answers=()))
    with pytest.raises(DataError):
        build_uwre_plus(split_with_negatives(1, 2), bad_pool, seed=0)


def test_uwre_plus_rejects_id_collision():
    pool = challenge_pool(3)
    split = split_with_negatives(1, 2)
    colliding = make_dataset(
        *(list(split.instances) + [pool.instances[0]]), name=split.name
    )
    with pytest.raises(DataError):
        build_uwre_plus(colliding, pool, seed=0)


def test_uwre_plus_same_seed_same_output():
    split = split_with_negatives(4, 8)
    pool = challenge_pool(12)
    a, _ = build_uwre_plus(split, pool, seed=123)
    b, _ = build_uwre_plus(split, pool, seed=123)
    assert [dumps_instance(i) for i in a] == [dumps_instance(i) for i in b]

"""Full acceptance run: ten end-to-end checks, one printed PASS line each.

Run with output visible:

    pytest tests/test_acceptance.py -v -s

Each check prints ``criterion NN: PASS`` on success; a failed check shows
up as a failed test instead.
"""

import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

from slotqa import (
    BaselineConfig,
    Dataset,
    Instance,
    MixSpec,
    Prediction,
    Span,
    build_challenge_set,
    build_idf,
    build_uwre_plus,
    ingest_squad,
    ingest_uwre,
    insert_no_answer_token,
    instantiate,
    load_dataset,
    load_templates,
    mix_files,
    negativize_squad,
    normalize_answer,
    predict_dataset,
    score_challenge_accuracy,
    score_slot_filling,
    strip_no_answer_token,
    validate_dataset,
    write_dataset,
)
from slotqa.templates import by_relation

from helpers import (
    char_level_survivors,
    make_dataset,
    make_instance,
    oracle_best_span,
    tally_score,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def ok(number: int, label: str) -> None:
    print(f"criterion {number:02d}: PASS - {label}")


# --- 1: scoring agrees with a brute-force tally ------------------------------

VOCAB = ["Honolulu", "Kenya", "Paris", "Acme Corp", "Waldenford", "the harbor"]


def random_scoring_case(rng):
    n = rng.randint(1, 20)
    instances = []
    for i in range(n):
        if rng.random() < 0.6:
            text = rng.choice(VOCAB)
            context = f"Some filler goes here then {text} appears."
            instances.append(
                make_instance(
                    id=f"i{i}",
                    context=context,
                    answers=((context.index(text), text),),
                    relation=rng.choice([None, "r1", "r2"]),
                )
            )
        else:
            instances.append(
                make_instance(
                    id=f"i{i}",
                    answers=(),
                    origin="squad_negative",
                    relation=rng.choice([None, "r1", "r2"]),
                )
            )
    ds = make_dataset(*instances)
    if rng.random() < 0.4:
        ds, _ = insert_no_answer_token(ds)
    preds = []
    for inst in ds.instances:
        roll = rng.random()
        if roll < 0.2:
            continue
        if roll < 0.4:
            preds.append(Prediction(inst.id, None))
        elif roll < 0.5 and ds.no_answer_token:
            preds.append(Prediction(inst.id, ds.no_answer_token))
        elif roll < 0.75 and inst.answers:
            preds.append(Prediction(inst.id, inst.answers[0].text))
        else:
            preds.append(Prediction(inst.id, rng.choice(VOCAB)))
    return ds, preds


def test_criterion_01_scoring_matches_brute_force():
    rng = random.Random(20260819)
    started = time.perf_counter()
    for _ in range(1000):
        ds, preds = random_scoring_case(rng)
        report = score_slot_filling(ds, preds)
        precision, recall, f1 = tally_score(ds, preds)
        assert abs(report.precision - precision) <= 1e-12
        assert abs(report.recall - recall) <= 1e-12
        assert abs(report.f1 - f1) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"exactness sweep took {elapsed:.1f}s"
    ok(1, f"1000 random datasets match the brute-force tally ({elapsed:.1f}s)")


# --- 2: no-answer behaviour on negatives -------------------------------------


def _effective_negative(inst: Instance, token) -> bool:
    if token is not None and inst.answers == (Span(0, token),):
        return True
    return not inst.answers


def test_criterion_02_no_answer_properties():
    rng = random.Random(99)
    flips = additions = 0
    for _ in range(200):
        ds, preds = random_scoring_case(rng)
        base = score_slot_filling(ds, preds)
        token = ds.no_answer_token
        predicted_ids = {p.instance_id for p in preds}
        for inst in ds.instances:
            if not _effective_negative(inst, token):
                continue
            pred = next((p for p in preds if p.instance_id == inst.id), None)
            answered = pred is not None and pred.answer is not None
            if token is not None and answered:
                answered = normalize_answer(pred.answer) != normalize_answer(token)
            if answered:
                flipped = [
                    p if p.instance_id != inst.id else Prediction(inst.id, None)
                    for p in preds
                ]
                after = score_slot_filling(ds, flipped)
                assert after.precision + 1e-12 >= base.precision
                assert after.recall == base.recall
                flips += 1
            elif inst.id not in predicted_ids:
                # an explicit correct no-answer must contribute nothing
                added = preds + [Prediction(inst.id, None)]
                after = score_slot_filling(ds, added)
                assert after.precision == base.precision
                assert after.recall == base.recall
                assert after.f1 == base.f1
                additions += 1
    assert flips > 50 and additions > 50
    ok(2, f"answered negatives only hurt ({flips} flips, {additions} additions checked)")


# --- 3: hand-worked values ----------------------------------------------------


def test_criterion_03_hand_worked_values():
    ds = make_dataset(
        make_instance(id="p1", answers=((28, "Honolulu, Hawaii"),)),
        make_instance(
            id="p2", context="His father was born in Kenya.", answers=((23, "Kenya"),)
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
    report = score_slot_filling(ds, preds)
    assert report.precision == 1 / 3
    assert report.recall == 1 / 2
    assert abs(report.f1 - 0.4) <= 1e-12

    challenge = make_dataset(
        *[
            make_instance(id=f"c{i}", answers=(), origin="challenge_negative")
            for i in range(100)
        ]
    )
    cpreds = [Prediction(f"c{i}", None if i < 83 else "noise") for i in range(100)]
    assert score_challenge_accuracy(challenge, cpreds).accuracy == 83 / 100
    ok(3, "P=1/3 R=1/2 F1=0.4 and challenge accuracy 83/100 reproduced")


# --- 4: negativization checked by per-character scan --------------------------


def build_500(rng) -> Dataset:
    instances = []
    for i in range(500):
        n_sent = rng.randint(1, 5)
        sentences = []
        fillable = []
        for j in range(n_sent):
            a, b, c = f"Name{i}x{j}", f"Place{i}x{j}", f"Topic{i}x{j}"
            shape = rng.randrange(5)
            if shape == 0:
                s = f"{a} visited {b} on Monday."
            elif shape == 1:
                s = f"Dr. {a} wrote about {c}!"
            elif shape == 2:
                s = f"Was {a} ever seen near {b}?"
            elif shape == 3:
                s = f"The {c} report cited {a}."
            else:
                s = f"{a} met A. B. Chase at the {b} dock."
            sentences.append(s)
            fillable.append([t for t in (a, b, c) if t in s])
        context = " ".join(sentences)
        chosen = rng.sample(range(n_sent), 1 if n_sent == 1 else rng.choice([1, 1, 1, 2]))
        spans = []
        for j in chosen:
            token = rng.choice(fillable[j])
            spans.append(Span(context.index(token), token))
        spans.sort(key=lambda s: s.start)
        instances.append(
            Instance(
                id=f"g{i}",
                question="Where did it happen?",
                context=context,
                answers=tuple(spans),
                origin="squad_positive",
                split="train",
            )
        )
    return Dataset(instances=tuple(instances), name="gen500")


def test_criterion_04_negativize_exhaustive_check():
    source = build_500(random.Random(41))
    assert validate_dataset(source) == []
    out, report = negativize_squad(source)
    assert report.input_count == 500
    assert report.input_count == report.output_count + report.skipped
    assert validate_dataset(out) == []
    by_id = {inst.id: inst for inst in out}
    produced = 0
    for src in source:
        survivors = char_level_survivors(src.context, src.answers)
        neg = by_id.get(src.id + "-neg")
        if not survivors:
            assert neg is None
        else:
            assert neg is not None
            assert neg.context == " ".join(survivors)
            assert neg.answers == ()
            produced += 1
    assert produced == report.output_count
    assert report.skipped > 0
    ok(4, f"500 sources: {produced} negatives, {report.skipped} skips, all scan-verified")


# --- 5: dummy-token adaptation ------------------------------------------------


def test_criterion_05_adaptation_shifts_and_round_trip():
    fig = make_dataset(make_instance())
    adapted_fig, _ = insert_no_answer_token(fig)
    assert adapted_fig.instances[0].answers[0].start == 42

    source = build_500(random.Random(43))
    negatives, _ = negativize_squad(source)
    merged = Dataset(
        instances=source.instances + negatives.instances, name="merged"
    )
    adapted, _ = insert_no_answer_token(merged)
    shift = len("NoAnswerFound") + 1
    assert validate_dataset(adapted) == []
    for before, after in zip(merged.instances, adapted.instances):
        if before.answers:
            assert [
                (s.start + shift, s.text) for s in before.answers
            ] == [(s.start, s.text) for s in after.answers]
        else:
            assert after.answers == (Span(0, "NoAnswerFound"),)
    stripped, _ = strip_no_answer_token(adapted)
    assert stripped.instances == merged.instances
    ok(5, f"offsets shift by {shift}, spans all valid, strip restores byte-equal instances")


# --- 6: challenge invariants and determinism ----------------------------------


def _ingest_fixture_uwre():
    with open(FIXTURES / "synthetic_uwre.tsv", "r", encoding="utf-8") as f:
        dataset, inventory, _ = ingest_uwre(f, "test")
    return dataset, inventory


def test_criterion_06_challenge_invariants_and_determinism(tmp_path):
    dataset, inventory = _ingest_fixture_uwre()
    first, _ = build_challenge_set(dataset, inventory, seed=77)
    second, _ = build_challenge_set(dataset, inventory, seed=77)
    assert first.instances == second.instances
    assert len(first) == 50
    by_source = dict(zip(dataset.instances, first.instances))
    for src, chal in by_source.items():
        assert chal.answers == ()
        assert chal.origin == "challenge_negative"
        assert chal.relation == src.relation
        assert chal.context == src.context
        assert chal.id == src.id + "-chal"
        donor = chal.subject_entity
        assert donor.lower() != src.subject_entity.lower()
        assert donor.lower() not in src.context.lower()
        assert chal.question == instantiate(by_relation(inventory)[src.relation][0], donor)

    # fresh interpreters with different hash seeds must agree byte for byte
    outputs = []
    for hash_seed, sub in (("0", "a"), ("4242", "b")):
        workdir = tmp_path / sub
        workdir.mkdir()
        data = workdir / "uwre.jsonl"
        templates = workdir / "templates.tsv"
        chal = workdir / "challenge.jsonl"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        for argv in (
            [
                "ingest-uwre",
                "--in", str(FIXTURES / "synthetic_uwre.tsv"),
                "--split", "test",
                "--out", str(data),
                "--templates-out", str(templates),
            ],
            [
                "build-challenge",
                "--in", str(data),
                "--templates", str(templates),
                "--seed", "77",
                "--out", str(chal),
            ],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "slotqa", *argv],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
        outputs.append(chal.read_bytes())
    assert outputs[0] == outputs[1]
    ok(6, "swap invariants hold; runs agree across interpreters and hash seeds")


# --- 7: negative replacement ratios -------------------------------------------


def _ratio_split(n_negatives: int) -> Dataset:
    instances = [
        make_instance(
            id=f"p{i}",
            context=f"Person{i} was born in City{i}.",
            answers=((0, f"Person{i}"),),
            origin="uwre_positive",
            relation="place_of_birth",
            subject_entity=f"Person{i}",
        )
        for i in range(7)
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
        for i in range(n_negatives)
    ]
    return make_dataset(*instances, name="ratio")


def _ratio_pool(size: int) -> Dataset:
    return make_dataset(
        *[
            make_instance(
                id=f"c{i}",
                context=f"Other{i} was born in City{i}.",
                answers=(),
                origin="challenge_negative",
                relation="place_of_birth",
                subject_entity=f"Person{i}",
            )
            for i in range(size)
        ],
        name="pool",
    )


def test_criterion_07_replacement_ratios():
    for n in (1, 2, 99, 100, 101):
        for pool_size in (60, 3):
            result, report = build_uwre_plus(_ratio_split(n), _ratio_pool(pool_size), seed=n)
            kept = len([i for i in result if i.origin == "uwre_negative"])
            inserted = len([i for i in result if i.origin == "challenge_negative"])
            assert kept == n - n // 2, (n, pool_size)
            assert inserted == min(n // 2, pool_size), (n, pool_size)
            assert report.extra["shortfall"] == n // 2 - inserted
            assert len([i for i in result if i.origin == "uwre_positive"]) == 7
    ok(7, "kept = N - floor(N/2), inserted = min(floor(N/2), pool) for N in {1,2,99,100,101}")


# --- 8: mixing: nesting, sizes, determinism, streaming budget ------------------


def synthetic_dataset(n: int, prefix: str) -> Dataset:
    return Dataset(
        instances=tuple(
            Instance(
                id=f"{prefix}{i}",
                question="q",
                context="c",
                answers=(),
                origin="synthetic",
                split="train",
            )
            for i in range(n)
        ),
        name=prefix,
    )


def test_criterion_08_mixing_and_streaming_budget(tmp_path):
    base = synthetic_dataset(100, "b")
    augment = synthetic_dataset(20000, "a")
    write_dataset(base, tmp_path / "b.jsonl")
    write_dataset(augment, tmp_path / "a.jsonl")
    spec = MixSpec(base="b", augment="a", seed=13, sizes=(1000, 10000))
    small, large = (
        load_dataset(path)
        for _, path, _ in mix_files(spec, tmp_path / "b.jsonl", tmp_path / "a.jsonl", tmp_path / "m1")
    )
    assert [d.name for d in (small, large)] == ["b+a@1000", "b+a@10000"]
    assert len(small) == 100 + 1000
    assert len(large) == 100 + 10000
    assert {i.id for i in small} <= {i.id for i in large}
    again = mix_files(spec, tmp_path / "b.jsonl", tmp_path / "a.jsonl", tmp_path / "m2")
    assert [path.read_bytes() for _, path, _ in again] == [
        (tmp_path / "m1" / f"{d.name}.jsonl").read_bytes() for d in (small, large)
    ]

    # streaming over a million-line augment stays within time and memory budget
    line = (
        '{"id":"%s","question":"q","context":"c","answers":[],'
        '"relation":null,"subject_entity":null,"origin":"synthetic","split":"train"}\n'
    )
    base_path = tmp_path / "base.jsonl"
    augment_path = tmp_path / "augment.jsonl"
    with open(base_path, "w", encoding="utf-8") as f:
        f.writelines(line % f"b{i:04d}" for i in range(1000))
    with open(augment_path, "w", encoding="utf-8") as f:
        f.writelines(line % f"a{i:07d}" for i in range(1_000_000))
    out_dir = tmp_path / "out"
    config = tmp_path / "mix.json"
    config.write_text(
        json.dumps({"base": "base", "augment": "aug", "seed": 5, "sizes": [1000, 1000000]}),
        encoding="utf-8",
    )
    started = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, "-m", "slotqa", "mix",
            "--config", str(config),
            "--base", str(base_path),
            "--augment", str(augment_path),
            "--out-dir", str(out_dir),
        ],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60.0, f"streaming mix took {elapsed:.1f}s"
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    assert peak_kb < 1024 * 1024, f"child peak rss {peak_kb} KB"

    small_path = out_dir / "base+aug@1000.jsonl"
    big_path = out_dir / "base+aug@1000000.jsonl"
    with open(small_path, "r", encoding="utf-8") as f:
        small_lines = f.readlines()
    assert len(small_lines) == 1000 + 1000
    with open(big_path, "r", encoding="utf-8") as f:
        big_count = sum(1 for _ in f)
    assert big_count == 1000 + 1_000_000

    # the streamed small output must nest in the big one and match the library
    chosen = set(small_lines[1000:])
    found = 0
    with open(big_path, "r", encoding="utf-8") as f:
        for line_ in f:
            if line_ in chosen:
                found += 1
    assert found == 1000
    direct = mix_files(
        MixSpec(base="base", augment="aug", seed=5, sizes=(1000,)),
        base_path,
        augment_path,
        tmp_path / "direct",
    )
    assert direct[0][1].read_bytes() == small_path.read_bytes()
    ok(8, f"nesting and sizes hold; 1e6-line mix in {elapsed:.1f}s, peak {peak_kb // 1024} MB")


# --- 9: the bundled corpus is solved exactly -----------------------------------


def test_criterion_09_bundled_pipeline_is_exact():
    with open(FIXTURES / "synthetic_squad.json", "r", encoding="utf-8") as f:
        document = json.load(f)
    positives, report = ingest_squad(document, "train")
    assert len(positives) == 50 and report.skipped == 0
    both, _ = negativize_squad(positives, keep_positives=True)
    assert len(both) == 100
    adapted, _ = insert_no_answer_token(both)
    assert validate_dataset(adapted) == []

    # threshold = midpoint between the best negative score (no candidate at
    # all on this corpus, i.e. 0) and the weakest positive best score,
    # both found by exhaustive enumeration
    table = build_idf(adapted)
    probe = BaselineConfig(no_answer_threshold=0.0)
    sentinel = (Span(0, adapted.no_answer_token),)
    pos_scores, neg_scores = [], []
    for inst in adapted:
        best = oracle_best_span(inst, probe, table)
        if inst.answers == sentinel:
            neg_scores.append(0.0 if best is None else best[0])
        else:
            assert best is not None
            pos_scores.append(best[0])
    assert max(neg_scores) < min(pos_scores)
    threshold = (max(neg_scores) + min(pos_scores)) / 2
    config = BaselineConfig(no_answer_threshold=threshold)
    predictions = predict_dataset(adapted, config, table)
    scored = score_slot_filling(adapted, predictions)
    assert (scored.precision, scored.recall, scored.f1) == (1.0, 1.0, 1.0)

    # challenge companion: threshold separates swapped questions from real ones
    uwre, inventory = _ingest_fixture_uwre()
    challenge, _ = build_challenge_set(uwre, inventory, seed=20260819)
    assert len(challenge) == 50
    ctable = build_idf(challenge)
    chal_best = [oracle_best_span(i, probe, ctable) for i in challenge]
    own_best = [oracle_best_span(i, probe, build_idf(uwre)) for i in uwre]
    max_chal = max(b[0] for b in chal_best)
    min_own = min(b[0] for b in own_best)
    assert max_chal < min_own
    cthreshold = (max_chal + min_own) / 2
    cconfig = BaselineConfig(no_answer_threshold=cthreshold)
    accuracy = score_challenge_accuracy(
        challenge, predict_dataset(challenge, cconfig)
    ).accuracy
    assert accuracy == 1.0
    own_scored = score_slot_filling(uwre, predict_dataset(uwre, cconfig))
    assert (own_scored.precision, own_scored.recall, own_scored.f1) == (1.0, 1.0, 1.0)
    ok(
        9,
        f"bundled corpus: F1=1.0 at threshold {threshold:.2f}, "
        f"challenge accuracy 1.0 at {cthreshold:.2f}",
    )


# --- 10: template instantiation -------------------------------------------------


def test_criterion_10_template_instantiation():
    templates, rejections = load_templates(FIXTURES / "templates.tsv")
    assert rejections == []
    template = by_relation(templates)["place_of_birth"][0]
    question = instantiate(template, "Obama")
    assert question == "Where was Obama born?"
    ok(10, "inventory template yields 'Where was Obama born?'")

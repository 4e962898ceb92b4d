"""Adversarial negatives: same sentence, same relation, wrong entity.

For each positive (relation r, entity e, sentence s) a donor entity e' is
drawn, via a seeded uniform choice, from the other entities of relation r
that do not occur in s (case-insensitive substring check on raw surface
forms, no lemmatization). The sentence is paired with the question about
e' instead, which makes the instance an unanswerable near-miss.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence

from .model import Dataset, DataError, Instance, QuestionTemplate, TransformReport
from .templates import by_relation, instantiate


def derive_seed(master_seed: int, label: str) -> int:
    """A stable sub-seed for ``label``, independent of interpreter hashing."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class MissingTemplateError(DataError):
    """A positive with a donor has a relation that no question template covers."""

    def __init__(self, relation: str) -> None:
        super().__init__(f"no question template for relation {relation!r}")
        self.relation = relation


def _require_positive(inst: Instance) -> None:
    if inst.origin != "uwre_positive":
        raise DataError(
            f"challenge building needs uwre_positive instances; {inst.id!r} has origin {inst.origin!r}"
        )
    if not inst.relation or not inst.subject_entity:
        raise DataError(f"{inst.id!r}: relation and subject_entity must be populated")


def build_challenge_set(
    positives: Dataset, templates: Sequence[QuestionTemplate], seed: int
) -> tuple[Dataset, TransformReport]:
    """Build one challenge negative per positive, where a donor entity exists.

    Donor choice is uniform over the distinct eligible entities of the same
    relation (first-seen surface forms, deduplicated case-insensitively).
    Positives without any eligible donor are skipped and counted. One RNG
    stream seeded with ``seed`` is consumed in input order; skipped
    positives consume nothing. A dataset adapted with a no-answer token is
    refused: its challenge negatives would hold no sentinel span.
    """
    if positives.no_answer_token is not None:
        raise DataError(f"build-challenge requires a dataset without a no-answer adaptation;"
                        f" it is adapted with token {positives.no_answer_token!r}")
    grouped = by_relation(templates)
    # relation -> (surface form, lowered) of each distinct entity, lowered once
    entities: dict[str, list[tuple[str, str]]] = {}
    seen: set[tuple[str, str]] = set()
    for inst in positives:
        _require_positive(inst)
        lowered = inst.subject_entity.lower()
        key = (inst.relation, lowered)
        if key not in seen:
            seen.add(key)
            entities.setdefault(inst.relation, []).append((inst.subject_entity, lowered))

    rng = random.Random(seed)
    out: list[Instance] = []
    report = TransformReport(operation="build-challenge", input_count=len(positives),
                             parameters={"seed": seed})
    for inst in positives:
        own = inst.subject_entity.lower()
        context_lower = inst.context.lower()
        eligible = [
            e
            for e, lowered in entities[inst.relation]
            if lowered != own and lowered not in context_lower
        ]
        if not eligible:
            report.skipped += 1
            report.note(f"{inst.id}: no eligible donor entity")
            continue
        donor = rng.choice(eligible)
        if inst.relation not in grouped:
            raise MissingTemplateError(inst.relation)
        question = instantiate(grouped[inst.relation][0], donor)
        out.append(
            Instance(
                id=inst.id + "-chal",
                question=question,
                context=inst.context,
                answers=(),
                relation=inst.relation,
                subject_entity=donor,
                origin="challenge_negative",
                split=inst.split,
            )
        )
    report.extra = {"skipped_no_donor": report.skipped, "seed": seed}
    return report.finish(positives, out, {"skipped_no_donor": report.skipped}, seed,
                         name=f"{positives.name}-challenge" if positives.name else "challenge")


def build_uwre_plus(
    split_dataset: Dataset, challenge_pool: Dataset, seed: int
) -> tuple[Dataset, TransformReport]:
    """Replace half of a split's original negatives with challenge negatives.

    With N original negatives, floor(N/2) of them are removed by a seeded
    uniform sample, and min(floor(N/2), pool size) challenge instances are
    inserted, sampled from the pool without replacement. Positives are
    untouched. Kept instances stay in their original order; the inserted
    challenge instances follow at the end, in pool order. The removal
    sample is drawn before the insertion sample from a single RNG stream.
    A split and a pool with different no-answer adaptations are refused.
    """
    split_token, pool_token = split_dataset.no_answer_token, challenge_pool.no_answer_token
    if split_token != pool_token:
        raise DataError("cannot build uwre-plus from a split and a pool with different no-answer"
                        f" adaptations: {split_token!r} vs {pool_token!r}")
    negative_positions = [
        i for i, inst in enumerate(split_dataset) if inst.origin == "uwre_negative"
    ]
    n_negatives = len(negative_positions)
    if n_negatives == 0:
        raise DataError("split contains no uwre_negative instances")
    if len(challenge_pool) == 0:
        raise DataError("challenge pool is empty")
    for inst in challenge_pool:
        if inst.origin != "challenge_negative":
            raise DataError(
                f"challenge pool must contain challenge_negative instances; "
                f"{inst.id!r} has origin {inst.origin!r}"
            )
    split_ids = {inst.id for inst in split_dataset}
    colliding = sorted(split_ids & {inst.id for inst in challenge_pool})
    if colliding:
        raise DataError(f"challenge pool ids collide with split ids: {colliding[:10]}")

    to_remove = n_negatives // 2
    rng = random.Random(seed)
    removed = set(rng.sample(negative_positions, to_remove))
    n_inserted = min(to_remove, len(challenge_pool))
    inserted = sorted(rng.sample(range(len(challenge_pool)), n_inserted))

    out = [inst for i, inst in enumerate(split_dataset) if i not in removed]
    out.extend(challenge_pool.instances[i] for i in inserted)

    report = TransformReport(
        operation="build-uwre-plus",
        input_count=len(split_dataset),
        parameters={"seed": seed},
        extra={
            "original_negatives": n_negatives,
            "removed": to_remove,
            "inserted": n_inserted,
            "shortfall": to_remove - n_inserted,
            "seed": seed,
        },
    )
    return report.finish(split_dataset, out, {"removed": to_remove, "inserted": n_inserted}, seed,
                         name=f"{split_dataset.name}-plus" if split_dataset.name else "uwre-plus")

"""Seeded synthetic corpus for the slotqa benchmark (stdlib only).

Every file depends on the seed and the requested sizes alone, never on the
package under test, so a change to slotqa cannot change its own inputs.

* ``squad.json``: SQuAD v1.1 paragraphs of about six sentences (~630
  characters). One sentence carries the answer; the fillers hold
  abbreviations ("Dr.", "U.S.", "e.g.") and initials ("J. Talvor") in
  mid-sentence, so the segmenter's suppression path runs on every context.
  Every answer lies inside one sentence and every context has fillers, so
  ingest keeps every question and negativize skips none.
* ``records.tsv``: slot-filling records over 20 relations in the style of
  Levy et al. 2017, about 60% positives, with 250 subject
  entities per relation so that challenge donors always exist.
* ``base.jsonl`` / ``augment.jsonl``: canonical JSONL for the mix
  workloads, with disjoint ids and no sidecars.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

_ONSETS = "b c d f g h j k l m n p r s t v w z br dr gr kl pr st tr".split()
_VOWELS = "a e i o u ai ea io".split()
_CODAS = ["", "", "n", "r", "s", "l", "th", "nd"]


class Words:
    """Pseudo-words and names drawn from one seeded generator."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def word(self, syllables: int | None = None) -> str:
        n = syllables or self.rng.randint(1, 3)
        return "".join(
            self.rng.choice(_ONSETS) + self.rng.choice(_VOWELS) + self.rng.choice(_CODAS)
            for _ in range(n)
        )

    def name(self) -> str:
        return self.word(2).capitalize()

    def person(self) -> str:
        return f"{self.name()} {self.name()}"

    def distinct(self, make, count: int) -> list[str]:
        seen: set[str] = set()
        out = []
        while len(out) < count:
            value = make()
            if value.lower() not in seen:
                seen.add(value.lower())
                out.append(value)
        return out


_MONTHS = "January February March April May June July August September October November December".split()

# Each filler ends in a plain lowercase word, so the split after it is never
# suppressed, and its abbreviations and initials sit mid-sentence.
_FILLERS = [
    "In {year}, Dr. {last} described the {adj} {noun} of {place} to the {org} council and asked for a second survey of the valley.",
    "The {noun} near St. {place} was rebuilt by {initial}. {last} and a crew of {num} {noun2}s over three dry summers.",
    "Several {noun2}s, e.g. the {adj} {noun} of {place}, moved to the U.S. {org} office in the spring of that year.",
    "Mr. {last} later wrote that the {noun} had held {num} {noun2}s before the {adj} flood reached the lower town.",
    "Records kept by {initial}.{initial2}. {last} list the {noun} among the {adj} {noun2}s of {place} that still stand today.",
    "Visitors at {time} a.m. could see the {adj} {noun} from the {org} tower, i.e. the old {noun2} gate on the hill.",
    "The {org} council met with Prof. {last} to discuss the {noun2} tax on the {adj} {noun} trade along the river.",
]

# (answer sentence, question, answer slot). Each answer sentence holds an
# abbreviation or an initial too: were its split not suppressed, negativize
# would keep the half without the answer, and the digests would change.
_FACTS = [
    (
        "Dr. {person} founded the {org} Company in {city} in {year}.",
        "In which city did {person} found the {org} Company?",
        "city",
    ),
    (
        "{person} was born in St. {city} on {date}.",
        "When was {person} born?",
        "date",
    ),
    (
        "The {org} guild hired {num} {noun2}s to build the {noun} for Capt. {last}.",
        "How many {noun2}s did the {org} guild hire to build the {noun}?",
        "num",
    ),
    (
        "The {adj} {noun} of {city} was designed by {initial}. {person} for the {org} family.",
        "Who designed the {adj} {noun} of {city}?",
        "person",
    ),
    (
        "After the {adj} war, Gen. {person} moved the {org} archive to {city}.",
        "Where did {person} move the {org} archive after the war?",
        "city",
    ),
]


def _slots(words: Words, rng: random.Random) -> dict:
    return {
        "year": str(rng.randint(1600, 2020)),
        "last": words.name(),
        "adj": words.word(2),
        "noun": words.word(2),
        "noun2": words.word(1),
        "place": words.name(),
        "city": words.name(),
        "org": words.name(),
        "person": words.person(),
        "initial": rng.choice("ABCDEFGHJKLMNPRSTW"),
        "initial2": rng.choice("ABCDEFGHJKLMNPRSTW"),
        "num": str(rng.randint(12, 990)),
        "time": str(rng.randint(5, 11)),
        "date": f"{rng.choice(_MONTHS)} {rng.randint(1, 28)}, {rng.randint(1600, 2020)}",
    }


def squad_document(seed: int, paragraphs: int, fillers: int = 5) -> dict:
    """A SQuAD v1.1 document with one question per paragraph."""
    rng = random.Random(f"squad:{seed}")
    words = Words(rng)
    articles = []
    for p in range(paragraphs):
        if p % 20 == 0:
            articles.append({"title": words.name(), "paragraphs": []})
        sentences = [rng.choice(_FILLERS).format(**_slots(words, rng)) for _ in range(fillers)]
        fact, question, slot = rng.choice(_FACTS)
        values = _slots(words, rng)
        answer_sentence = fact.format(**values)
        position = rng.randint(0, fillers)
        offset = sum(len(s) + 1 for s in sentences[:position])
        sentences.insert(position, answer_sentence)
        context = " ".join(sentences)
        answer = values[slot]
        start = offset + answer_sentence.index(answer)
        assert context[start : start + len(answer)] == answer
        articles[-1]["paragraphs"].append(
            {
                "context": context,
                "qas": [
                    {
                        "id": f"sq{seed}-{p:06d}",
                        "question": question.format(**values),
                        "answers": [{"text": answer, "answer_start": start}],
                    }
                ],
            }
        )
    return {"version": "1.1", "data": articles}


# (relation, question template, positive pattern, negative pattern); the
# object is a name, a city or a year.
_RELATIONS = [
    ("place_of_birth", "Where was XXX born?", "{e} was born in {city}.", "{e} once visited {city} in winter."),
    ("place_of_death", "Where did XXX die?", "{e} died in {city} after a long illness.", "{e} wrote about {city} in a letter."),
    ("date_of_birth", "When was XXX born?", "{e} was born in {year}.", "{e} painted the harbor in {year}."),
    ("educated_at", "Where did XXX study?", "{e} studied at the University of {city}.", "{e} gave one talk at the University of {city}."),
    ("employer", "Who employed XXX?", "{e} worked for {org} for many years.", "{e} once bought shares of {org}."),
    ("spouse", "Who is XXX married to?", "{e} married {person} in a small ceremony.", "{e} met {person} at a conference."),
    ("father", "Who is the father of XXX?", "{e} is the son of {person}.", "{e} shared an office with {person}."),
    ("mother", "Who is the mother of XXX?", "{e} was raised by the mother {person}.", "{e} interviewed {person} on the radio."),
    ("country_of_citizenship", "What country is XXX a citizen of?", "{e} is a citizen of {city}land.", "{e} toured {city}land with a band."),
    ("occupation", "What is the occupation of XXX?", "{e} worked as a {noun} all her life.", "{e} admired every {noun} in town."),
    ("member_of", "What organization is XXX a member of?", "{e} is a member of the {org} Society.", "{e} criticized the {org} Society in print."),
    ("founded_by", "Who founded XXX?", "{e} was founded by {person}.", "{e} was praised by {person}."),
    ("headquarters", "Where is XXX headquartered?", "{e} has its headquarters in {city}.", "{e} opened a small shop in {city}."),
    ("inception", "When was XXX founded?", "{e} was established in {year}.", "{e} changed its logo in {year}."),
    ("author", "Who wrote XXX?", "{e} was written by {person}.", "{e} was reviewed by {person}."),
    ("publisher", "Who published XXX?", "{e} was published by {org} Press.", "{e} was discussed at {org} Press."),
    ("genre", "What genre is XXX?", "{e} is a {noun} novel.", "{e} mentions a {noun} once."),
    ("located_in", "Where is XXX located?", "{e} is located in {city}.", "{e} is often compared to {city}."),
    ("instrument", "What instrument does XXX play?", "{e} plays the {noun} in an orchestra.", "{e} dislikes the sound of the {noun}."),
    ("record_label", "What label is XXX signed to?", "{e} signed with {org} Records.", "{e} sued {org} Records."),
]


def uwre_records(seed: int, records: int, entities_per_relation: int = 250) -> str:
    """Slot-filling TSV text with about 60% positive records."""
    rng = random.Random(f"uwre:{seed}")
    words = Words(rng)
    names = words.distinct(words.person, entities_per_relation * len(_RELATIONS))
    lines = []
    for r in range(records):
        index = rng.randrange(len(_RELATIONS))
        relation, template, positive, negative = _RELATIONS[index]
        entity = names[index * entities_per_relation + rng.randrange(entities_per_relation)]
        values = {
            "e": entity,
            "city": words.name(),
            "year": str(rng.randint(1500, 2020)),
            "org": words.name(),
            "person": words.person(),
            "noun": words.word(2),
        }
        if rng.random() < 0.6:
            sentence = positive.format(**values)
            answer = next(values[k] for k in ("city", "year", "org", "person", "noun") if "{" + k + "}" in positive)
        else:
            sentence = negative.format(**values)
            answer = ""
        lines.append(f"{relation}\t{template}\t{entity}\t{sentence}\t{answer}\n")
    return "".join(lines)


def _instance_line(inst_id: str, question: str, context: str, answer: str, origin: str, split: str) -> str:
    # Key order and separators of slotqa's canonical form (json.dumps defaults).
    answers = [{"start": context.index(answer), "text": answer}] if answer else []
    return json.dumps(
        {
            "id": inst_id,
            "question": question,
            "context": context,
            "answers": answers,
            "relation": None,
            "subject_entity": None,
            "origin": origin,
            "split": split,
        },
        ensure_ascii=False,
    )


def write_mix_inputs(seed: int, directory: Path, base_lines: int, augment_lines: int) -> None:
    """Write base.jsonl and augment.jsonl; augment lines reuse a seeded pool of bodies."""
    rng = random.Random(f"mix:{seed}")
    words = Words(rng)
    pool = []
    for _ in range(4096):
        person, city = words.person(), words.name()
        context = f"{person} was born in {city} in {rng.randint(1600, 2020)}."
        line = _instance_line("", f"Where was {person} born?", context, city, "squad_positive", "train")
        pool.append(line[len('{"id": ""') :])
    with open(directory / "base.jsonl", "w", encoding="utf-8", newline="\n") as f:
        for i in range(base_lines):
            person, city = words.person(), words.name()
            context = f"{person} was born in {city}."
            f.write(_instance_line(f"base-{i:05d}", f"Where was {person} born?", context, city, "squad_positive", "dev"))
            f.write("\n")
    bits = rng.getrandbits
    with open(directory / "augment.jsonl", "w", encoding="utf-8", newline="\n") as f:
        chunk = []
        for i in range(augment_lines):
            chunk.append(f'{{"id": "aug-{i:07d}"{pool[bits(12)]}\n')
            if len(chunk) == 10000:
                f.write("".join(chunk))
                chunk.clear()
        f.write("".join(chunk))


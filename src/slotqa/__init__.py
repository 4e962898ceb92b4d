"""slotqa: turn extractive QA data into KB slot-filling data and score it.

The toolkit converts between SQuAD-style QA and slot-filling formats,
builds negative and adversarial instances, mixes datasets under seeded
nested sampling, adapts datasets with a no-answer dummy token, and scores
predictions under slot-filling conventions. Everything is deterministic
under explicit seeds.

The public names below are resolved on first access, so ``import slotqa``
and each CLI subcommand load only the modules they use.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    "BaselineConfig": "baseline",
    "IdfTable": "baseline",
    "build_idf": "baseline",
    "predict": "baseline",
    "predict_dataset": "baseline",
    "uniform_idf": "baseline",
    "build_challenge_set": "challenge",
    "build_uwre_plus": "challenge",
    "derive_seed": "challenge",
    "ingest_squad": "ingest",
    "ingest_uwre": "ingest",
    "EvalReport": "metrics",
    "normalize_answer": "metrics",
    "score_challenge_accuracy": "metrics",
    "score_slot_filling": "metrics",
    "MixSpec": "mixer",
    "mix_files": "mixer",
    "DEFAULT_NO_ANSWER_TOKEN": "model",
    "Dataset": "model",
    "DataError": "model",
    "Instance": "model",
    "ParseError": "model",
    "Prediction": "model",
    "QuestionTemplate": "model",
    "Span": "model",
    "TransformReport": "model",
    "Violation": "model",
    "dumps_instance": "model",
    "instance_from_dict": "model",
    "instance_to_dict": "model",
    "load_dataset": "model",
    "read_instances": "model",
    "read_predictions": "model",
    "validate_dataset": "model",
    "write_dataset": "model",
    "write_instances": "model",
    "write_predictions": "model",
    "PLACEHOLDER": "templates",
    "instantiate": "templates",
    "load_templates": "templates",
    "save_templates": "templates",
    "SentenceBoundary": "transforms",
    "insert_no_answer_token": "transforms",
    "negativize_squad": "transforms",
    "segment_sentences": "transforms",
    "strip_no_answer_token": "transforms",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        # not a public name: ``from slotqa import cli`` then imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


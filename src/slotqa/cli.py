"""Command-line interface.

Every subcommand that writes a file also writes a ``<file>.prov.json``
sidecar carrying the dataset metadata and the full provenance chain:
``{"operation", "parameters", "seed"}`` entries, where parameters include
the input and output paths. ``replay`` re-executes such a chain and
verifies that each recorded output is reproduced byte for byte.

Exit codes: 0 success, 1 validation or data failure, 2 usage error
(unknown flags, missing or unreadable files, schema failures).

Each runner imports the layer modules it uses when it runs, so a subcommand
(and ``--help``) loads only what it needs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from .model import (
    DEFAULT_NO_ANSWER_TOKEN,
    Dataset,
    DataError,
    ParseError,
    load_dataset,
    provenance_entries,
    read_predictions,
    sidecar_path,
    validate_dataset,
    write_dataset,
    write_predictions,
)

if TYPE_CHECKING:
    from .baseline import BaselineConfig


def _write_json(obj: dict, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(obj, f, ensure_ascii=False, indent=2)
        f.write("\n")


def _amend_last_entry(dataset: Dataset, extra: dict) -> Dataset:
    """Fold CLI-level details (file paths) into the newest provenance entry."""
    log = list(dataset.provenance_log)
    entry = dict(log[-1])
    parameters = dict(entry["parameters"])
    parameters.update(extra)
    entry["parameters"] = parameters
    log[-1] = entry
    return replace(dataset, provenance_log=tuple(log))


def _plain_sidecar(path: Path, entry: dict) -> None:
    _write_json(
        {"name": Path(path).stem, "no_answer_token": None, "provenance_log": [entry]},
        sidecar_path(path),
    )


# --- runners shared by the subcommands and replay ---


def run_ingest_squad(in_path: str, split: str, out_path: str | Path) -> "tuple":
    from .ingest import ingest_squad

    with open(in_path, "r", encoding="utf-8") as f:
        try:
            document = json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(f"{in_path}: invalid JSON: {e}") from e
    dataset, report = ingest_squad(document, split)
    dataset = _amend_last_entry(dataset, {"in": str(in_path), "out": str(out_path)})
    write_dataset(dataset, out_path)
    return dataset, report


def run_ingest_uwre(
    in_path: str, split: str, out_path: str | Path, templates_out: str | None
) -> "tuple":
    from .ingest import ingest_uwre
    from .templates import save_templates

    with open(in_path, "r", encoding="utf-8") as f:
        dataset, inventory, report = ingest_uwre(f, split)
    dataset = _amend_last_entry(
        dataset,
        {"in": str(in_path), "out": str(out_path), "templates_out": templates_out},
    )
    write_dataset(dataset, out_path)
    if templates_out:
        save_templates(inventory, templates_out)
    return dataset, inventory, report


def run_negativize(in_path: str, out_path: str | Path, keep_positives: bool) -> "tuple":
    from .transforms import negativize_squad

    dataset = load_dataset(in_path)
    result, report = negativize_squad(dataset, keep_positives=keep_positives)
    result = _amend_last_entry(result, {"in": str(in_path), "out": str(out_path)})
    write_dataset(result, out_path)
    return result, report


def run_adapt_noanswer(in_path: str, out_path: str | Path, token: str) -> Dataset:
    from .transforms import insert_no_answer_token

    dataset = load_dataset(in_path)
    result, _ = insert_no_answer_token(dataset, token)
    result = _amend_last_entry(result, {"in": str(in_path), "out": str(out_path)})
    write_dataset(result, out_path)
    return result


def run_build_challenge(
    in_path: str, templates_path: str, seed: int, out_path: str | Path
) -> "tuple":
    from .challenge import build_challenge_set
    from .templates import load_templates

    dataset = load_dataset(in_path)
    positives = tuple(inst for inst in dataset if inst.origin == "uwre_positive")
    if not positives:
        raise DataError(f"{in_path}: no uwre_positive instances to build from")
    templates, rejections = load_templates(templates_path)
    source = replace(dataset, instances=positives)
    result, report = build_challenge_set(source, templates, seed)
    report.notes.extend(rejections)
    result = _amend_last_entry(
        result,
        {"in": str(in_path), "templates": str(templates_path), "out": str(out_path)},
    )
    write_dataset(result, out_path)
    return result, report


def run_build_uwre_plus(
    in_path: str,
    pool_path: str,
    seed: int,
    out_path: str | Path,
    split_label: str | None = None,
) -> "tuple":
    from .challenge import build_uwre_plus, derive_seed

    effective = derive_seed(seed, split_label) if split_label else seed
    dataset = load_dataset(in_path)
    pool = load_dataset(pool_path)
    result, report = build_uwre_plus(dataset, pool, effective)
    extra = {"in": str(in_path), "pool": str(pool_path), "out": str(out_path)}
    if split_label:
        extra["master_seed"] = seed
        extra["split_label"] = split_label
    result = _amend_last_entry(result, extra)
    write_dataset(result, out_path)
    return result, report


def run_predict_baseline(
    in_path: str, out_path: str | Path, config: BaselineConfig
) -> list:
    from .baseline import predict_dataset

    dataset = load_dataset(in_path)
    predictions = predict_dataset(dataset, config)
    write_predictions(predictions, out_path)
    entry = {
        "operation": "predict-baseline",
        "parameters": {"in": str(in_path), "out": str(out_path), **config.to_dict()},
        "seed": None,
    }
    _plain_sidecar(Path(out_path), entry)
    return predictions


def _scored_dataset(dataset_path: str, token_override: str | None) -> Dataset:
    dataset = load_dataset(dataset_path)
    if token_override is not None:
        dataset = replace(dataset, no_answer_token=token_override)
    return dataset


def run_score(
    dataset_path: str,
    preds_path: str,
    out_path: str | None,
    match: str,
    token_override: str | None,
):
    from .metrics import score_slot_filling

    dataset = _scored_dataset(dataset_path, token_override)
    predictions = read_predictions(preds_path)
    report = score_slot_filling(dataset, predictions, match=match)
    if out_path:
        _write_json(report.to_dict(), out_path)
        entry = {
            "operation": "score",
            "parameters": {
                "dataset": str(dataset_path),
                "preds": str(preds_path),
                "out": str(out_path),
                "match": match,
                "noanswer_token": token_override,
            },
            "seed": None,
        }
        _plain_sidecar(Path(out_path), entry)
    return report


def run_score_challenge(
    dataset_path: str, preds_path: str, out_path: str | None, token_override: str | None
):
    from .metrics import score_challenge_accuracy

    dataset = _scored_dataset(dataset_path, token_override)
    predictions = read_predictions(preds_path)
    report = score_challenge_accuracy(dataset, predictions)
    if out_path:
        _write_json(report.to_dict(), out_path)
        entry = {
            "operation": "score-challenge",
            "parameters": {
                "dataset": str(dataset_path),
                "preds": str(preds_path),
                "out": str(out_path),
                "noanswer_token": token_override,
            },
            "seed": None,
        }
        _plain_sidecar(Path(out_path), entry)
    return report


# --- subcommand handlers ---


def _report_out(report, path: str | None) -> None:
    if path:
        _write_json(report.to_dict(), path)


def cmd_ingest_squad(args) -> int:
    dataset, report = run_ingest_squad(args.in_path, args.split, args.out)
    _report_out(report, args.report)
    print(
        f"wrote {len(dataset)} instances to {args.out}"
        f" ({report.skipped} dropped of {report.input_count} questions)"
    )
    return 0


def cmd_ingest_uwre(args) -> int:
    dataset, inventory, report = run_ingest_uwre(
        args.in_path, args.split, args.out, args.templates_out
    )
    _report_out(report, args.report)
    message = (
        f"wrote {len(dataset)} instances to {args.out}"
        f" ({report.skipped} dropped of {report.input_count} records)"
    )
    if args.templates_out:
        message += f"; {len(inventory)} templates to {args.templates_out}"
    print(message)
    return 0


def cmd_negativize(args) -> int:
    result, report = run_negativize(args.in_path, args.out, args.keep_positives)
    _report_out(report, args.report)
    print(
        f"wrote {len(result)} instances to {args.out}"
        f" ({report.skipped} positives skipped: nothing left after removal)"
    )
    return 0


def cmd_adapt_noanswer(args) -> int:
    result = run_adapt_noanswer(args.in_path, args.out, args.token)
    print(f"wrote {len(result)} adapted instances to {args.out} (token {args.token!r})")
    return 0


def cmd_build_challenge(args) -> int:
    result, report = run_build_challenge(args.in_path, args.templates, args.seed, args.out)
    _report_out(report, args.report)
    print(
        f"wrote {len(result)} challenge instances to {args.out}"
        f" ({report.extra['skipped_no_donor']} positives had no donor)"
    )
    return 0


def cmd_build_uwre_plus(args) -> int:
    result, report = run_build_uwre_plus(
        args.in_path, args.pool, args.seed, args.out, args.split_label
    )
    _report_out(report, args.report)
    print(
        f"wrote {len(result)} instances to {args.out}"
        f" (removed {report.extra['removed']} negatives,"
        f" inserted {report.extra['inserted']}, shortfall {report.extra['shortfall']})"
    )
    return 0


def cmd_mix(args) -> int:
    from .mixer import MixSpec, mix_files

    spec = MixSpec.from_json_file(args.config)
    results = mix_files(spec, args.base, args.augment, args.out_dir)
    for name, path, report in results:
        print(f"wrote {report.output_count} instances to {path}")
    return 0


def _baseline_config(args) -> "BaselineConfig":
    """The flags that were given; BaselineConfig supplies the defaults of the rest."""
    from .baseline import BaselineConfig

    given = {
        "max_span_tokens": args.max_span_tokens,
        "no_answer_threshold": args.threshold,
        "idf_source": args.idf,
    }
    return BaselineConfig(**{key: value for key, value in given.items() if value is not None})


def cmd_predict_baseline(args) -> int:
    config = _baseline_config(args)
    config.validate()
    predictions = run_predict_baseline(args.in_path, args.out, config)
    answered = sum(1 for p in predictions if p.answer is not None)
    print(
        f"wrote {len(predictions)} predictions to {args.out}"
        f" ({answered} answered, {len(predictions) - answered} no-answer)"
    )
    return 0


def cmd_score(args) -> int:
    report = run_score(args.dataset, args.preds, args.out, args.match, args.noanswer_token)
    print(report.to_tsv() if args.tsv else json.dumps(report.to_dict(), indent=2, ensure_ascii=False))
    return 0


def cmd_score_challenge(args) -> int:
    report = run_score_challenge(args.dataset, args.preds, args.out, args.noanswer_token)
    print(report.to_tsv() if args.tsv else json.dumps(report.to_dict(), indent=2, ensure_ascii=False))
    return 0


def cmd_validate(args) -> int:
    dataset = load_dataset(args.in_path)
    violations = validate_dataset(dataset)
    if not violations:
        print(f"OK: {len(dataset)} instances, no violations")
        return 0
    for v in violations:
        print(f"{v.instance_id}\t{v.invariant}\t{v.message}")
    print(f"{len(violations)} violations in {len(dataset)} instances", file=sys.stderr)
    return 1


# --- replay ---

# operation -> (input path keys, types of its other recorded values, handler
# building [(recorded, candidate)] pairs). A type names a parameter, except
# "seed", which is the entry's own.


def _rp_ingest_squad(entry, workdir):
    p = entry["parameters"]
    candidate = workdir / Path(p["out"]).name
    run_ingest_squad(p["in"], p["split"], candidate)
    return [(Path(p["out"]), candidate)]


def _rp_ingest_uwre(entry, workdir):
    p = entry["parameters"]
    candidate = workdir / Path(p["out"]).name
    pairs = [(Path(p["out"]), candidate)]
    templates_candidate = None
    templates_out = p.get("templates_out")
    if templates_out:
        templates_candidate = str(workdir / Path(templates_out).name)
        pairs.append((Path(templates_out), Path(templates_candidate)))
    run_ingest_uwre(p["in"], p["split"], candidate, templates_candidate)
    return pairs


def _rp_negativize(entry, workdir):
    p = entry["parameters"]
    candidate = workdir / Path(p["out"]).name
    run_negativize(p["in"], candidate, p["keep_positives"])
    return [(Path(p["out"]), candidate)]


def _rp_adapt(entry, workdir):
    p = entry["parameters"]
    candidate = workdir / Path(p["out"]).name
    run_adapt_noanswer(p["in"], candidate, p["token"])
    return [(Path(p["out"]), candidate)]


def _rp_build_challenge(entry, workdir):
    p = entry["parameters"]
    candidate = workdir / Path(p["out"]).name
    run_build_challenge(p["in"], p["templates"], entry["seed"], candidate)
    return [(Path(p["out"]), candidate)]


def _rp_build_uwre_plus(entry, workdir):
    p = entry["parameters"]
    candidate = workdir / Path(p["out"]).name
    run_build_uwre_plus(p["in"], p["pool"], entry["seed"], candidate)
    return [(Path(p["out"]), candidate)]


def _rp_mix(entry, workdir):
    from .mixer import MixSpec, mix_files

    p = entry["parameters"]
    spec = MixSpec(
        base=p["base"], augment=p["augment"], seed=entry["seed"], sizes=(p["size"],)
    )
    results = mix_files(spec, p["base_path"], p["augment_path"], workdir)
    _, candidate, _ = results[0]
    return [(Path(p["out"]), candidate)]


def _rp_predict_baseline(entry, workdir):
    from .baseline import BaselineConfig

    p = entry["parameters"]
    candidate = workdir / Path(p["out"]).name
    config = BaselineConfig(
        max_span_tokens=p["max_span_tokens"],
        no_answer_threshold=p["no_answer_threshold"],
        idf_source=p["idf_source"],
    )
    run_predict_baseline(p["in"], candidate, config)
    return [(Path(p["out"]), candidate)]


def _rp_score(entry, workdir):
    p = entry["parameters"]
    candidate = workdir / Path(p["out"]).name
    run_score(p["dataset"], p["preds"], str(candidate), p["match"], p.get("noanswer_token"))
    return [(Path(p["out"]), candidate)]


def _rp_score_challenge(entry, workdir):
    p = entry["parameters"]
    candidate = workdir / Path(p["out"]).name
    run_score_challenge(p["dataset"], p["preds"], str(candidate), p.get("noanswer_token"))
    return [(Path(p["out"]), candidate)]


_REPLAY = {
    "ingest-squad": (("in",), {"split": "a string"}, _rp_ingest_squad),
    "ingest-uwre": (
        ("in",),
        {"split": "a string", "templates_out": "a string or null"},
        _rp_ingest_uwre,
    ),
    "negativize": (("in",), {"keep_positives": "a boolean"}, _rp_negativize),
    "adapt-noanswer": (("in",), {"token": "a string"}, _rp_adapt),
    "build-challenge": (("in", "templates"), {"seed": "an integer"}, _rp_build_challenge),
    "build-uwre-plus": (("in", "pool"), {"seed": "an integer"}, _rp_build_uwre_plus),
    "mix": (
        ("base_path", "augment_path"),
        {"size": "an integer", "seed": "an integer"},
        _rp_mix,
    ),
    "predict-baseline": (
        ("in",),
        {
            "max_span_tokens": "an integer",
            "no_answer_threshold": "a number",
            "idf_source": "a string",
        },
        _rp_predict_baseline,
    ),
    "score": (
        ("dataset", "preds"),
        {"match": "a string", "noanswer_token": "a string or null"},
        _rp_score,
    ),
    "score-challenge": (
        ("dataset", "preds"),
        {"noanswer_token": "a string or null"},
        _rp_score_challenge,
    ),
}

# JSON true and false are never numbers here
_IS_TYPE = {
    "a string": lambda value: isinstance(value, str),
    "a string or null": lambda value: value is None or isinstance(value, str),
    "a boolean": lambda value: isinstance(value, bool),
    "an integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "a number": lambda value: isinstance(value, (int, float)) and not isinstance(value, bool),
}


class _Recorded(dict):
    """A replay entry or its parameters; a missing key is a ParseError naming the step."""

    def __init__(self, fields: dict, where: str, prefix: str):
        super().__init__(fields)
        self.where = where
        self.prefix = prefix

    def __missing__(self, key):
        raise ParseError(f"{self.where}: missing required key '{self.prefix}{key}'")


_COMPARE_BYTES = 1 << 20


def _same_bytes(a: Path, b: Path) -> bool:
    """Whether two files hold the same bytes, read a block at a time."""
    if a.stat().st_size != b.stat().st_size:
        return False
    with open(a, "rb") as fa, open(b, "rb") as fb:
        while True:
            chunk = fa.read(_COMPARE_BYTES)
            if chunk != fb.read(_COMPARE_BYTES):
                return False
            if not chunk:
                return True


def cmd_replay(args) -> int:
    import tempfile

    with open(args.log, "r", encoding="utf-8") as f:
        try:
            meta = json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(f"{args.log}: invalid JSON: {e}") from e
    if not isinstance(meta, dict) or "provenance_log" not in meta:
        raise ParseError(f"{args.log}: expected a sidecar object with a provenance_log")
    entries = provenance_entries(meta, args.log)
    mismatches = 0
    with tempfile.TemporaryDirectory(dir=os.environ.get("SLOTQA_WORKDIR")) as tmp:
        for i, entry in enumerate(entries):
            operation = entry.get("operation")
            if not isinstance(operation, str) or operation not in _REPLAY:
                print(f"skip: step {i} ({operation}) is not a replayable operation")
                continue
            input_keys, types, handler = _REPLAY[operation]
            where = f"{args.log}: step {i} ({operation})"
            parameters = entry.get("parameters", {})
            if not isinstance(parameters, dict):
                raise ParseError(f"{where}: parameters must be an object")
            parameters = _Recorded(parameters, where, "parameters.")
            entry = _Recorded({**entry, "parameters": parameters}, where, "")
            if "out" not in parameters:
                print(f"skip: step {i} ({operation}) records no output path")
                continue
            for key in (*input_keys, "out"):
                value = parameters.get(key)
                if key in parameters and not (isinstance(value, str) and value):
                    raise ParseError(f"{where}: 'parameters.{key}' must be a non-empty string")
            for key, kind in types.items():
                record, name = (entry, key) if key == "seed" else (parameters, f"parameters.{key}")
                if key in record and not _IS_TYPE[kind](record[key]):
                    raise ParseError(f"{where}: '{name}' must be {kind}")
            for key in input_keys:
                source = parameters.get(key)
                if not source or not Path(source).exists():
                    print(
                        f"missing input for step {i} ({operation}): {key}={source!r}",
                        file=sys.stderr,
                    )
                    return 2
            workdir = Path(tmp) / f"step{i:03d}"
            workdir.mkdir()
            pairs = handler(entry, workdir)
            for recorded, candidate in pairs:
                if not recorded.exists():
                    print(
                        f"missing recorded output for step {i} ({operation}): {recorded}",
                        file=sys.stderr,
                    )
                    return 2
                if not _same_bytes(recorded, candidate):
                    print(f"MISMATCH: step {i} ({operation}) does not reproduce {recorded}")
                    mismatches += 1
                else:
                    print(f"ok: step {i} ({operation}) reproduces {recorded}")
    if mismatches:
        print(f"{mismatches} outputs differ", file=sys.stderr)
        return 1
    return 0


# --- parser ---


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slotqa",
        description="Transform QA datasets into slot-filling form and score predictions.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("ingest-squad", help="convert SQuAD v1.1 JSON to canonical JSONL")
    p.add_argument("--in", dest="in_path", required=True, metavar="FILE")
    p.add_argument("--split", required=True, choices=["train", "dev", "test"])
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--report", metavar="FILE", help="write the ingest report as JSON")
    p.set_defaults(func=cmd_ingest_squad)

    p = sub.add_parser("ingest-uwre", help="convert slot-filling TSV to canonical JSONL")
    p.add_argument("--in", dest="in_path", required=True, metavar="FILE")
    p.add_argument("--split", required=True, choices=["train", "dev", "test"])
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--templates-out", metavar="FILE", help="write the template inventory as TSV")
    p.add_argument("--report", metavar="FILE")
    p.set_defaults(func=cmd_ingest_uwre)

    p = sub.add_parser("negativize", help="delete answer sentences to build negatives")
    p.add_argument("--in", dest="in_path", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--keep-positives", action="store_true", help="emit sources alongside negatives")
    p.add_argument("--report", metavar="FILE")
    p.set_defaults(func=cmd_negativize)

    p = sub.add_parser("adapt-noanswer", help="prefix contexts with the no-answer dummy token")
    p.add_argument("--in", dest="in_path", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--token", default=DEFAULT_NO_ANSWER_TOKEN)
    p.set_defaults(func=cmd_adapt_noanswer)

    p = sub.add_parser("build-challenge", help="build entity-swap challenge negatives")
    p.add_argument("--in", dest="in_path", required=True, metavar="FILE")
    p.add_argument("--templates", required=True, metavar="FILE")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--report", metavar="FILE")
    p.set_defaults(func=cmd_build_challenge)

    p = sub.add_parser(
        "build-uwre-plus", help="replace half of a split's negatives with challenge instances"
    )
    p.add_argument("--in", dest="in_path", required=True, metavar="FILE")
    p.add_argument("--pool", required=True, metavar="FILE", help="challenge instances to draw from")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument(
        "--split-label",
        help="derive the effective seed from the master seed and this label",
    )
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--report", metavar="FILE")
    p.set_defaults(func=cmd_build_uwre_plus)

    p = sub.add_parser("mix", help="concatenate a base with nested samples of an augment")
    p.add_argument("--config", required=True, metavar="FILE", help="MixSpec JSON")
    p.add_argument("--base", required=True, metavar="FILE")
    p.add_argument("--augment", required=True, metavar="FILE")
    p.add_argument("--out-dir", required=True, metavar="DIR")
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("predict-baseline", help="run the lexical overlap baseline")
    p.add_argument("--in", dest="in_path", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--threshold", type=float)
    p.add_argument("--max-span-tokens", type=int)
    p.add_argument("--idf", choices=["self_corpus", "uniform"])
    p.set_defaults(func=cmd_predict_baseline)

    p = sub.add_parser("score", help="slot-filling precision/recall/F1")
    p.add_argument("--dataset", required=True, metavar="FILE")
    p.add_argument("--preds", required=True, metavar="FILE")
    p.add_argument("--out", metavar="FILE", help="write the report as JSON")
    p.add_argument("--match", choices=["exact", "overlap"], default="exact")
    p.add_argument("--noanswer-token", help="map this predicted token to a no-answer")
    p.add_argument("--tsv", action="store_true", help="print one tab-separated line")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("score-challenge", help="no-answer accuracy on an all-negative set")
    p.add_argument("--dataset", required=True, metavar="FILE")
    p.add_argument("--preds", required=True, metavar="FILE")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--noanswer-token", help="map this predicted token to a no-answer")
    p.add_argument("--tsv", action="store_true")
    p.set_defaults(func=cmd_score_challenge)

    p = sub.add_parser("validate", help="check every dataset invariant")
    p.add_argument("--in", dest="in_path", required=True, metavar="FILE")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("replay", help="re-execute a provenance log and verify outputs")
    p.add_argument("--log", required=True, metavar="FILE", help="a .prov.json sidecar")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        # An input that is missing, a directory or unreadable is a usage error.
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

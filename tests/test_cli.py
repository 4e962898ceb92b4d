import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from slotqa import Prediction, load_dataset, read_predictions, write_predictions
from slotqa import cli
from slotqa.cli import main
from slotqa.model import sidecar_path

SQUAD_DOC = {
    "version": "1.1",
    "data": [
        {
            "title": "People",
            "paragraphs": [
                {
                    "context": (
                        "President Obama was born in Honolulu, Hawaii. "
                        "He later moved to Chicago."
                    ),
                    "qas": [
                        {
                            "id": "q1",
                            "question": "Where was Obama born?",
                            "answers": [{"text": "Honolulu, Hawaii", "answer_start": 28}],
                        }
                    ],
                },
                {
                    "context": "Marie Curie studied in Paris. Her lab still stands there.",
                    "qas": [
                        {
                            "id": "q2",
                            "question": "Where did Marie Curie study?",
                            "answers": [{"text": "Paris", "answer_start": 23}],
                        }
                    ],
                },
            ],
        }
    ],
}

UWRE_TSV = (
    "place_of_birth\tWhere was XXX born?\tObama\tObama was born in Honolulu.\tHonolulu\n"
    "place_of_birth\tWhere was XXX born?\tMerkel\tMerkel was born in Hamburg.\tHamburg\n"
    "place_of_birth\tWhere was XXX born?\tCurie\tCurie was born in Warsaw.\tWarsaw\n"
    "place_of_birth\tWhere was XXX born?\tTuring\tTuring liked puzzles.\t\n"
    "place_of_birth\tWhere was XXX born?\tAda\tAda wrote many letters.\t\n"
)


@pytest.fixture
def squad_file(tmp_path):
    path = tmp_path / "squad.json"
    path.write_text(json.dumps(SQUAD_DOC), encoding="utf-8")
    return path


@pytest.fixture
def uwre_file(tmp_path):
    path = tmp_path / "uwre.tsv"
    path.write_text(UWRE_TSV, encoding="utf-8")
    return path


def test_squad_pipeline_end_to_end(tmp_path, squad_file, capsys):
    pos = tmp_path / "pos.jsonl"
    neg = tmp_path / "neg.jsonl"
    adapted = tmp_path / "adapted.jsonl"
    preds = tmp_path / "preds.jsonl"
    report = tmp_path / "report.json"

    assert main(["ingest-squad", "--in", str(squad_file), "--split", "train", "--out", str(pos)]) == 0
    assert main(["validate", "--in", str(pos)]) == 0
    assert main(["negativize", "--in", str(pos), "--out", str(neg)]) == 0
    assert load_dataset(neg).instances[0].context == "He later moved to Chicago."
    assert main(["adapt-noanswer", "--in", str(neg), "--out", str(adapted)]) == 0
    ds = load_dataset(adapted)
    assert ds.no_answer_token == "NoAnswerFound"
    assert [e["operation"] for e in ds.provenance_log] == [
        "ingest-squad",
        "negativize",
        "adapt-noanswer",
    ]
    assert main(["validate", "--in", str(adapted)]) == 0
    assert (
        main(
            [
                "predict-baseline",
                "--in", str(adapted),
                "--out", str(preds),
                "--threshold", "0.5",
            ]
        )
        == 0
    )
    assert len(read_predictions(preds)) == 2
    assert (
        main(
            [
                "score",
                "--dataset", str(adapted),
                "--preds", str(preds),
                "--out", str(report),
                "--tsv",
            ]
        )
        == 0
    )
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert len(line.split("\t")) == 10
    scored = json.loads(report.read_text(encoding="utf-8"))
    assert set(scored) >= {"precision", "recall", "f1", "counts"}


def test_uwre_pipeline_and_challenge(tmp_path, uwre_file, capsys):
    data = tmp_path / "uwre.jsonl"
    templates = tmp_path / "templates.tsv"
    challenge = tmp_path / "challenge.jsonl"
    plus = tmp_path / "plus.jsonl"
    preds = tmp_path / "cpreds.jsonl"

    assert (
        main(
            [
                "ingest-uwre",
                "--in", str(uwre_file),
                "--split", "train",
                "--out", str(data),
                "--templates-out", str(templates),
            ]
        )
        == 0
    )
    assert templates.read_text(encoding="utf-8") == "place_of_birth\tWhere was XXX born?\n"
    assert main(["validate", "--in", str(data)]) == 0

    assert (
        main(
            [
                "build-challenge",
                "--in", str(data),
                "--templates", str(templates),
                "--seed", "5",
                "--out", str(challenge),
            ]
        )
        == 0
    )
    challenge_ds = load_dataset(challenge)
    assert len(challenge_ds) == 3
    assert all(i.origin == "challenge_negative" for i in challenge_ds)
    assert main(["validate", "--in", str(challenge)]) == 0

    assert (
        main(
            [
                "build-uwre-plus",
                "--in", str(data),
                "--pool", str(challenge),
                "--seed", "11",
                "--split-label", "train",
                "--out", str(plus),
            ]
        )
        == 0
    )
    plus_ds = load_dataset(plus)
    assert len([i for i in plus_ds if i.origin == "uwre_negative"]) == 1
    assert len([i for i in plus_ds if i.origin == "challenge_negative"]) == 1
    assert main(["validate", "--in", str(plus)]) == 0

    write_predictions(
        [Prediction(i.id, None) for i in challenge_ds], preds
    )
    assert (
        main(
            ["score-challenge", "--dataset", str(challenge), "--preds", str(preds)]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert '"accuracy": 1.0' in out


def test_mix_cli_roundtrip(tmp_path, uwre_file):
    data = tmp_path / "uwre.jsonl"
    main(["ingest-uwre", "--in", str(uwre_file), "--split", "train", "--out", str(data)])
    base = tmp_path / "base.jsonl"
    main(["ingest-uwre", "--in", str(uwre_file), "--split", "dev", "--out", str(base)])

    config = tmp_path / "mix.json"
    config.write_text(
        json.dumps({"base": "dev", "augment": "train", "seed": 3, "sizes": [2, 4]}),
        encoding="utf-8",
    )
    out_dir = tmp_path / "mixes"
    assert (
        main(
            [
                "mix",
                "--config", str(config),
                "--base", str(base),
                "--augment", str(data),
                "--out-dir", str(out_dir),
            ]
        )
        == 0
    )
    small = load_dataset(out_dir / "dev+train@2.jsonl")
    large = load_dataset(out_dir / "dev+train@4.jsonl")
    assert len(small) == 5 + 2
    assert len(large) == 5 + 4
    assert {i.id for i in small} <= {i.id for i in large}
    assert main(["validate", "--in", str(out_dir / "dev+train@2.jsonl")]) == 0
    assert main(["replay", "--log", str(sidecar_path(out_dir / "dev+train@2.jsonl"))]) == 0


def _mix_args(tmp_path, base, augment, sizes):
    config = tmp_path / "mix.json"
    config.write_text(
        json.dumps({"base": "b", "augment": "a", "seed": 1, "sizes": sizes}), encoding="utf-8"
    )
    return [
        "mix", "--config", str(config),
        "--base", str(base), "--augment", str(augment), "--out-dir", str(tmp_path / "out"),
    ]


def _jsonl(path, ids):
    line = (
        '{"id":"%s","question":"q","context":"c","answers":[],"relation":null,'
        '"subject_entity":null,"origin":"synthetic","split":"train"}\n'
    )
    path.write_bytes("".join(line % i for i in ids).encode("utf-8"))


def test_mix_invalid_utf8_is_a_parse_error(tmp_path):
    base, augment = tmp_path / "base.jsonl", tmp_path / "augment.jsonl"
    _jsonl(base, ["b0"])
    _jsonl(augment, ["a0", "a1", "a2"])
    augment.write_bytes(augment.read_bytes().replace(b'"a1"', b'"a\xc3("'))
    proc = subprocess.run(
        [sys.executable, "-m", "slotqa", *_mix_args(tmp_path, base, augment, [2])],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{augment}: line 2: invalid UTF-8" in proc.stderr


def test_mix_usage_errors_exit_2(tmp_path, capsys):
    base, augment = tmp_path / "base.jsonl", tmp_path / "augment.jsonl"
    _jsonl(base, ["b0"])
    _jsonl(augment, ["a0", "a1", "a2"])
    sidecar_path(base).write_text('{"provenance_log": ', encoding="utf-8")
    assert main(_mix_args(tmp_path, base, augment, [2])) == 2
    assert f"{sidecar_path(base)}: invalid JSON" in capsys.readouterr().err
    sidecar_path(base).unlink()

    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "b+a@2.jsonl").symlink_to(augment)
    kept = augment.read_bytes()
    assert main(_mix_args(tmp_path, base, augment, [2])) == 2
    assert "would overwrite input" in capsys.readouterr().err
    assert augment.read_bytes() == kept


@pytest.mark.parametrize("path", [".", "/"])
def test_mix_base_that_is_a_path_without_a_name_is_a_usage_error(tmp_path, capsys, path):
    augment = tmp_path / "augment.jsonl"
    _jsonl(augment, ["a0"])
    assert main(_mix_args(tmp_path, path, augment, [1])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{path!r}\n")


@pytest.mark.parametrize("name", ["../../escaped", "..", "sub/dir"])
def test_mix_refuses_a_name_that_is_a_path(tmp_path, capsys, name):
    work = tmp_path / "work"
    work.mkdir()
    base, augment = work / "base.jsonl", work / "augment.jsonl"
    _jsonl(base, ["b0"])
    _jsonl(augment, ["a0", "a1"])
    config = work / "mix.json"
    config.write_text(json.dumps({"base": name, "augment": "a", "seed": 1, "sizes": [1]}), encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    out_dir = work / "deep" / "out"
    argv = ["mix", "--config", config, "--base", base, "--augment", augment, "--out-dir", out_dir]
    assert main([str(arg) for arg in argv]) == 1
    assert capsys.readouterr().err == (
        f"error: mix spec names must be single path components, got {name!r}\n"
    )
    assert sorted(tmp_path.rglob("*")) == before


def test_ingest_uwre_parse_error_names_the_file(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text(UWRE_TSV + "place_of_birth\tWhere was XXX born?\tAda\n", encoding="utf-8")
    out = tmp_path / "o.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "slotqa", "ingest-uwre", "--in", str(bad), "--split", "train", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: {bad}: line 6: expected 5 tab-separated fields, got 3\n"
    assert not out.exists()


_NOT_UTF8 = b'{"id": "caf\xe9"}'
_TOO_DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize("content", [_NOT_UTF8, _TOO_DEEP], ids=["not_utf8", "too_deep"])
@pytest.mark.parametrize("reader", ["ingest-squad", "replay", "mix", "sidecar"])
def test_a_json_file_that_cannot_be_decoded_is_a_parse_error(tmp_path, capsys, reader, content):
    bad, data = tmp_path / "bad.json", tmp_path / "d.jsonl"
    _jsonl(data, ["x0"])
    argv = {
        "ingest-squad": ["ingest-squad", "--in", bad, "--split", "train", "--out", tmp_path / "o"],
        "replay": ["replay", "--log", bad],
        "mix": ["mix", "--config", bad, "--base", data, "--augment", data, "--out-dir", tmp_path],
        "sidecar": ["validate", "--in", data],
    }[reader]
    if reader == "sidecar":
        bad = sidecar_path(data)
    bad.write_bytes(content)
    assert main([str(arg) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: invalid JSON: ")


@pytest.mark.parametrize(
    "line, message",
    [
        (_NOT_UTF8, "invalid UTF-8 at byte 11: invalid continuation byte\n"),
        (_TOO_DEEP, "invalid JSON: maximum recursion depth exceeded"),
    ],
    ids=["not_utf8", "too_deep"],
)
def test_validate_and_mix_name_the_jsonl_line_that_cannot_be_decoded(tmp_path, capsys, line, message):
    base, augment = tmp_path / "base.jsonl", tmp_path / "augment.jsonl"
    _jsonl(base, ["b0"])
    _jsonl(augment, ["a0"])
    augment.write_bytes(augment.read_bytes() + line + b"\n")
    for argv in (["validate", "--in", str(augment)], _mix_args(tmp_path, base, augment, [1])):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {augment}: line 2: {message}")


@pytest.mark.parametrize(
    "reader, content, byte",
    [
        (
            "ingest-uwre",
            UWRE_TSV.splitlines(keepends=True)[0].encode("utf-8")
            + b"r\tWhere was XXX born?\tCaf\xe9\tCaf\xe9 was born.\t\n",
            25,
        ),
        ("build-challenge", b"place_of_birth\tWhere was XXX born?\nr\tWho is caf\xe9 XXX?\n", 12),
    ],
    ids=["ingest-uwre", "build-challenge"],
)
def test_a_tsv_file_that_is_not_utf8_names_its_line(tmp_path, uwre_file, reader, content, byte):
    # the byte 0xe9 on the second line is not UTF-8
    bad, data = tmp_path / "bad.tsv", tmp_path / "d.jsonl"
    bad.write_bytes(content)
    assert main(["ingest-uwre", "--in", str(uwre_file), "--split", "train", "--out", str(data)]) == 0
    argv = {
        "ingest-uwre": ["ingest-uwre", "--in", bad, "--split", "train", "--out", tmp_path / "o"],
        "build-challenge": ["build-challenge", "--in", data, "--templates", bad, "--seed", "1",
                            "--out", tmp_path / "o"],
    }[reader]
    proc = subprocess.run(
        [sys.executable, "-m", "slotqa", *map(str, argv)], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: {bad}: line 2: invalid UTF-8 at byte {byte}: invalid continuation byte\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_predict_baseline_refuses_a_threshold_that_is_not_finite(tmp_path, capsys, value):
    data, preds = tmp_path / "d.jsonl", tmp_path / "p.jsonl"
    _jsonl(data, ["x0"])
    assert main(["predict-baseline", "--in", str(data), "--out", str(preds), f"--threshold={value}"]) == 1
    assert capsys.readouterr().err == f"error: no_answer_threshold must be finite, got {float(value)}\n"
    assert not preds.exists()
    assert not sidecar_path(preds).exists()


def test_a_file_that_is_not_utf8_is_reported_at_its_first_bad_line(tmp_path):
    # line 1 fails before the byte 0xff of a later line is read
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"x\n\xff\n")
    proc = _slotqa("validate", "--in", bad)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {bad}: line 1: invalid JSON: ")

    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"r\tWhere is XXX?\te\ts\nline two\n\xff\n")
    proc = _slotqa("ingest-uwre", "--in", bad, "--split", "dev", "--out", tmp_path / "o.jsonl")
    assert (proc.returncode, proc.stderr) == (
        2, f"error: {bad}: line 1: expected 5 tab-separated fields, got 4\n"
    )

    # a pipe can be read only once
    proc = subprocess.run(
        [sys.executable, "-m", "slotqa", "validate", "--in", "/dev/stdin"],
        input=b'{"id": 1}\n\xff\n', capture_output=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.decode() == (
        "error: /dev/stdin: line 1: bad instance fields, missing ['question', 'context',"
        " 'answers', 'relation', 'subject_entity', 'origin', 'split']\n"
    )
    _jsonl(tmp_path / "good.jsonl", ["x0"])
    proc = subprocess.run(
        [sys.executable, "-m", "slotqa", "validate", "--in", "/dev/stdin"],
        input=(tmp_path / "good.jsonl").read_bytes() + b"\xff\n", capture_output=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.decode() == "error: /dev/stdin: line 2: invalid UTF-8 at byte 0: invalid start byte\n"


def test_an_output_in_a_missing_directory_is_named_as_given(tmp_path, squad_file):
    proc = subprocess.run(
        [sys.executable, "-m", "slotqa", "ingest-squad", "--in", str(squad_file), "--split", "dev",
         "--out", "nodir/o.jsonl"],
        cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: [Errno 2] No such file or directory: 'nodir/o.jsonl'\n"
    assert ".tmp" not in proc.stderr


def test_replay_catches_a_late_one_byte_difference(tmp_path, capsys):
    base, augment = tmp_path / "base.jsonl", tmp_path / "augment.jsonl"
    _jsonl(base, ["b0"])
    _jsonl(augment, [f"a{i:05d}" for i in range(10000)])
    assert main(_mix_args(tmp_path, base, augment, [9000])) == 0
    out = tmp_path / "out" / "b+a@9000.jsonl"
    assert out.stat().st_size > 1 << 20
    log = str(sidecar_path(out))
    assert main(["replay", "--log", log]) == 0
    assert "ok: step 0 (mix)" in capsys.readouterr().out

    data = bytearray(out.read_bytes())
    data[-20] ^= 1
    out.write_bytes(bytes(data))
    assert main(["replay", "--log", log]) == 1
    assert f"MISMATCH: step 0 (mix) does not reproduce {out}" in capsys.readouterr().out


def test_replay_works_under_tmpdir_and_removes_what_it_made(tmp_path, squad_file, monkeypatch):
    pos = tmp_path / "pos.jsonl"
    main(["ingest-squad", "--in", str(squad_file), "--split", "train", "--out", str(pos)])
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setenv("TMPDIR", str(root))
    monkeypatch.setattr(tempfile, "tempdir", None)  # gettempdir reads TMPDIR again
    compared, cmp = [], filecmp.cmp

    def compare(recorded, candidate, shallow=True):
        compared.append((candidate, shallow))
        return cmp(recorded, candidate, shallow)

    monkeypatch.setattr(filecmp, "cmp", compare)
    assert main(["replay", "--log", str(sidecar_path(pos))]) == 0
    assert tempfile.gettempdir() == str(root)
    assert [(c.relative_to(root).parts[1:], shallow) for c, shallow in compared] == [
        (("step000", "pos.jsonl"), False)
    ]
    assert list(root.iterdir()) == []


def test_replay_confirms_then_catches_tampering(tmp_path, squad_file, capsys):
    pos = tmp_path / "pos.jsonl"
    neg = tmp_path / "neg.jsonl"
    adapted = tmp_path / "adapted.jsonl"
    main(["ingest-squad", "--in", str(squad_file), "--split", "train", "--out", str(pos)])
    main(["negativize", "--in", str(pos), "--out", str(neg)])
    main(["adapt-noanswer", "--in", str(neg), "--out", str(adapted)])

    assert main(["replay", "--log", str(sidecar_path(adapted))]) == 0
    out = capsys.readouterr().out
    assert out.count("ok:") == 3

    # flip one byte of an intermediate output; replay must notice
    raw = neg.read_text(encoding="utf-8").replace("Chicago", "Springfield")
    neg.write_text(raw, encoding="utf-8")
    assert main(["replay", "--log", str(sidecar_path(adapted))]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_replay_reproduces_every_operation_and_optional_flag(tmp_path, uwre_file, capsys):
    data, templates = tmp_path / "uwre.jsonl", tmp_path / "templates.tsv"
    challenge, plus = tmp_path / "challenge.jsonl", tmp_path / "plus.jsonl"
    preds, challenge_preds = tmp_path / "preds.jsonl", tmp_path / "cpreds.jsonl"
    report, challenge_report = tmp_path / "report.json", tmp_path / "creport.json"
    chain = [
        ["ingest-uwre", "--in", uwre_file, "--split", "train", "--out", data,
         "--templates-out", templates],
        ["build-challenge", "--in", data, "--templates", templates, "--seed", 5,
         "--out", challenge],
        ["build-uwre-plus", "--in", data, "--pool", challenge, "--seed", 11,
         "--split-label", "train", "--out", plus],
        ["predict-baseline", "--in", plus, "--out", preds, "--threshold", 0.5,
         "--idf", "uniform", "--max-span-tokens", 4],
        ["score", "--dataset", plus, "--preds", preds, "--out", report,
         "--match", "overlap", "--noanswer-token", "X"],
        ["predict-baseline", "--in", challenge, "--out", challenge_preds],
        ["score-challenge", "--dataset", challenge, "--preds", challenge_preds,
         "--out", challenge_report],
    ]
    for argv in chain:
        assert main([str(arg) for arg in argv]) == 0
    ingested = [(0, "ingest-uwre", data), (0, "ingest-uwre", templates)]
    replayed = {
        challenge: [*ingested, (1, "build-challenge", challenge)],
        plus: [*ingested, (1, "build-uwre-plus", plus)],
        preds: [(0, "predict-baseline", preds)],
        report: [(0, "score", report)],
        challenge_preds: [(0, "predict-baseline", challenge_preds)],
        challenge_report: [(0, "score-challenge", challenge_report)],
    }
    for output, outputs in replayed.items():
        capsys.readouterr()
        assert main(["replay", "--log", str(sidecar_path(output))]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"ok: step {step} ({operation}) reproduces {path}" for step, operation, path in outputs
        ]


def test_replay_missing_input_is_usage_error(tmp_path, squad_file):
    pos = tmp_path / "pos.jsonl"
    main(["ingest-squad", "--in", str(squad_file), "--split", "train", "--out", str(pos)])
    squad_file.unlink()
    assert main(["replay", "--log", str(sidecar_path(pos))]) == 2


def test_replay_compares_outputs_of_any_size(tmp_path, squad_file, capsys):
    squad, out = tmp_path / "empty.json", tmp_path / "empty.jsonl"
    squad.write_text('{"data": []}', encoding="utf-8")
    assert main(["ingest-squad", "--in", str(squad), "--split", "dev", "--out", str(out)]) == 0
    assert out.read_bytes() == b""
    log = str(sidecar_path(out))
    capsys.readouterr()
    assert main(["replay", "--log", log]) == 0
    assert capsys.readouterr().out == f"ok: step 0 (ingest-squad) reproduces {out}\n"
    for tampered in (b"\n", b"x" * 100_000):
        out.write_bytes(tampered)
        assert main(["replay", "--log", log]) == 1
        assert capsys.readouterr().out == f"MISMATCH: step 0 (ingest-squad) does not reproduce {out}\n"

    pos = tmp_path / "pos.jsonl"
    main(["ingest-squad", "--in", str(squad_file), "--split", "dev", "--out", str(pos)])
    log = str(sidecar_path(pos))
    data = pos.read_bytes()
    for tampered in (data[:-1], data + b"\n", data[:1]):
        pos.write_bytes(tampered)
        capsys.readouterr()
        assert main(["replay", "--log", log]) == 1
        assert capsys.readouterr().out == f"MISMATCH: step 0 (ingest-squad) does not reproduce {pos}\n"


def test_replay_output_that_is_a_directory_is_a_mismatch(tmp_path, squad_file, capsys):
    pos = tmp_path / "pos.jsonl"
    main(["ingest-squad", "--in", str(squad_file), "--split", "train", "--out", str(pos)])
    pos.unlink()
    pos.mkdir()
    capsys.readouterr()
    assert main(["replay", "--log", str(sidecar_path(pos))]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"MISMATCH: step 0 (ingest-squad) does not reproduce {pos}\n"
    assert captured.err == "1 outputs differ\n"


def test_replay_entry_missing_an_input_key_is_a_parse_error(tmp_path, squad_file):
    pos = tmp_path / "pos.jsonl"
    main(["ingest-squad", "--in", str(squad_file), "--split", "train", "--out", str(pos)])
    log = sidecar_path(pos)
    meta = json.loads(log.read_text(encoding="utf-8"))
    del meta["provenance_log"][0]["parameters"]["in"]
    log.write_text(json.dumps(meta), encoding="utf-8")
    proc = _slotqa("replay", "--log", log)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {log}: step 0 (ingest-squad): missing required key 'parameters.in'\n"


def test_replay_skips_unknown_operations(tmp_path, capsys):
    log = tmp_path / "log.prov.json"
    log.write_text(
        json.dumps(
            {
                "name": "x",
                "no_answer_token": None,
                "provenance_log": [
                    {"operation": "mystery", "parameters": {}, "seed": None}
                ],
            }
        ),
        encoding="utf-8",
    )
    assert main(["replay", "--log", str(log)]) == 0
    assert "skip" in capsys.readouterr().out


def test_exit_codes(tmp_path, squad_file):
    # missing input file -> 2
    assert main(["validate", "--in", str(tmp_path / "ghost.jsonl")]) == 2
    # invalid JSON -> 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["ingest-squad", "--in", str(bad), "--split", "train", "--out", str(tmp_path / "o.jsonl")]) == 2
    # data failure -> 1: adapting twice
    pos = tmp_path / "pos.jsonl"
    adapted = tmp_path / "adapted.jsonl"
    main(["ingest-squad", "--in", str(squad_file), "--split", "train", "--out", str(pos)])
    main(["adapt-noanswer", "--in", str(pos), "--out", str(adapted)])
    assert main(["adapt-noanswer", "--in", str(adapted), "--out", str(tmp_path / "again.jsonl")]) == 1


def _slotqa(*argv):
    return subprocess.run(
        [sys.executable, "-m", "slotqa", *map(str, argv)], capture_output=True, text=True
    )


def test_input_that_is_a_directory_is_a_usage_error(tmp_path):
    proc = _slotqa("validate", "--in", tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert str(tmp_path) in proc.stderr

    proc = _slotqa("predict-baseline", "--in", tmp_path, "--out", tmp_path / "p.jsonl")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, victim",
    [
        (["predict-baseline", "--in", "{pos}", "--out", "{pos}"], "{pos}"),
        (["adapt-noanswer", "--in", "{pos}", "--out", "{pos}"], "{pos}"),
        (["adapt-noanswer", "--in", "{pos}", "--out", "{link}"], "{pos}"),
        (["predict-baseline", "--in", "{pos}", "--out", "{pos}.prov.json"], "{pos}.prov.json"),
        (["negativize", "--in", "{pos}", "--out", "{tmp}/neg.jsonl", "--report", "{pos}"], "{pos}"),
        (
            ["ingest-uwre", "--in", "{uwre}", "--split", "test", "--out", "{tmp}/u.jsonl",
             "--templates-out", "{uwre}"],
            "{uwre}",
        ),
        (["score", "--dataset", "{pos}", "--preds", "{preds}", "--out", "{preds}"], "{preds}"),
    ],
    ids=["in-out", "adapt-in-out", "symlink", "sidecar", "report", "templates-out", "score-out"],
)
def test_an_output_that_would_overwrite_an_input_is_refused(
    tmp_path, squad_file, uwre_file, capsys, argv, victim
):
    pos, preds = tmp_path / "pos.jsonl", tmp_path / "preds.jsonl"
    main(["ingest-squad", "--in", str(squad_file), "--split", "train", "--out", str(pos)])
    main(["predict-baseline", "--in", str(pos), "--out", str(preds)])
    (tmp_path / "link.jsonl").symlink_to(pos)
    capsys.readouterr()
    names = dict(pos=pos, preds=preds, uwre=uwre_file, link=tmp_path / "link.jsonl", tmp=tmp_path)
    argv = [arg.format(**names) for arg in argv]
    before = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}

    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output ")
    assert f"would overwrite input {victim.format(**names)}" in err
    assert "Traceback" not in err
    # nothing is written, not even the outputs that alias no input
    assert {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == before


@pytest.mark.parametrize(
    "argv, special",
    [
        (["adapt-noanswer", "--in", "{pos}", "--out", "{special}"], "dir"),
        (["adapt-noanswer", "--in", "{pos}", "--out", "{tmp}/a.jsonl"], "{tmp}/a.jsonl.prov.json"),
        (["negativize", "--in", "{pos}", "--out", "{tmp}/n.jsonl", "--report", "{special}"], "dir"),
        (
            ["ingest-uwre", "--in", "{uwre}", "--split", "test", "--out", "{tmp}/u.jsonl",
             "--templates-out", "{special}"],
            "dir",
        ),
        (["predict-baseline", "--in", "{pos}", "--out", "{special}"], "fifo"),
    ],
    ids=["out-dir", "sidecar-dir", "report-dir", "templates-out-dir", "out-fifo"],
)
def test_an_output_that_is_not_a_regular_file_is_refused(
    tmp_path, squad_file, uwre_file, capsys, argv, special
):
    pos = tmp_path / "pos.jsonl"
    main(["ingest-squad", "--in", str(squad_file), "--split", "train", "--out", str(pos)])
    names = dict(pos=pos, uwre=uwre_file, tmp=tmp_path, special=tmp_path / "special")
    if special == "fifo":
        os.mkfifo(names["special"])
    else:
        Path(special.format(**names).replace("dir", str(names["special"]))).mkdir()
    capsys.readouterr()
    argv = [arg.format(**names) for arg in argv]
    before = sorted(tmp_path.iterdir())

    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output ") and err.endswith(" is not a regular file\n")
    # refused before anything is written
    assert sorted(tmp_path.iterdir()) == before


def _corrupt(path):
    """Break ``span_matches_context`` in the first instance of a dataset, a positive."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    first = json.loads(lines[0])
    span = first["answers"][0]
    span["text"] = "\u2603" + span["text"][1:]
    lines[0] = json.dumps(first) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return first["id"]


@pytest.mark.parametrize(
    "argv",
    [
        "negativize --in {bad} --out {out}",
        "adapt-noanswer --in {bad} --out {out}",
        "predict-baseline --in {bad} --out {out}",
        "score --dataset {bad} --preds {preds} --out {out}",
        "score-challenge --dataset {bad} --preds {preds} --out {out}",
        "build-challenge --in {bad} --templates {templates} --seed 1 --out {out}",
        "build-uwre-plus --in {bad} --pool {good} --seed 1 --out {out}",
        "build-uwre-plus --in {good} --pool {bad} --seed 1 --out {out}",
    ],
)
def test_every_command_refuses_an_invalid_dataset_it_reads(tmp_path, uwre_file, capsys, argv):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    preds, templates, out = tmp_path / "p.jsonl", tmp_path / "t.tsv", tmp_path / "out.jsonl"
    main(["ingest-uwre", "--in", str(uwre_file), "--split", "test", "--out", str(good),
          "--templates-out", str(templates)])
    main(["ingest-uwre", "--in", str(uwre_file), "--split", "test", "--out", str(bad)])
    main(["predict-baseline", "--in", str(good), "--out", str(preds)])
    broken = _corrupt(bad)
    assert main(["validate", "--in", str(bad)]) == 1
    capsys.readouterr()
    names = dict(good=good, bad=bad, preds=preds, templates=templates, out=out)

    assert main(argv.format(**names).split()) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: instance {broken!r} breaks span_matches_context: span at ")
    assert err.endswith(" (violations: 1; validate lists them all)\n")
    assert not out.exists()


def test_replay_entry_missing_a_parameter_is_a_parse_error(tmp_path, squad_file):
    pos, neg = tmp_path / "pos.jsonl", tmp_path / "neg.jsonl"
    main(["ingest-squad", "--in", str(squad_file), "--split", "train", "--out", str(pos)])
    main(["negativize", "--in", str(pos), "--out", str(neg)])
    log = sidecar_path(neg)
    meta = json.loads(log.read_text(encoding="utf-8"))
    assert meta["provenance_log"][1]["operation"] == "negativize"
    del meta["provenance_log"][1]["parameters"]["keep_positives"]
    log.write_text(json.dumps(meta), encoding="utf-8")

    proc = _slotqa("replay", "--log", log)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "ok: step 0 (ingest-squad)" in proc.stdout
    assert (
        f"error: {log}: step 1 (negativize): missing required key 'parameters.keep_positives'"
        in proc.stderr
    )

    meta["provenance_log"][1]["parameters"] = ["in", str(pos)]
    log.write_text(json.dumps(meta), encoding="utf-8")
    proc = _slotqa("replay", "--log", log)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{log}: step 1 (negativize): parameters must be an object" in proc.stderr


@pytest.mark.parametrize(
    "operation, parameters, key",
    [
        ("negativize", {"in": 5, "out": "x"}, "in"),
        ("negativize", {"in": "", "out": "x"}, "in"),
        ("negativize", {"in": "x", "out": None}, "out"),
        ("score", {"dataset": "d", "preds": ["p"], "out": "x"}, "preds"),
        ("mix", {"base_path": "b", "augment_path": {"a": 1}, "out": "x"}, "augment_path"),
    ],
)
def test_replay_parameter_that_is_not_a_path_is_a_parse_error(tmp_path, operation, parameters, key):
    log = tmp_path / "log.prov.json"
    entry = {"operation": operation, "parameters": parameters, "seed": None}
    log.write_text(json.dumps({"provenance_log": [entry]}), encoding="utf-8")
    proc = _slotqa("replay", "--log", log)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (
        f"error: {log}: step 0 ({operation}): 'parameters.{key}' must be a path\n"
    )


@pytest.mark.parametrize(
    "argv, key, value, kind",
    [
        (["adapt-noanswer"], "token", 5, "a string"),
        (["predict-baseline"], "max_span_tokens", "8", "an integer"),
        (["negativize", "--keep-positives"], "keep_positives", "yes", "a boolean"),
    ],
    ids=["token", "max_span_tokens", "keep_positives"],
)
def test_replay_parameter_of_the_wrong_type_is_a_parse_error(
    tmp_path, squad_file, argv, key, value, kind
):
    pos, out = tmp_path / "pos.jsonl", tmp_path / "out.jsonl"
    main(["ingest-squad", "--in", str(squad_file), "--split", "train", "--out", str(pos)])
    assert main([*argv, "--in", str(pos), "--out", str(out)]) == 0
    log = sidecar_path(out)
    meta = json.loads(log.read_text(encoding="utf-8"))
    step = len(meta["provenance_log"]) - 1
    assert meta["provenance_log"][step]["operation"] == argv[0]
    meta["provenance_log"][step]["parameters"][key] = value
    log.write_text(json.dumps(meta), encoding="utf-8")
    proc = _slotqa("replay", "--log", log)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (
        f"error: {log}: step {step} ({argv[0]}): 'parameters.{key}' must be {kind}\n"
    )


def test_replay_noanswer_token_of_the_wrong_type_is_a_parse_error(tmp_path, squad_file):
    pos, preds, report = tmp_path / "pos.jsonl", tmp_path / "p.jsonl", tmp_path / "r.json"
    main(["ingest-squad", "--in", str(squad_file), "--split", "train", "--out", str(pos)])
    main(["predict-baseline", "--in", str(pos), "--out", str(preds)])
    argv = ["score", "--dataset", str(pos), "--preds", str(preds), "--out", str(report)]
    assert main([*argv, "--noanswer-token", "NoAnswerFound"]) == 0
    log = sidecar_path(report)
    meta = json.loads(log.read_text(encoding="utf-8"))
    meta["provenance_log"][0]["parameters"]["noanswer_token"] = 5
    log.write_text(json.dumps(meta), encoding="utf-8")
    proc = _slotqa("replay", "--log", log)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (
        f"error: {log}: step 0 (score): 'parameters.noanswer_token' must be a string or null\n"
    )


def test_replay_templates_out_of_the_wrong_type_is_a_parse_error(tmp_path, uwre_file):
    out = tmp_path / "uwre.jsonl"
    assert main(["ingest-uwre", "--in", str(uwre_file), "--split", "train", "--out", str(out)]) == 0
    log = sidecar_path(out)
    meta = json.loads(log.read_text(encoding="utf-8"))
    meta["provenance_log"][0]["parameters"]["templates_out"] = 5
    log.write_text(json.dumps(meta), encoding="utf-8")
    proc = _slotqa("replay", "--log", log)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"step 0 (ingest-uwre): 'parameters.templates_out' must be a path or null" in proc.stderr


@pytest.mark.parametrize(
    "key, value, kind",
    [("out", "x\u0000y.jsonl", "a path"), ("templates_out", "t\u0000.tsv", "a path or null")],
)
def test_replay_path_holding_nul_is_a_parse_error(tmp_path, uwre_file, key, value, kind):
    out = tmp_path / "uwre.jsonl"
    assert main(["ingest-uwre", "--in", str(uwre_file), "--split", "train", "--out", str(out)]) == 0
    log = sidecar_path(out)
    meta = json.loads(log.read_text(encoding="utf-8"))
    meta["provenance_log"][0]["parameters"][key] = value
    log.write_text(json.dumps(meta), encoding="utf-8")
    proc = _slotqa("replay", "--log", log)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {log}: step 0 (ingest-uwre): 'parameters.{key}' must be {kind}\n"


def test_replay_mix_entry_without_seed_is_a_parse_error(tmp_path, capsys):
    base, augment = tmp_path / "base.jsonl", tmp_path / "augment.jsonl"
    _jsonl(base, ["b0"])
    _jsonl(augment, ["a0", "a1", "a2"])
    assert main(_mix_args(tmp_path, base, augment, [2])) == 0
    log = sidecar_path(tmp_path / "out" / "b+a@2.jsonl")
    meta = json.loads(log.read_text(encoding="utf-8"))
    del meta["provenance_log"][-1]["seed"]
    log.write_text(json.dumps(meta), encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", "--log", str(log)]) == 2
    assert f"{log}: step 0 (mix): missing required key 'seed'" in capsys.readouterr().err
    meta["provenance_log"][-1]["seed"] = "1"
    log.write_text(json.dumps(meta), encoding="utf-8")
    assert main(["replay", "--log", str(log)]) == 2
    assert f"{log}: step 0 (mix): 'seed' must be an integer" in capsys.readouterr().err


def test_mix_refuses_sidecars_that_load_dataset_rejects(tmp_path, capsys):
    base, augment = tmp_path / "b.jsonl", tmp_path / "a.jsonl"
    _jsonl(base, ["b0"])
    _jsonl(augment, ["a0", "a1", "a2"])
    for meta, message in (
        ({"no_answer_token": 5, "provenance_log": ["abc"]}, "no_answer_token must be a string or null"),
        ({"no_answer_token": "T", "provenance_log": ["abc"]}, "provenance_log must be a list of objects"),
    ):
        for path in (base, augment):
            sidecar_path(path).write_text(json.dumps(meta), encoding="utf-8")
        capsys.readouterr()
        assert main(_mix_args(tmp_path, base, augment, [2])) == 2
        assert capsys.readouterr().err == f"error: {sidecar_path(base)}: {message}\n"
        assert not (tmp_path / "out").exists()


def test_sidecar_provenance_log_of_the_wrong_type_is_a_parse_error(tmp_path):
    path = tmp_path / "d.jsonl"
    _jsonl(path, ["x0"])
    sidecar_path(path).write_text('{"provenance_log": "abc"}', encoding="utf-8")
    for argv in (("validate", "--in", path), ("replay", "--log", sidecar_path(path))):
        proc = _slotqa(*argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"{sidecar_path(path)}: provenance_log must be a list of objects" in proc.stderr


def test_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        json.dumps(
            {
                "id": "x1",
                "question": "q",
                "context": "abc",
                "answers": [{"start": 0, "text": "zz"}],
                "relation": None,
                "subject_entity": None,
                "origin": "squad_positive",
                "split": "train",
            }
        )
        + "\n",
        encoding="utf-8",
    )
    assert main(["validate", "--in", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "x1" in out
    assert "span_matches_context" in out


def test_console_entry_point_usage_errors():
    proc = subprocess.run(
        [sys.executable, "-m", "slotqa", "definitely-not-a-command"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2

    proc = subprocess.run(
        [sys.executable, "-m", "slotqa"], capture_output=True, text=True
    )
    assert proc.returncode == 2

    proc = subprocess.run(
        [sys.executable, "-m", "slotqa", "score", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "--match" in proc.stdout

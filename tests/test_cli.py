import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from slotqa import Prediction, ingest_uwre, load_dataset, read_predictions, write_dataset, write_predictions
from slotqa import Dataset, Instance, Span, cli, parallel
from slotqa.cli import main
from slotqa.model import ORIGINS, sidecar_path

from helpers import record_forks

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


def test_mix_counts_every_line_of_a_base_that_repeats_an_id(tmp_path, capsys):
    base, augment = tmp_path / "base.jsonl", tmp_path / "augment.jsonl"
    _jsonl(base, ["b1", "b1", "b2"])
    _jsonl(augment, [f"a{i}" for i in range(5)])
    assert main(_mix_args(tmp_path, base, augment, [2, 10])) == 0
    small, large = tmp_path / "out" / "b+a@2.jsonl", tmp_path / "out" / "b+a@10.jsonl"
    assert capsys.readouterr().out == f"wrote 5 instances to {small}\nwrote 8 instances to {large}\n"
    assert [len(out.read_bytes().splitlines()) for out in (small, large)] == [5, 8]


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


def test_ingest_squad_structure_error_names_the_file(tmp_path, capsys):
    doc = json.loads(json.dumps(SQUAD_DOC))
    doc["data"][0]["paragraphs"][0]["qas"][0]["answers"][0]["answer_start"] = True
    bad, out = tmp_path / "bad.json", tmp_path / "o.jsonl"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["ingest-squad", "--in", str(bad), "--split", "train", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: $.data[0].paragraphs[0].qas[0].answers[0].answer_start must be an integer\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("token", ["", "No Answer"])
@pytest.mark.parametrize("operation", ["score", "score-challenge"])
def test_score_refuses_a_noanswer_token_that_adapt_noanswer_refuses(tmp_path, squad_file, capsys,
                                                                     operation, token):
    pos, preds = tmp_path / "pos.jsonl", tmp_path / "p.jsonl"
    main(["ingest-squad", "--in", str(squad_file), "--split", "train", "--out", str(pos)])
    main(["predict-baseline", "--in", str(pos), "--out", str(preds)])
    capsys.readouterr()
    for argv in (["adapt-noanswer", "--in", pos, "--out", tmp_path / "a.jsonl", "--token", token],
                 [operation, "--dataset", pos, "--preds", preds, "--tsv", "--noanswer-token", token]):
        assert main([str(arg) for arg in argv]) == 1
        assert capsys.readouterr() == ("", "error: no-answer token must be non-empty and contain no whitespace\n")


@pytest.mark.parametrize("flag", ["--out", "--templates-out", "--report"])
def test_an_empty_file_flag_is_refused_before_anything_is_written(tmp_path, uwre_file, capsys,
                                                                   monkeypatch, flag):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    files = {"--out": "o.jsonl", "--templates-out": "t.tsv", "--report": "r.json", flag: ""}
    before = sorted(tmp_path.rglob("*"))
    argv = ["ingest-uwre", "--in", str(uwre_file), "--split", "dev", *[x for kv in files.items() for x in kv]]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {flag} must be a path\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_mix_refuses_an_empty_out_dir_before_anything_is_written(tmp_path, capsys, monkeypatch):
    base, augment = tmp_path / "base.jsonl", tmp_path / "augment.jsonl"
    _jsonl(base, ["b0"])
    _jsonl(augment, ["a0"])
    argv = _mix_args(tmp_path, base, augment, [1])
    argv[argv.index("--out-dir") + 1] = ""
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: --out-dir must be a path\n")
    assert sorted(tmp_path.rglob("*")) == before


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


@pytest.mark.parametrize("reader, fields", [("ingest-uwre", 5), ("build-challenge", 2)])
def test_both_tsv_readers_skip_blank_lines_and_crlf_alike(tmp_path, uwre_file, capsys, reader, fields):
    data, templates = tmp_path / "d.jsonl", tmp_path / "t.tsv"
    templates.write_text("place_of_birth\tWhere was XXX born?\n", encoding="utf-8")
    assert main(["ingest-uwre", "--in", str(uwre_file), "--split", "train", "--out", str(data)]) == 0

    def run(tsv, out):
        argv = {
            "ingest-uwre": ["ingest-uwre", "--in", tsv, "--split", "train", "--out", out],
            "build-challenge": ["build-challenge", "--in", data, "--templates", tsv, "--seed", "1",
                                "--out", out],
        }[reader]
        return main([str(arg) for arg in argv])

    # the same rows with \r\n endings and trailing blank lines read the same
    lf, crlf = (uwre_file if reader == "ingest-uwre" else templates), tmp_path / "crlf.tsv"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n") + b"\r\n\n")
    assert run(lf, tmp_path / "lf.jsonl") == 0 and run(crlf, tmp_path / "crlf.jsonl") == 0
    assert (tmp_path / "lf.jsonl").read_bytes() == (tmp_path / "crlf.jsonl").read_bytes()
    capsys.readouterr()
    # blank lines count towards the line number of a row with the wrong number of fields
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"\r\n\nr\tWhere was XXX born?\tAda\r\n")
    assert run(bad, tmp_path / "o.jsonl") == 2
    assert capsys.readouterr() == ("", f"error: {bad}: line 3: expected {fields} tab-separated fields, got 3\n")
    assert not (tmp_path / "o.jsonl").exists()


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

    data = out.read_bytes()
    for position in (-20, -1):  # -1: the last byte, in the second 1 MiB compare block
        tampered = bytearray(data)
        tampered[position] ^= 1
        out.write_bytes(bytes(tampered))
        assert main(["replay", "--log", log]) == 1
        assert f"MISMATCH: step 0 (mix) does not reproduce {out}" in capsys.readouterr().out


def test_replay_compare_needs_two_regular_files_of_the_same_bytes(tmp_path):
    recorded, candidate = tmp_path / "recorded", tmp_path / "candidate"
    data = bytes(range(256)) * (5 << 12)  # 5 MiB, so the last byte is in the fifth block
    recorded.write_bytes(data)
    for same, tampered in ((True, data), (False, data[:-1] + b"x"), (False, data[:-1]), (False, data + b"x")):
        candidate.write_bytes(tampered)
        assert cli._same_bytes(recorded, candidate) is same
    candidate.unlink()
    candidate.mkdir()
    assert cli._same_bytes(recorded, candidate) is False
    assert cli._same_bytes(tmp_path, tmp_path) is False


def test_replay_works_under_tmpdir_and_removes_what_it_made(tmp_path, squad_file, monkeypatch):
    pos = tmp_path / "pos.jsonl"
    main(["ingest-squad", "--in", str(squad_file), "--split", "train", "--out", str(pos)])
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setenv("TMPDIR", str(root))
    monkeypatch.setattr(tempfile, "tempdir", None)  # gettempdir reads TMPDIR again
    compared, same = [], cli._same_bytes

    def compare(recorded, candidate):
        compared.append(candidate)
        return same(recorded, candidate)

    monkeypatch.setattr(cli, "_same_bytes", compare)
    assert main(["replay", "--log", str(sidecar_path(pos))]) == 0
    assert tempfile.gettempdir() == str(root)
    assert [c.relative_to(root).parts[1:] for c in compared] == [("step000", "out", "pos.jsonl")]
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


def _squad_chain_log(kind):
    """In the working directory, a three-step SQuAD chain's log changed as ``kind`` says; its path."""
    Path("squad.json").write_text(json.dumps(SQUAD_DOC), encoding="utf-8")
    for argv in (["ingest-squad", "--in", "squad.json", "--split", "train", "--out", "pos.jsonl"],
                 ["negativize", "--in", "pos.jsonl", "--keep-positives", "--out", "neg.jsonl"],
                 ["adapt-noanswer", "--in", "neg.jsonl", "--out", "adapted.jsonl"]):
        assert main(argv) == 0
    log = json.loads(Path("adapted.jsonl.prov.json").read_text(encoding="utf-8"))
    steps = log["provenance_log"]
    if kind == "mismatch":
        Path("adapted.jsonl").write_bytes(Path("adapted.jsonl").read_bytes().replace(b"Paris", b"Rome"))
    elif kind == "skip":
        steps.insert(1, {"operation": "mystery", "parameters": {}, "seed": None})
        steps.insert(3, {"operation": "negativize", "parameters": {"in": "pos.jsonl"}, "seed": None})
    elif kind == "check fails at step 2":
        steps[2]["parameters"]["token"] = 5
    elif kind == "step 1 fails when it runs":
        Path("pos.jsonl").write_bytes(Path("pos.jsonl").read_bytes() + b"{\n")
    Path("log.prov.json").write_text(json.dumps(log), encoding="utf-8")
    return "log.prov.json"


def test_replay_prints_each_step_s_lines_before_the_next_step_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    log = _squad_chain_log("matching")
    events, replay_step = [], cli._replay_step

    def step(log_path, i, entry, tmp):
        events.append(f"run step {i}")
        return replay_step(log_path, i, entry, tmp)

    monkeypatch.setattr(cli, "_replay_step", step)
    monkeypatch.setattr(cli, "print", lambda *values, **_: events.append(" ".join(map(str, values))), raising=False)
    assert main(["replay", "--log", log]) == 0
    assert events == [
        "run step 0", "ok: step 0 (ingest-squad) reproduces pos.jsonl",
        "run step 1", "ok: step 1 (negativize) reproduces neg.jsonl",
        "run step 2", "ok: step 2 (adapt-noanswer) reproduces adapted.jsonl",
    ]


@pytest.mark.parametrize(
    "kind", ["matching", "mismatch", "skip", "check fails at step 2", "step 1 fails when it runs"]
)
def test_replay_forks_no_step_and_runs_none_after_a_failed_one(tmp_path, capsys, monkeypatch, kind):
    monkeypatch.chdir(tmp_path)
    log = _squad_chain_log(kind)
    forks, ran = record_forks(monkeypatch), []
    for name in ("ingest-squad", "negativize", "adapt-noanswer"):
        op = cli.OPERATIONS[name]
        monkeypatch.setattr(op, "run", lambda args, run=op.run: ran.append(args.op.name) or run(args))
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    code, out, err = _replay(log, capsys)
    assert forks == []
    # a failed check or run stops the replay in its step's turn
    stopped = kind in ("check fails at step 2", "step 1 fails when it runs")
    assert ran == ["ingest-squad", "negativize", "adapt-noanswer"][: 2 if stopped else 3]
    ok = [f"ok: step {i} ({name}) reproduces {out}" for i, name, out in
          [(0, "ingest-squad", "pos.jsonl"), (1, "negativize", "neg.jsonl"), (2, "adapt-noanswer", "adapted.jsonl")]]
    if kind == "matching":
        assert (code, out.splitlines(), err) == (0, ok, "")
    elif kind == "mismatch":
        assert (code, out.splitlines(), err) == (
            1, [*ok[:2], "MISMATCH: step 2 (adapt-noanswer) does not reproduce adapted.jsonl"], "1 outputs differ\n"
        )
    elif kind == "skip":
        assert (code, out.splitlines(), err) == (0, [
            ok[0], "skip: step 1 (mystery) is not a replayable operation",
            ok[1].replace("step 1", "step 2"), "skip: step 3 (negativize) records no output path",
            ok[2].replace("step 2", "step 4"),
        ], "")
    elif kind == "check fails at step 2":
        assert (code, out.splitlines(), err) == (
            2, ok[:2], "error: log.prov.json: step 2 (adapt-noanswer): 'parameters.token' must be a string\n"
        )
    else:  # step 0's output is step 1's input
        assert (code, out.splitlines()) == (2, ["MISMATCH: step 0 (ingest-squad) does not reproduce pos.jsonl"])
        assert err.startswith("error: pos.jsonl: line ")


def test_replay_missing_input_is_usage_error(tmp_path, squad_file):
    pos = tmp_path / "pos.jsonl"
    main(["ingest-squad", "--in", str(squad_file), "--split", "train", "--out", str(pos)])
    squad_file.unlink()
    assert main(["replay", "--log", str(sidecar_path(pos))]) == 2


def _replay(log, capsys):
    capsys.readouterr()
    code = main(["replay", "--log", str(log)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_way_replay_stops(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("r.tsv").write_text(UWRE_TSV, encoding="utf-8")
    argv = ["ingest-uwre", "--in", "r.tsv", "--split", "dev", "--out", "a.jsonl"]
    assert main([*argv, "--templates-out", "t.tsv", "--report", "report.json"]) == 0

    Path("t.tsv").unlink()
    # stops before the step runs again, so nothing is compared
    assert _replay("a.jsonl.prov.json", capsys) == (
        2, "", "error: a.jsonl.prov.json: step 0 (ingest-uwre): missing recorded output t.tsv\n"
    )
    Path("r.tsv").unlink()
    assert _replay("a.jsonl.prov.json", capsys) == (
        2, "", "error: a.jsonl.prov.json: step 0 (ingest-uwre): missing input in='r.tsv'\n"
    )
    # a JSON object, but no sidecar
    assert _replay("report.json", capsys) == (
        2, "", "error: report.json: expected a sidecar object with a provenance_log\n"
    )
    entry = {"operation": "negativize", "parameters": ["in", "a.jsonl"], "seed": None}
    Path("log.prov.json").write_text(json.dumps({"provenance_log": [entry]}), encoding="utf-8")
    assert _replay("log.prov.json", capsys) == (
        2, "", "error: log.prov.json: step 0 (negativize): parameters must be an object\n"
    )
    # the library records what a step did, but not where the CLI would have written it
    dataset, _, _ = ingest_uwre(UWRE_TSV.splitlines(), "dev")
    write_dataset(dataset, "lib.jsonl")
    assert _replay("lib.jsonl.prov.json", capsys) == (
        0, "skip: step 0 (ingest-uwre) records no output path\n", ""
    )


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


def test_replay_outputs_sharing_a_file_name_are_regenerated_apart(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("r.tsv").write_text(UWRE_TSV.splitlines(keepends=True)[0], encoding="utf-8")
    Path("a").mkdir()
    Path("b").mkdir()
    argv = ["ingest-uwre", "--in", "r.tsv", "--split", "dev", "--out", "a/x.tsv", "--templates-out", "b/x.tsv"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["replay", "--log", "a/x.tsv.prov.json"]) == 0
    assert capsys.readouterr().out == (
        "ok: step 0 (ingest-uwre) reproduces a/x.tsv\n"
        "ok: step 0 (ingest-uwre) reproduces b/x.tsv\n"
    )


def test_replay_output_the_step_does_not_write_again_is_a_mismatch(tmp_path, capsys):
    base, augment = tmp_path / "base.jsonl", tmp_path / "augment.jsonl"
    _jsonl(base, ["b0"])
    _jsonl(augment, [f"a{i}" for i in range(10)])
    assert main(_mix_args(tmp_path, base, augment, [5])) == 0
    out, renamed = tmp_path / "out" / "b+a@5.jsonl", tmp_path / "out" / "renamed.jsonl"
    out.rename(renamed)
    sidecar_path(out).rename(sidecar_path(renamed))
    meta = json.loads(sidecar_path(renamed).read_text(encoding="utf-8"))
    meta["provenance_log"][-1]["parameters"]["out"] = str(renamed)
    sidecar_path(renamed).write_text(json.dumps(meta), encoding="utf-8")
    capsys.readouterr()
    # mix writes b+a@5.jsonl again, never renamed.jsonl
    assert main(["replay", "--log", str(sidecar_path(renamed))]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"MISMATCH: step 0 (mix) does not reproduce {renamed}\n"
    assert captured.err == "1 outputs differ\n"


def test_replay_of_an_all_taking_mix_draws_no_permutation(tmp_path, capsys, monkeypatch):
    from slotqa import mixer

    def forbidden(population, seed, limit):
        raise AssertionError("a mix whose sizes take every augment line drew a permutation")

    monkeypatch.setattr(mixer, "_ranks", forbidden)
    base, augment = tmp_path / "base.jsonl", tmp_path / "augment.jsonl"
    _jsonl(base, ["b0"])
    _jsonl(augment, ["a0", "a1", "a2"])
    assert main(_mix_args(tmp_path, base, augment, [3])) == 0
    out = tmp_path / "out" / "b+a@3.jsonl"
    capsys.readouterr()
    assert main(["replay", "--log", str(sidecar_path(out))]) == 0
    assert capsys.readouterr().out == f"ok: step 0 (mix) reproduces {out}\n"


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


def test_negativize_refuses_an_adapted_dataset_before_writing(tmp_path):
    # its negatives would hold no sentinel span and no context would start with the token
    squad = Path(__file__).parent / "fixtures" / "synthetic_squad.json"
    pos, neg, adapted, out = (tmp_path / f"{name}.jsonl" for name in ("pos", "neg", "adapted", "neg2"))
    for argv in (["ingest-squad", "--in", squad, "--split", "train", "--out", pos],
                 ["negativize", "--in", pos, "--keep-positives", "--out", neg],
                 ["adapt-noanswer", "--in", neg, "--out", adapted]):
        assert _slotqa(*argv).returncode == 0
    proc = _slotqa("negativize", "--in", adapted, "--out", out)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: negativize requires a dataset without a no-answer adaptation;"
                           " it is adapted with token 'NoAnswerFound'\n")
    assert not out.exists() and not sidecar_path(out).exists()


def _adapted_and_challenge(tmp_path):
    """An adapted UWRE split of two positives and two negatives, and the challenge set of its unadapted form."""
    tsv = tmp_path / "four.tsv"
    tsv.write_text("".join(UWRE_TSV.splitlines(keepends=True)[i] for i in (0, 1, 3, 4)), encoding="utf-8")
    data, templates, adapted, challenge = (tmp_path / name for name in
                                           ("u.jsonl", "t.tsv", "adapted.jsonl", "challenge.jsonl"))
    for argv in (["ingest-uwre", "--in", tsv, "--split", "train", "--out", data, "--templates-out", templates],
                 ["adapt-noanswer", "--in", data, "--out", adapted],
                 ["build-challenge", "--in", data, "--templates", templates, "--seed", 5, "--out", challenge]):
        assert main(list(map(str, argv))) == 0
    return templates, adapted, challenge


def test_build_challenge_refuses_an_adapted_dataset_before_writing(tmp_path, capsys):
    # its negatives would hold no sentinel span over the token
    templates, adapted, _ = _adapted_and_challenge(tmp_path)
    out = tmp_path / "chal2.jsonl"
    capsys.readouterr()
    argv = ["build-challenge", "--in", adapted, "--templates", templates, "--seed", 5, "--out", out]
    assert main(list(map(str, argv))) == 1
    assert capsys.readouterr() == ("", "error: build-challenge requires a dataset without a no-answer"
                                       " adaptation; it is adapted with token 'NoAnswerFound'\n")
    assert not out.exists() and not sidecar_path(out).exists()


@pytest.mark.parametrize("adapted_side", ["split", "pool"])
def test_build_uwre_plus_refuses_a_split_and_pool_adapted_differently(tmp_path, capsys, adapted_side):
    # an unadapted challenge instance in an adapted split has no token before its context
    _, adapted, challenge = _adapted_and_challenge(tmp_path)
    if adapted_side == "pool":
        split, pool = tmp_path / "u.jsonl", tmp_path / "adapted-challenge.jsonl"
        assert main(["adapt-noanswer", "--in", str(challenge), "--out", str(pool)]) == 0
        tokens = "None vs 'NoAnswerFound'"
    else:
        split, pool, tokens = adapted, challenge, "'NoAnswerFound' vs None"
    out = tmp_path / "plus.jsonl"
    capsys.readouterr()
    assert main(["build-uwre-plus", "--in", str(split), "--pool", str(pool), "--seed", "1", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: cannot build uwre-plus from a split and a pool with different"
                                       f" no-answer adaptations: {tokens}\n")
    assert not out.exists() and not sidecar_path(out).exists()


def test_build_uwre_plus_keeps_the_adaptation_of_a_split_and_pool_adapted_alike(tmp_path):
    _, adapted, challenge = _adapted_and_challenge(tmp_path)
    pool, out = tmp_path / "adapted-challenge.jsonl", tmp_path / "plus.jsonl"
    assert main(["adapt-noanswer", "--in", str(challenge), "--out", str(pool)]) == 0
    assert main(["build-uwre-plus", "--in", str(adapted), "--pool", str(pool), "--seed", "1", "--out", str(out)]) == 0
    assert [i.origin for i in load_dataset(out)][-1] == "challenge_negative"
    assert main(["validate", "--in", str(out)]) == 0
    assert main(["adapt-noanswer", "--in", str(out), "--out", str(tmp_path / "again.jsonl")]) == 1


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
    "argv, earlier",
    [
        (["--report", "{out}"], "output {out}"),
        (["--report", "{out}.prov.json"], "the sidecar of output {out}"),
        (["--templates-out", "{out}"], "output {out}"),
        (["--templates-out", "{tmp}/r.json", "--report", "{tmp}/r.json"], "output {tmp}/r.json"),
        (["negativize", "--in", "{pos}", "--out", "{tmp}/x", "--report", "{tmp}/x"], "output {tmp}/x"),
        (["--report", "{link}"], "output {out}"),
    ],
    ids=["report", "report-sidecar", "templates-out", "templates-out-report", "negativize-report", "symlink"],
)
def test_an_output_that_would_overwrite_another_output_is_refused(
    tmp_path, squad_file, uwre_file, capsys, argv, earlier
):
    pos, out = tmp_path / "pos.jsonl", tmp_path / "u.jsonl"
    main(["ingest-squad", "--in", str(squad_file), "--split", "train", "--out", str(pos)])
    (tmp_path / "link.jsonl").symlink_to(out)  # dangling: the output is not written yet
    capsys.readouterr()
    names = dict(pos=pos, out=out, link=tmp_path / "link.jsonl", tmp=tmp_path)
    if argv[0] != "negativize":  # the options of ingest-uwre after its --out
        argv = ["ingest-uwre", "--in", str(uwre_file), "--split", "test", "--out", "{out}", *argv]
    argv = [arg.format(**names) for arg in argv]
    before = {path: path.is_file() and path.read_bytes() for path in tmp_path.iterdir()}

    assert main(argv) == 2
    err = capsys.readouterr().err
    # the last output given is the one refused
    assert err == f"error: output {argv[-1]} would overwrite {earlier.format(**names)}\n"
    # nothing is written, not even the first of the two outputs
    assert {path: path.is_file() and path.read_bytes() for path in tmp_path.iterdir()} == before


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


@pytest.mark.parametrize(
    "output, operation, key, choices",
    [
        ("pos.jsonl", "ingest-squad", "split", ["train", "dev", "test"]),
        ("preds.jsonl", "predict-baseline", "idf_source", ["self_corpus", "uniform"]),
        ("report.json", "score", "match", ["exact", "overlap"]),
    ],
)
def test_replay_recorded_value_outside_its_choices_is_a_parse_error(
    tmp_path, squad_file, output, operation, key, choices
):
    pos, preds, report = tmp_path / "pos.jsonl", tmp_path / "preds.jsonl", tmp_path / "report.json"
    assert main(["ingest-squad", "--in", str(squad_file), "--split", "train", "--out", str(pos)]) == 0
    assert main(["predict-baseline", "--in", str(pos), "--out", str(preds)]) == 0
    assert main(["score", "--dataset", str(pos), "--preds", str(preds), "--out", str(report)]) == 0
    log = sidecar_path(tmp_path / output)
    meta = json.loads(log.read_text(encoding="utf-8"))
    assert meta["provenance_log"][0]["operation"] == operation
    meta["provenance_log"][0]["parameters"][key] = "bogus"
    log.write_text(json.dumps(meta), encoding="utf-8")
    proc = _slotqa("replay", "--log", log)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: {log}: step 0 ({operation}): 'parameters.{key}' must be one of {choices}\n"
    )


_VALIDATE_STEP = {"operation": "validate", "parameters": {}, "seed": None}


@pytest.mark.parametrize(
    "meta, message",
    [
        ({"name": "d", "provenance_log": []}, "expected a sidecar object with a provenance_log"),
        ({"name": 5, "provenance_log": [_VALIDATE_STEP]}, "name must be a string"),
        ({"no_answer_token": 5, "provenance_log": [_VALIDATE_STEP]},
         "no_answer_token must be a string or null"),
        ([_VALIDATE_STEP], "expected a JSON object"),
    ],
    ids=["no-steps", "name", "no_answer_token", "array"],
)
def test_replay_refuses_a_sidecar_that_loading_a_dataset_refuses_or_one_without_steps(
    tmp_path, capsys, meta, message
):
    log = tmp_path / "d.jsonl.prov.json"
    log.write_text(json.dumps(meta), encoding="utf-8")
    assert _replay(log, capsys) == (2, "", f"error: {log}: {message}\n")


@pytest.mark.parametrize("config_name", ["b+a@2.jsonl", "b+a@2.jsonl.prov.json"])
def test_mix_refuses_to_overwrite_its_config(tmp_path, capsys, config_name):
    base, augment, out_dir = tmp_path / "base.jsonl", tmp_path / "aug.jsonl", tmp_path / "out"
    _jsonl(base, ["b0"])
    _jsonl(augment, ["a0", "a1", "a2"])
    out_dir.mkdir()
    config = out_dir / config_name
    text = json.dumps({"base": "b", "augment": "a", "seed": 1, "sizes": [2]})
    config.write_text(text, encoding="utf-8")
    capsys.readouterr()
    argv = ["mix", "--config", str(config), "--base", str(base), "--augment", str(augment),
            "--out-dir", str(out_dir)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: output {config} would overwrite input {config}\n")
    assert config.read_text(encoding="utf-8") == text
    assert os.listdir(out_dir) == [config_name]


def test_validate_accepts_every_origin_and_names_an_unknown_one(tmp_path, capsys):
    context = "Obama was born in Honolulu."
    answer = (Span(18, "Honolulu"),)
    instances = [
        Instance(f"i{k}", "Where?", context, answer if origin.endswith("_positive") else (),
                 origin=origin)
        for k, origin in enumerate(sorted(ORIGINS))
    ]
    data = tmp_path / "d.jsonl"
    write_dataset(Dataset(tuple(instances)), data)
    capsys.readouterr()
    assert main(["validate", "--in", str(data)]) == 0
    assert capsys.readouterr().out == "OK: 6 instances, no violations\n"
    write_dataset(Dataset((*instances, Instance("x", "Where?", context, origin="mystery"))), data)
    assert main(["validate", "--in", str(data)]) == 1
    assert capsys.readouterr().out == "x\torigin_enum\tunknown origin 'mystery'\n"


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


def _bundled_squad_chain(tmp_path):
    """The bundled SQuAD fixture ingested, negativized, adapted and predicted: the four files."""
    pos, neg, adapted, preds = (tmp_path / f"{name}.jsonl" for name in ("pos", "neg", "adapted", "preds"))
    squad = Path(__file__).parent / "fixtures" / "synthetic_squad.json"
    for argv in (["ingest-squad", "--in", squad, "--split", "train", "--out", pos],
                 ["negativize", "--in", pos, "--out", neg, "--keep-positives"],
                 ["adapt-noanswer", "--in", neg, "--out", adapted],
                 ["predict-baseline", "--in", adapted, "--out", preds]):
        assert main([str(arg) for arg in argv]) == 0
    return pos, neg, adapted, preds


def test_validate_names_a_hand_edited_no_answer_adaptation(tmp_path, capsys):
    """A file whose sidecar names a token must keep it in every context and every negative."""
    pos, neg, adapted, preds = _bundled_squad_chain(tmp_path)
    lines = [json.loads(line) for line in adapted.read_text(encoding="utf-8").splitlines()]
    positive = next(line for line in lines if line["origin"] == "squad_positive")
    negative = next(line for line in lines if line["origin"] == "squad_negative")
    positive["context"] = positive["context"].removeprefix("NoAnswerFound ")  # spans shifted back: still read
    positive["answers"] = [{"start": a["start"] - 14, "text": a["text"]} for a in positive["answers"]]
    negative["answers"] = []
    adapted.write_text("".join(json.dumps(line, ensure_ascii=False) + "\n" for line in lines), encoding="utf-8")
    capsys.readouterr()

    assert main(["validate", "--in", str(adapted)]) == 1
    assert capsys.readouterr().out == (
        f"{positive['id']}\tno_answer_token_prefix\tcontext does not start with 'NoAnswerFound '\n"
        f"{negative['id']}\tnegative_no_answer_sentinel"
        "\torigin 'squad_negative' requires the no-answer span 'NoAnswerFound' at offset 0\n")
    for token in ([], ["--noanswer-token", "NoAnswerFound"], ["--noanswer-token", "X"]):
        assert main(["score", "--dataset", str(adapted), "--preds", str(preds), *token]) == 1
        assert f"instance {positive['id']!r} breaks no_answer_token_prefix" in capsys.readouterr().err
    # the token is checked against the sidecar's: an unadapted dataset takes one to score with
    assert main(["predict-baseline", "--in", str(pos), "--out", str(preds)]) == 0
    for dataset in (pos, neg):
        assert main(["score", "--dataset", str(dataset), "--preds", str(preds), "--noanswer-token", "X"]) == 0


def test_score_still_refuses_a_token_that_is_not_the_adaptation_s(tmp_path, capsys):
    _, _, adapted, preds = _bundled_squad_chain(tmp_path)
    capsys.readouterr()
    assert main(["score", "--dataset", str(adapted), "--preds", str(preds), "--noanswer-token", "NoAnswerFound"]) == 0
    capsys.readouterr()
    assert main(["score", "--dataset", str(adapted), "--preds", str(preds), "--noanswer-token", "X"]) == 1
    assert "breaks negative_origin_empty_answers" in capsys.readouterr().err


def test_sidecars_of_outputs_that_are_not_datasets_record_paths_then_options(
    tmp_path, uwre_file, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    chain = [
        ["ingest-uwre", "--in", uwre_file, "--split", "dev", "--out", "u.jsonl", "--templates-out", "t.tsv"],
        ["build-challenge", "--in", "u.jsonl", "--templates", "t.tsv", "--seed", "3", "--out", "c.jsonl"],
        ["predict-baseline", "--in", "u.jsonl", "--out", "p.jsonl", "--threshold", "0.5"],
        ["score", "--dataset", "u.jsonl", "--preds", "p.jsonl", "--out", "s.json",
         "--match", "overlap", "--noanswer-token", "NA"],
        ["predict-baseline", "--in", "c.jsonl", "--out", "cp.jsonl"],
        ["score-challenge", "--dataset", "c.jsonl", "--preds", "cp.jsonl", "--out", "cs.json"],
    ]
    for argv in chain:
        assert main([str(arg) for arg in argv]) == 0
    baseline = {"max_span_tokens": 8, "no_answer_threshold": 1.0, "idf_source": "self_corpus"}
    recorded = {
        "p.jsonl": ("predict-baseline", {"in": "u.jsonl", "out": "p.jsonl", **baseline,
                                         "no_answer_threshold": 0.5}),
        "s.json": ("score", {"dataset": "u.jsonl", "preds": "p.jsonl", "out": "s.json",
                             "match": "overlap", "noanswer_token": "NA"}),
        "cp.jsonl": ("predict-baseline", {"in": "c.jsonl", "out": "cp.jsonl", **baseline}),
        "cs.json": ("score-challenge", {"dataset": "c.jsonl", "preds": "cp.jsonl", "out": "cs.json",
                                        "noanswer_token": None}),
    }
    for out, (operation, parameters) in recorded.items():
        entry = {"operation": operation, "parameters": parameters, "seed": None}
        meta = {"name": Path(out).stem, "no_answer_token": None, "provenance_log": [entry]}
        assert sidecar_path(out).read_text(encoding="utf-8") == json.dumps(meta, indent=2) + "\n"


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


@pytest.mark.parametrize("rows, detail", [
    ("place_of_birth\tWho XXX XXX\n",
     "no usable question template for relation 'place_of_birth'"
     " (1 row rejected: line 1: pattern must contain 'XXX' exactly once: 'Who XXX XXX')"),
    ("place_of_birth\tWho?\nother\tWho is XXX?\nplace_of_birth\tXXX XXX\n",
     "no usable question template for relation 'place_of_birth'"
     " (2 rows rejected: line 1: pattern must contain 'XXX' exactly once: 'Who?')"),
    ("other\tWho is XXX?\n", "no question template for relation 'place_of_birth'"),
], ids=["one rejected", "two rejected", "none given"])
def test_build_challenge_names_the_templates_and_their_rejections(tmp_path, uwre_file, capsys, rows, detail):
    data, templates, out = tmp_path / "uwre.jsonl", tmp_path / "t.tsv", tmp_path / "c.jsonl"
    assert main(["ingest-uwre", "--in", str(uwre_file), "--split", "dev", "--out", str(data)]) == 0
    templates.write_text(rows, encoding="utf-8")
    capsys.readouterr()
    argv = ["build-challenge", "--in", str(data), "--templates", str(templates), "--seed", "5", "--out", str(out)]
    assert main([*argv, "--report", str(tmp_path / "report.json")]) == 1
    assert capsys.readouterr().err == f"error: {templates}: {detail}\n"
    assert not out.exists() and not (tmp_path / "report.json").exists()


def test_build_challenge_needs_no_template_for_a_relation_without_donors(tmp_path, capsys):
    records, data, templates = tmp_path / "uwre.tsv", tmp_path / "uwre.jsonl", tmp_path / "t.tsv"
    # one employer positive: no other employer entity to donate, so no question about one
    records.write_text(UWRE_TSV + "employer\tWho does XXX work for?\tBob\tBob works for Acme.\tAcme\n",
                       encoding="utf-8")
    templates.write_text("place_of_birth\tWhere was XXX born?\nemployer\tWho XXX XXX\n", encoding="utf-8")
    assert main(["ingest-uwre", "--in", str(records), "--split", "dev", "--out", str(data)]) == 0
    capsys.readouterr()
    out = tmp_path / "c.jsonl"
    argv = ["build-challenge", "--in", str(data), "--templates", str(templates), "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("(1 positives had no donor)\n")
    assert {inst.relation for inst in load_dataset(out)} == {"place_of_birth"}


def test_build_uwre_plus_names_the_file_it_cannot_build_from(tmp_path, uwre_file, capsys):
    data, templates, pool = tmp_path / "uwre.jsonl", tmp_path / "t.tsv", tmp_path / "pool.jsonl"
    positives, empty, out = tmp_path / "positives.jsonl", tmp_path / "empty.jsonl", tmp_path / "out.jsonl"
    main(["ingest-uwre", "--in", str(uwre_file), "--split", "dev", "--out", str(data),
          "--templates-out", str(templates)])
    main(["build-challenge", "--in", str(data), "--templates", str(templates), "--seed", "5",
          "--out", str(pool)])
    # the bundled slot-filling fixture holds no negative record
    fixture = Path(__file__).parent / "fixtures" / "synthetic_uwre.tsv"
    main(["ingest-uwre", "--in", str(fixture), "--split", "train", "--out", str(positives)])
    write_dataset(Dataset(name="empty"), empty)
    capsys.readouterr()
    for split, challenge, message in [
        (positives, pool, f"{positives}: split contains no uwre_negative instances"),
        (data, empty, f"{empty}: challenge pool is empty"),
    ]:
        argv = ["build-uwre-plus", "--in", split, "--pool", challenge, "--seed", 7, "--out", out]
        assert main([str(arg) for arg in argv]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


# (operation, key, kind) of every flag that provenance records, as replay checks it
_RECORDED_KINDS = [
    ("ingest-squad", "in", "a path"), ("ingest-squad", "split", "a string"),
    ("ingest-squad", "out", "a path"),
    ("ingest-uwre", "in", "a path"), ("ingest-uwre", "split", "a string"),
    ("ingest-uwre", "out", "a path"), ("ingest-uwre", "templates_out", "a path or null"),
    ("negativize", "in", "a path"), ("negativize", "out", "a path"),
    ("negativize", "keep_positives", "a boolean"),
    ("adapt-noanswer", "in", "a path"), ("adapt-noanswer", "out", "a path"),
    ("adapt-noanswer", "token", "a string"),
    ("build-challenge", "in", "a path"), ("build-challenge", "templates", "a path"),
    ("build-challenge", "seed", "an integer"), ("build-challenge", "out", "a path"),
    ("build-uwre-plus", "in", "a path"), ("build-uwre-plus", "pool", "a path"),
    ("build-uwre-plus", "seed", "an integer"), ("build-uwre-plus", "out", "a path"),
    ("mix", "base_path", "a path"), ("mix", "augment_path", "a path"), ("mix", "base", "a string"),
    ("mix", "augment", "a string"), ("mix", "size", "an integer"), ("mix", "seed", "an integer"),
    ("mix", "out", "a path"),
    ("predict-baseline", "in", "a path"), ("predict-baseline", "out", "a path"),
    ("predict-baseline", "no_answer_threshold", "a number"),
    ("predict-baseline", "max_span_tokens", "an integer"), ("predict-baseline", "idf_source", "a string"),
    ("score", "dataset", "a path"), ("score", "preds", "a path"), ("score", "out", "a path"),
    ("score", "match", "a string"), ("score", "noanswer_token", "a string or null"),
    ("score-challenge", "dataset", "a path"), ("score-challenge", "preds", "a path"),
    ("score-challenge", "out", "a path"), ("score-challenge", "noanswer_token", "a string or null"),
]


def test_replay_types_follow_from_each_flag_declaration():
    import ast

    recorded = [(op.name, flag.key, flag.kind) for op in cli.OPERATIONS.values() for flag in op.recorded]
    assert recorded == _RECORDED_KINDS
    # only the values that may be null name their kind; every other kind follows from the declaration
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    explicit = [
        node.args[0].value for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Flag"
        and (len(node.args) > 2 or any(k.arg == "kind" for k in node.keywords))
    ]
    assert sorted(explicit) == ["--noanswer-token", "--templates-out"]


def test_idf_and_match_choices_are_the_model_vocabularies_on_both_sides():
    from slotqa import metrics, model
    from slotqa.baseline import BaselineConfig

    subcommands = cli.build_parser()._subparsers._group_actions[0].choices
    assert subcommands["predict-baseline"]._option_string_actions["--idf"].choices is model.IDF_SOURCES
    assert subcommands["score"]._option_string_actions["--match"].choices is model.MATCH_MODES

    dataset = Dataset((Instance("q1", "Where?", "In Paris.", (Span(3, "Paris"),)),))
    predictions = [Prediction("q1", "Paris")]
    for source in model.IDF_SOURCES:
        BaselineConfig(idf_source=source).validate()
    for mode in model.MATCH_MODES:
        assert metrics.score_slot_filling(dataset, predictions, match=mode).f1 == 1.0
    with pytest.raises(model.DataError, match=r"^unknown idf_source 'bogus'$"):
        BaselineConfig(idf_source="bogus").validate()
    with pytest.raises(model.DataError, match=r"^unknown match mode 'bogus', expected 'exact' or 'overlap'$"):
        metrics.score_slot_filling(dataset, predictions, match="bogus")


def test_each_layer_the_cli_runs_records_the_operation_it_reports(tmp_path):
    from slotqa.challenge import build_challenge_set, build_uwre_plus
    from slotqa.ingest import ingest_squad
    from slotqa.mixer import MixSpec, mix_files
    from slotqa.transforms import insert_no_answer_token, negativize_squad

    squad, squad_report = ingest_squad(SQUAD_DOC, "train")
    uwre, templates, uwre_report = ingest_uwre(UWRE_TSV.splitlines(), "dev")
    negatives = negativize_squad(squad, keep_positives=True)
    positives = Dataset(tuple(inst for inst in uwre if inst.origin == "uwre_positive"), "positives")
    challenge = build_challenge_set(positives, templates, 5)
    base, augment = tmp_path / "base.jsonl", tmp_path / "augment.jsonl"
    write_dataset(ingest_uwre(UWRE_TSV.splitlines(), "test")[0], base)
    write_dataset(uwre, augment)
    mixed = [
        (load_dataset(path), report)
        for _, path, report in mix_files(MixSpec("b", "a", 3, (1, 9)), base, augment, tmp_path / "mix")
    ]
    results = [
        (squad, squad_report), (uwre, uwre_report), negatives, insert_no_answer_token(negatives[0]),
        challenge, build_uwre_plus(uwre, challenge[0], 11), *mixed,
    ]
    operations = [report.operation for _, report in results]
    assert operations == ["ingest-squad", "ingest-uwre", "negativize", "adapt-noanswer",
                          "build-challenge", "build-uwre-plus", "mix", "mix"]
    assert set(operations) <= set(cli.OPERATIONS)
    for dataset, report in results:
        assert dataset.provenance_log[-1]["operation"] == report.operation

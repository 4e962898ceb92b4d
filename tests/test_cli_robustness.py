"""Every subcommand on a small corpus: byte-mutated inputs and explicit encodings.

The corpus is built by running the README pipelines through the CLI in one
directory, with relative paths, so that the provenance logs it leaves can be
replayed from any copy of that directory.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import slotqa
from slotqa.cli import OPERATIONS, main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
# the package this suite imports, for child processes that run in other directories
SRC = str(Path(slotqa.__file__).resolve().parents[1])

# the bundled records are all positive; build-uwre-plus needs negatives to replace
NEGATIVE_RECORDS = "".join(
    f"place_of_birth\tWhere was XXX born?\tPerson9{i}\tPerson9{i} liked long walks.\t\n"
    for i in range(4)
)
MIX_CONFIG = {"base": "b", "augment": "a", "seed": 3, "sizes": [5, 1000]}

# (argv, the files it reads besides their sidecars, the dataset it writes)
STEPS = [
    ("ingest-squad --in squad.json --split train --out pos.jsonl --report ingest.json",
     ["squad.json"], "pos.jsonl"),
    ("negativize --in pos.jsonl --out neg.jsonl --keep-positives --report neg.json",
     ["pos.jsonl"], "neg.jsonl"),
    ("adapt-noanswer --in neg.jsonl --out adapted.jsonl", ["neg.jsonl"], "adapted.jsonl"),
    ("predict-baseline --in adapted.jsonl --out preds.jsonl --threshold 1.5",
     ["adapted.jsonl"], None),
    ("score --dataset adapted.jsonl --preds preds.jsonl --match overlap --out score.json",
     ["adapted.jsonl", "preds.jsonl"], None),
    ("ingest-uwre --in uwre.tsv --split test --out uwre.jsonl --templates-out inventory.tsv",
     ["uwre.tsv"], "uwre.jsonl"),
    ("build-challenge --in uwre.jsonl --templates templates.tsv --seed 7 --out challenge.jsonl",
     ["uwre.jsonl", "templates.tsv"], "challenge.jsonl"),
    ("build-uwre-plus --in uwre.jsonl --pool challenge.jsonl --seed 7 --split-label test"
     " --out plus.jsonl --report plus.json",
     ["uwre.jsonl", "challenge.jsonl"], "plus.jsonl"),
    ("predict-baseline --in challenge.jsonl --out cpreds.jsonl --max-span-tokens 3 --idf uniform",
     ["challenge.jsonl"], None),
    ("score-challenge --dataset challenge.jsonl --preds cpreds.jsonl --out cscore.json --tsv",
     ["challenge.jsonl", "cpreds.jsonl"], None),
    ("mix --config mix.json --base uwre.jsonl --augment challenge.jsonl --out-dir mixed",
     ["mix.json", "uwre.jsonl", "challenge.jsonl"], None),
    ("validate --in plus.jsonl", ["plus.jsonl"], None),
    ("replay --log adapted.jsonl.prov.json",
     ["adapted.jsonl.prov.json", "squad.json", "pos.jsonl", "neg.jsonl", "adapted.jsonl"], None),
    ("replay --log plus.jsonl.prov.json",
     ["plus.jsonl.prov.json", "uwre.tsv", "uwre.jsonl", "challenge.jsonl", "plus.jsonl"], None),
    ("replay --log mixed/b+a@5.jsonl.prov.json",
     ["mixed/b+a@5.jsonl.prov.json", "uwre.tsv", "uwre.jsonl", "challenge.jsonl",
      "mixed/b+a@5.jsonl"], None),
]
NUMERIC_FLAGS = ("--seed", "--threshold", "--max-span-tokens")
NUMBERS = ["nan", "inf", "-inf", "-1", "0", "-7", "1e308", str(10**30), "9" * 40]
INSERTS = [b"\xff", b"\r", b"\n", b"{", b"}", b'"', b"1e999", b"\x00", b"\t", b"-", b"9" * 20]


def _seed_files(directory: Path) -> None:
    shutil.copy(FIXTURES / "synthetic_squad.json", directory / "squad.json")
    shutil.copy(FIXTURES / "templates.tsv", directory / "templates.tsv")
    uwre = (FIXTURES / "synthetic_uwre.tsv").read_text(encoding="utf-8") + NEGATIVE_RECORDS
    (directory / "uwre.tsv").write_text(uwre, encoding="utf-8")
    (directory / "mix.json").write_text(json.dumps(MIX_CONFIG), encoding="utf-8")


@contextlib.contextmanager
def _inside(directory: Path):
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def _run(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr; any other exception escapes."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's usage errors
            code = e.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    _seed_files(directory)
    with _inside(directory):
        for argv, _, _ in STEPS:
            assert _run(argv.split()) == (0, ""), argv
    return directory


def test_the_steps_run_every_subcommand():
    assert {argv.split()[0] for argv, _, _ in STEPS} == set(OPERATIONS)


@st.composite
def mutations(draw):
    step = draw(st.sampled_from(STEPS))
    argv = step[0].split()
    for i, arg in enumerate(argv):
        if arg in NUMERIC_FLAGS and draw(st.booleans()):
            argv[i + 1] = draw(st.sampled_from(NUMBERS))
    target = draw(st.sampled_from([f for read in step[1] for f in (read, read + ".prov.json")]))
    kind = draw(st.sampled_from(["truncate", "flip", "insert", "none"]))
    where = draw(st.floats(0, 1))
    value = draw(st.integers(1, 255) if kind == "flip" else st.sampled_from(INSERTS))
    return step, argv, target, kind, where, value


def _mutate(path: Path, kind: str, where: float, value) -> None:
    if not path.exists() or kind == "none":
        return
    data = bytearray(path.read_bytes())
    at = int(where * len(data))
    if kind == "truncate":
        del data[at:]
    elif kind == "flip" and at < len(data):
        data[at] ^= value
    elif kind == "insert":
        data[at:at] = value
    path.write_bytes(bytes(data))


def _valid(path: str) -> bool:
    return _run(["validate", "--in", path])[0] == 0


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutations())
def test_mutated_inputs_exit_0_1_or_2_and_leave_valid_datasets(tmp_path_factory, corpus, case):
    (_, _, writes), argv, target, kind, where, value = case
    work = tmp_path_factory.mktemp("fuzz")
    shutil.copytree(corpus, work, dirs_exist_ok=True)
    try:
        _mutate(work / target, kind, where, value)
        with _inside(work):
            code, err = _run(argv)
            assert code in (0, 1, 2), (argv, err)
            assert "Traceback" not in err
            # every command validates the datasets it reads; mix's output is not
            # checked, because mix copies lines and leaves validating them to the user
            if code == 0 and writes:
                assert _valid(writes), (argv, target)
    finally:
        shutil.rmtree(work)


def _slotqa(cwd: Path, *argv: str, flags: tuple = ()) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-m", "slotqa", *argv],
        cwd=cwd, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )


@pytest.mark.parametrize(
    "target, data, argv, code",
    [
        ("squad.json", b'{"data": [1e999', "ingest-squad --in squad.json --split dev --out o", 2),
        ("pos.jsonl", b"\xff\r{\n", "negativize --in pos.jsonl --out o.jsonl", 2),
        ("uwre.tsv", b"a\tb\r\n", "ingest-uwre --in uwre.tsv --split test --out o.jsonl", 2),
        ("mix.json", b'{"sizes": [1e999]}', "mix --config mix.json --base uwre.jsonl"
         " --augment challenge.jsonl --out-dir o", 2),
        ("adapted.jsonl.prov.json", b'{"provenance_log": [{"operation": "negativize",'
         b' "parameters": {"in": 1e999, "out": "o"}}]}', "replay --log adapted.jsonl.prov.json", 2),
        (None, None, "predict-baseline --in adapted.jsonl --out o --threshold inf", 1),
        (None, None, "build-challenge --in uwre.jsonl --templates templates.tsv --seed nan --out o", 2),
    ],
)
def test_bad_input_to_the_console_prints_no_traceback(tmp_path, corpus, target, data, argv, code):
    shutil.copytree(corpus, tmp_path, dirs_exist_ok=True)
    if target:
        (tmp_path / target).write_bytes(data)
    proc = _slotqa(tmp_path, *argv.split())
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(("error: ", "usage: "))


@pytest.mark.parametrize("argv, shown", [
    ("validate --in odd.jsonl", "q\u4e00\tpositive_origin_nonempty_answers"),
    ("negativize --in pos.jsonl --out \u00fc\u4e00.jsonl", "instances to \u00fc\u4e00.jsonl"),
], ids=["validate", "negativize"])
def test_a_stdout_that_cannot_encode_a_character_gets_an_escape_and_no_traceback(tmp_path, corpus, argv, shown):
    shutil.copytree(corpus, tmp_path, dirs_exist_ok=True)
    odd = {"id": "q\u4e00", "question": "Where?", "context": "abc", "answers": [], "relation": None,
           "subject_entity": None, "origin": "squad_positive", "split": "train"}
    (tmp_path / "odd.jsonl").write_text(json.dumps(odd, ensure_ascii=False) + "\n", encoding="utf-8")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    runs = {}
    for encoding in ("utf-8", "ascii", "latin-1"):
        runs[encoding] = subprocess.run([sys.executable, "-m", "slotqa", *argv.split()], cwd=tmp_path,
                                        env={**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": encoding},
                                        capture_output=True, timeout=120)
    text = runs["utf-8"].stdout.decode("utf-8")
    assert shown in text  # written raw on UTF-8
    for encoding, proc in runs.items():
        assert b"Traceback" not in proc.stderr
        assert proc.returncode == runs["utf-8"].returncode == (1 if argv.startswith("validate") else 0)
        assert proc.stdout == text.encode(encoding, "backslashreplace")


def _closed_stdout(cwd: Path, argv: str, buffered: bool) -> subprocess.CompletedProcess:
    """Run a step whose stdout's reader has gone, as after `| head -c 0`: every write fails with EPIPE."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        return subprocess.run([sys.executable, "-m", "slotqa", *argv.split()], cwd=cwd, env=env,
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("argv", ["score --dataset adapted.jsonl --preds preds.jsonl",
                                  "replay --log adapted.jsonl.prov.json"])
def test_a_reader_that_closed_stdout_ends_the_step_with_141_and_no_message(corpus, argv, buffered):
    proc = _closed_stdout(corpus, argv, buffered)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.parametrize("buffered", [False, True])
def test_a_closed_stdout_after_a_failed_replay_check_prints_no_traceback(tmp_path, corpus, buffered):
    shutil.copytree(corpus, tmp_path, dirs_exist_ok=True)
    (tmp_path / "adapted.jsonl").unlink()  # steps 0 and 1 print their lines, then step 2's check fails
    proc = _closed_stdout(tmp_path, "replay --log adapted.jsonl.prov.json", buffered)
    assert proc.returncode == 141
    # a buffered stdout fails only when flushed, after the failed check is reported
    assert proc.stderr == ("error: adapted.jsonl.prov.json: step 2 (adapt-noanswer): missing recorded output"
                           " adapted.jsonl\n" if buffered else "")


_REPEATED_CLOSED_STDOUT = """
import os, sys
from slotqa.cli import main
counts = []
for _ in range(3):
    read_end, write_end = os.pipe()
    os.close(read_end)
    os.dup2(write_end, 1)  # a stdout whose reader has gone
    os.close(write_end)
    counts.append(len(os.listdir("/proc/self/fd")))
    counts.append(main(sys.argv[1:]))
print(counts, file=sys.stderr)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="counts the descriptors in /proc/self/fd")
def test_a_closed_stdout_leaves_no_descriptor_open(corpus):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    argv = ["score", "--dataset", "adapted.jsonl", "--preds", "preds.jsonl"]
    proc = subprocess.run([sys.executable, "-c", _REPEATED_CLOSED_STDOUT, *argv], cwd=corpus, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
    counts = json.loads(proc.stderr)
    assert counts[1::2] == [141] * 3
    assert len(set(counts[::2])) == 1, counts  # as many descriptors open before each call


def test_every_subcommand_names_the_encoding_of_every_file_it_opens(tmp_path):
    """A file opened with the locale's encoding would hold other bytes under another locale."""
    _seed_files(tmp_path)
    flags = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    for argv, _, _ in STEPS:
        proc = _slotqa(tmp_path, *argv.split(), flags=flags)
        assert (proc.returncode, proc.stderr) == (0, ""), argv

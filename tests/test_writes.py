"""How outputs reach disk: one writer, whole-file replacement, sidecars never stale."""

import ast
import contextlib
import io
import json
import os
import signal
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

import slotqa
from slotqa import model
from slotqa.cli import main
from slotqa.model import sidecar_path

PACKAGE = Path(slotqa.__file__).resolve().parent
# the package this suite imports, for child processes
SRC = str(PACKAGE.parent)
LINE = (
    '{"id": "%s", "question": "q", "context": "c", "answers": [], "relation": null,'
    ' "subject_entity": null, "origin": "synthetic", "split": "train"}\n'
)


def _writes(call: ast.Call) -> bool:
    """Whether a call may open a file for writing; any mode that is not a literal may."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes", "open"):
        return True
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    mode = call.args[1] if len(call.args) > 1 else None
    mode = next((k.value for k in call.keywords if k.arg == "mode"), mode)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+"))


def test_one_call_in_the_package_opens_a_file_for_writing():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call) and _writes(n)):
            owners = [f for f in functions if f.lineno <= call.lineno <= f.end_lineno]
            owner = max(owners, key=lambda f: f.lineno).name if owners else None
            found.append((path.name, owner, ast.unparse(call.args[0])))
    # besides the one writer of files, main points a stdout whose reader has gone at the null device
    assert found == [("cli.py", "main", "os.devnull"), ("model.py", "atomic_output", "temp")]


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(arg) for arg in argv])


def _replays(log: Path) -> bool:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["replay", "--log", str(log)])
    return code == 0 and "MISMATCH" not in out.getvalue()


def _temporary_files(directory: Path) -> list:
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


@pytest.mark.parametrize("stage", ["write data", "replace data", "write sidecar", "replace sidecar"])
def test_a_failing_write_leaves_the_old_pair_or_data_without_a_sidecar(tmp_path, monkeypatch, stage):
    squad = tmp_path / "squad.json"
    squad.write_bytes((Path(__file__).parent / "fixtures" / "synthetic_squad.json").read_bytes())
    pos, neg = tmp_path / "pos.jsonl", tmp_path / "neg.jsonl"
    assert _run(["ingest-squad", "--in", squad, "--split", "train", "--out", pos]) == 0
    assert _run(["negativize", "--in", pos, "--out", neg]) == 0
    old = (neg.read_bytes(), sidecar_path(neg).read_bytes())

    def fail(*args, **kwargs):
        raise OSError(28, "No space left on device")

    real_replace, calls = os.replace, []

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == {"replace data": 1, "replace sidecar": 2}.get(stage):
            fail()
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    if stage == "write data":
        monkeypatch.setattr(model, "dumps_instance", fail)
    elif stage == "write sidecar":
        monkeypatch.setattr(model, "write_sidecar", fail)
    assert _run(["negativize", "--in", pos, "--out", neg, "--keep-positives"]) == 2
    monkeypatch.undo()

    assert _temporary_files(tmp_path) == []
    if stage == "write data":
        assert (neg.read_bytes(), sidecar_path(neg).read_bytes()) == old
        assert _replays(sidecar_path(neg))
    else:  # the old sidecar is removed before the data is replaced
        assert (neg.read_bytes() == old[0]) == (stage == "replace data")
        assert not sidecar_path(neg).exists()
    assert _run(["validate", "--in", neg]) == 0


def _mix(directory: Path, seed: int) -> subprocess.Popen:
    config = directory / f"mix{seed}.json"
    config.write_text(json.dumps({"base": "b", "augment": "a", "seed": seed, "sizes": [10, 1000, 30000]}),
                      encoding="utf-8")
    argv = ["mix", "--config", config, "--base", directory / "base.jsonl",
            "--augment", directory / "augment.jsonl", "--out-dir", directory / "out"]
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "slotqa", *map(str, argv)],
                            env={**os.environ, "PYTHONPATH": path},
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _state(out: Path) -> dict:
    state = {}
    for path in out.iterdir():
        with contextlib.suppress(FileNotFoundError):  # a temporary file renamed meanwhile
            state[path.name] = (path.stat().st_size, path.stat().st_mtime_ns)
    return state


def test_a_mix_killed_while_it_replaces_its_outputs_leaves_no_stale_sidecar(tmp_path):
    (tmp_path / "base.jsonl").write_text("".join(LINE % f"b{i}" for i in range(1000)), encoding="utf-8")
    (tmp_path / "augment.jsonl").write_text("".join(LINE % f"a{i}" for i in range(30000)),
                                            encoding="utf-8")
    out = tmp_path / "out"
    assert _mix(tmp_path, 13).wait(timeout=60) == 0
    # each re-mix over the last one's outputs is killed this long after it starts to write
    for seed, delay in zip(range(14, 18), (0, 0.01, 0.03, 0.1)):
        before = _state(out)
        proc = _mix(tmp_path, seed)
        deadline = time.monotonic() + 30
        while proc.poll() is None and _state(out) == before and time.monotonic() < deadline:
            time.sleep(0.002)
        time.sleep(delay)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)
        for data in sorted(out.glob("*.jsonl")):
            assert _run(["validate", "--in", data]) == 0, (seed, data.name)
            if sidecar_path(data).exists():
                assert _replays(sidecar_path(data)), (seed, data.name)


# The head of a script that runs ``main(sys.argv[2:])`` with every input split
# in two for fork_map. It appends the pid of every child it forks to
# ``sys.argv[1] + ".pids"``; each _HOLD entry patches a step to call hold(),
# which, the first time in each process, touches ``sys.argv[1]`` (in the
# parent) and sleeps. SIGINT raises KeyboardInterrupt even if the test runner
# ignores it, as Ctrl-C does.
_INTERRUPTIBLE = """
import os, signal, sys, time
from pathlib import Path
from slotqa import baseline, cli, mixer, parallel
signal.signal(signal.SIGINT, signal.default_int_handler)
ready, parent = Path(sys.argv[1]), os.getpid()
parallel.available_cpus = lambda: 2
baseline._FORK_MIN_FLAGGED = mixer._RANGE_MIN_BYTES = 1
real_fork = os.fork
def fork():
    pid = real_fork()
    if pid:
        with open(str(ready) + ".pids", "a") as f:
            f.write(f"{pid}\\n")
    return pid
os.fork = fork
held = []
def hold():
    if not held:  # once per process
        held.append(os.getpid())
        if os.getpid() == parent:
            ready.touch()
        time.sleep(60)
"""
_HOLD = {
    # the parent predicts its own chunk while its child predicts the other
    "predict": """
real_predict = baseline.predict
def predict(*args):
    hold()
    return real_predict(*args)
baseline.predict = predict
""",
    # the copy pass reads each input whole (the scan reads ranges): hold after its first block
    "mix copy": """
real_blocks = mixer._line_blocks
def line_blocks(path, start=0, stop=None):
    for lines in real_blocks(path, start, stop):
        yield lines
        if stop is None:
            hold()
mixer._line_blocks = line_blocks
""",
}


@pytest.mark.skipif(sys.platform != "linux", reason="children are forked only on Linux")
@pytest.mark.parametrize("hold", sorted(_HOLD))
def test_an_interrupt_ends_like_an_error_and_leaves_the_old_outputs(tmp_path, hold):
    def mix_config(seed):
        (tmp_path / "mix.json").write_text(json.dumps({"base": "b", "augment": "a", "seed": seed,
                                                       "sizes": [20, 100]}), encoding="utf-8")

    out = tmp_path / "out"
    out.mkdir()
    mix_config(1)
    if hold == "predict":
        squad = Path(__file__).parent / "fixtures" / "synthetic_squad.json"
        assert _run(["ingest-squad", "--in", squad, "--split", "train", "--out", tmp_path / "pos.jsonl"]) == 0
        argv = ["predict-baseline", "--in", tmp_path / "pos.jsonl", "--out", out / "preds.jsonl"]
    else:
        (tmp_path / "base.jsonl").write_text("".join(LINE % f"b{i}" for i in range(50)), encoding="utf-8")
        (tmp_path / "augment.jsonl").write_text("".join(LINE % f"a{i}" for i in range(200)), encoding="utf-8")
        argv = ["mix", "--config", tmp_path / "mix.json", "--base", tmp_path / "base.jsonl",
                "--augment", tmp_path / "augment.jsonl", "--out-dir", out]
    assert _run(argv) == 0  # the old outputs, which the interrupted run must leave in place
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    mix_config(2)
    ready = tmp_path / "ready"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _INTERRUPTIBLE + _HOLD[hold] + "sys.exit(cli.main(sys.argv[2:]))",
         str(ready), *map(str, argv)],
        env={**os.environ, "PYTHONPATH": path}, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 60
    while proc.poll() is None and not ready.exists() and time.monotonic() < deadline:
        time.sleep(0.005)
    proc.send_signal(signal.SIGINT)
    stdout, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stdout, stderr) == (130, "", "error: interrupted\n")
    pids = [int(pid) for pid in Path(f"{ready}.pids").read_text().split()]
    assert pids and not [pid for pid in pids if Path(f"/proc/{pid}").exists()]
    assert _temporary_files(out) == []
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_a_linked_output_is_written_through_and_stays_a_link(tmp_path):
    squad = Path(__file__).parent / "fixtures" / "synthetic_squad.json"
    target, link, plain = tmp_path / "target.jsonl", tmp_path / "link.jsonl", tmp_path / "plain.jsonl"
    target.write_text("old\n", encoding="utf-8")
    link.symlink_to(target)
    for out in (link, plain):
        assert _run(["ingest-squad", "--in", squad, "--split", "dev", "--out", out]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == plain.read_bytes()
    assert not sidecar_path(link).is_symlink() and not sidecar_path(target).exists()
    assert _temporary_files(tmp_path) == []


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_a_new_output_gets_the_mode_of_a_file_opened_for_writing(tmp_path, umask):
    squad = Path(__file__).parent / "fixtures" / "synthetic_squad.json"
    previous = os.umask(umask)
    try:
        assert _run(["ingest-squad", "--in", squad, "--split", "dev", "--out", tmp_path / "o.jsonl"]) == 0
        with open(tmp_path / "reference", "w", encoding="utf-8"):
            pass
    finally:
        os.umask(previous)
    mode = stat.S_IMODE((tmp_path / "reference").stat().st_mode)
    assert mode == 0o666 & ~umask
    for written in (tmp_path / "o.jsonl", sidecar_path(tmp_path / "o.jsonl")):
        assert stat.S_IMODE(written.stat().st_mode) == mode


def test_an_output_written_over_keeps_its_mode(tmp_path):
    squad = Path(__file__).parent / "fixtures" / "synthetic_squad.json"
    out = tmp_path / "o.jsonl"
    argv = ["ingest-squad", "--in", squad, "--split", "dev", "--out", out]
    assert _run(argv) == 0
    out.chmod(0o600)
    assert _run(argv) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o600

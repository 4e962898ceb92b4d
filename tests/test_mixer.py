import errno
import os
import json
import random
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from slotqa import mixer, parallel
from slotqa import (
    DataError,
    MixSpec,
    ParseError,
    insert_no_answer_token,
    load_dataset,
    mix_files,
    write_dataset,
)
from slotqa.mixer import DEFAULT_SIZES
from slotqa.model import decode_line, dumps_instance, sidecar_path

from helpers import make_dataset, make_instance, oracle_sample, record_forks


def numbered(n, prefix="x"):
    return make_dataset(
        *[
            make_instance(id=f"{prefix}{i}", answers=(), origin="synthetic")
            for i in range(n)
        ],
        name=prefix,
    )


def spec_for(sizes, seed):
    return MixSpec(base="b", augment="a", seed=seed, sizes=tuple(sizes))


def mixed(tmp_path, spec, base, augment):
    """mix_files over the two datasets written as JSONL: each output loaded, with its report."""
    base_path, augment_path = tmp_path / "base.jsonl", tmp_path / "augment.jsonl"
    write_dataset(base, base_path)
    write_dataset(augment, augment_path)
    written = mix_files(spec, base_path, augment_path, tmp_path / "out")
    return [(load_dataset(path), report) for _, path, report in written]


def sampled(tmp_path, augment, k, seed):
    """The augment's sample of size k, as mix_files takes it after an empty base."""
    ((out, _),) = mixed(tmp_path, spec_for((k,), seed), numbered(0, "b"), augment)
    return out


def test_sample_whole_dataset_keeps_order(tmp_path):
    ds = numbered(5)
    out = sampled(tmp_path, ds, 5, seed=7)
    assert out.instances == ds.instances


def test_sample_oversized_request_truncates(tmp_path):
    ds = numbered(3)
    out = sampled(tmp_path, ds, 10, seed=7)
    assert out.instances == ds.instances
    entry = out.provenance_log[-1]
    assert entry["parameters"]["truncated_to_population"] is True
    assert entry["parameters"]["taken"] == 3
    assert entry["seed"] == 7


def test_sample_golden_selection_seed7(tmp_path):
    # pinned: random.Random(7).shuffle([0, 1, 2, 3]) -> [3, 1, 0, 2],
    # so the 2-prefix {3, 1} sorts to positions [1, 3]
    order = [0, 1, 2, 3]
    random.Random(7).shuffle(order)
    assert order == [3, 1, 0, 2]
    assert oracle_sample(4, 2, 7) == [1, 3]
    out = sampled(tmp_path, numbered(4), 2, seed=7)
    assert [i.id for i in out.instances] == ["x1", "x3"]


def test_sample_selection_preserves_input_order(tmp_path):
    out = sampled(tmp_path, numbered(50), 20, seed=11)
    ids = [int(i.id[1:]) for i in out.instances]
    assert ids == sorted(ids)
    assert len(set(ids)) == 20


def test_samples_nest_across_sizes(tmp_path):
    # one run per size, so nesting cannot come from sharing one run's table
    ds = numbered(100)
    for seed in (0, 1, 2, 40):
        previous: set = set()
        for k in (5, 20, 60, 100):
            chosen = {i.id for i in sampled(tmp_path, ds, k, seed=seed)}
            assert previous <= chosen
            previous = chosen


def test_mix_names_and_sizes(tmp_path):
    base = numbered(20, "b")
    augment = numbered(40, "a")
    outputs = mixed(tmp_path, spec_for((5, 10), seed=3), base, augment)
    assert [d.name for d, _ in outputs] == ["b+a@5", "b+a@10"]
    assert [len(d) for d, _ in outputs] == [25, 30]
    assert [report.output_count for _, report in outputs] == [25, 30]
    for d, _ in outputs:
        assert [i.id for i in d.instances[:20]] == [f"b{i}" for i in range(20)]
        assert d.provenance_log[-1]["operation"] == "mix"
        assert d.provenance_log[-1]["seed"] == 3


def test_mix_default_sizes():
    assert DEFAULT_SIZES == (10**3, 10**4, 10**5, 10**6)


def test_mix_truncates_against_small_augment(tmp_path):
    ((out, report),) = mixed(tmp_path, spec_for((10,), seed=0), numbered(4, "b"), numbered(6, "a"))
    assert len(out) == 4 + 6
    assert out.provenance_log[-1]["parameters"]["truncated_to_population"] is True
    assert report.parameters["taken"] == 6


def test_mix_nesting_across_outputs(tmp_path):
    base = numbered(3, "b")
    augment = numbered(200, "a")
    (small, _), (large, _) = mixed(tmp_path, spec_for((20, 100), seed=9), base, augment)
    assert {i.id for i in small} <= {i.id for i in large}


def test_mix_agrees_with_sample(tmp_path):
    base = numbered(3, "b")
    augment = numbered(30, "a")
    ((out, _),) = mixed(tmp_path, spec_for((12,), seed=21), base, augment)
    assert out.instances[3:] == tuple(augment.instances[i] for i in oracle_sample(30, 12, 21))


def test_mix_id_collision_is_fatal(tmp_path):
    base = numbered(5, "x")
    augment = numbered(5, "x")
    with pytest.raises(DataError) as exc:
        mixed(tmp_path, spec_for((2,), seed=0), base, augment)
    assert "x0" in str(exc.value)


def test_mix_rejects_adaptation_mismatch(tmp_path):
    base, _ = insert_no_answer_token(numbered(3, "b"))
    augment = numbered(5, "a")
    with pytest.raises(DataError, match="different no-answer adaptations"):
        mixed(tmp_path, spec_for((2,), seed=0), base, augment)
    assert not (tmp_path / "out").exists()


def test_mix_same_token_propagates(tmp_path):
    base, _ = insert_no_answer_token(numbered(3, "b"))
    augment, _ = insert_no_answer_token(numbered(5, "a"))
    outputs = mixed(tmp_path, spec_for((2, 4), seed=0), base, augment)
    for out, _ in outputs:
        assert out.no_answer_token == base.no_answer_token
        assert out.provenance_log[:-1] == base.provenance_log


def test_mixspec_validation():
    with pytest.raises(DataError):
        spec_for((0,), seed=1).validate()
    with pytest.raises(DataError):
        spec_for((-1,), seed=1).validate()
    with pytest.raises(DataError):
        spec_for((10, 10), seed=1).validate()
    with pytest.raises(DataError):
        spec_for((10, 5), seed=1).validate()
    with pytest.raises(DataError):
        spec_for((), seed=1).validate()
    with pytest.raises(DataError):
        MixSpec(base="", augment="a", seed=1).validate()
    # each name becomes part of one file name under the output directory
    for name in (".", "..", "../../escaped", "a/b", "/abs", "a\0b", os.sep + "x", f"x{os.altsep or '/'}y"):
        with pytest.raises(DataError, match="single path components"):
            MixSpec(base=name, augment="a", seed=1).validate()
        with pytest.raises(DataError, match="single path components"):
            MixSpec(base="b", augment=name, seed=1).validate()
    for name in ("...", ".hidden", "a..b", "dev-v1.1", "x+y"):
        MixSpec(base=name, augment=name, seed=1).validate()
    spec_for((5, 10), seed=1).validate()


def test_mixspec_from_json_file(tmp_path):
    path = tmp_path / "mix.json"
    path.write_text(
        json.dumps({"base": "b", "augment": "a", "sizes": [3, 7], "seed": 4}),
        encoding="utf-8",
    )
    spec = MixSpec.from_json_file(path)
    assert spec == MixSpec(base="b", augment="a", seed=4, sizes=(3, 7))

    path.write_text(json.dumps({"base": "b", "augment": "a", "seed": 4}), encoding="utf-8")
    assert MixSpec.from_json_file(path).sizes == DEFAULT_SIZES

    for bad in (
        {"base": "b", "augment": "a", "seed": 4, "bogus": 1},
        {"base": "b", "augment": "a", "sizes": [3]},
        {"base": "b", "augment": "a", "seed": True, "sizes": [3]},
        {"base": "b", "augment": "a", "seed": 4, "sizes": [3, "x"]},
        {"base": None, "augment": ["x"], "seed": 1, "sizes": [2]},
        {"base": "b", "augment": 5, "seed": 1, "sizes": [2]},
    ):
        path.write_text(json.dumps(bad), encoding="utf-8")
        with pytest.raises(ParseError):
            MixSpec.from_json_file(path)

    path.write_text("not json", encoding="utf-8")
    with pytest.raises(ParseError):
        MixSpec.from_json_file(path)


def test_mix_files_matches_the_oracle(tmp_path):
    base = numbered(7, "b")
    augment = numbered(23, "a")
    base_path = tmp_path / "base.jsonl"
    augment_path = tmp_path / "augment.jsonl"
    write_dataset(base, base_path)
    write_dataset(augment, augment_path)

    spec = spec_for((4, 11), seed=2)
    written = mix_files(spec, base_path, augment_path, tmp_path / "out")
    assert [name for name, _, _ in written] == ["b+a@4", "b+a@11"]
    for (name, path, report), k in zip(written, spec.sizes):
        instances = base.instances + tuple(augment.instances[i] for i in oracle_sample(23, k, 2))
        want = "".join(dumps_instance(i) + "\n" for i in instances)
        assert path.read_text(encoding="utf-8") == want
        assert report.output_count == len(instances)
        loaded = load_dataset(path)
        assert loaded.name == name
        assert loaded.instances == instances


def test_mix_files_is_deterministic(tmp_path):
    base = numbered(5, "b")
    augment = numbered(50, "a")
    write_dataset(base, tmp_path / "base.jsonl")
    write_dataset(augment, tmp_path / "augment.jsonl")
    spec = spec_for((9,), seed=6)
    first = mix_files(spec, tmp_path / "base.jsonl", tmp_path / "augment.jsonl", tmp_path / "o1")
    second = mix_files(spec, tmp_path / "base.jsonl", tmp_path / "augment.jsonl", tmp_path / "o2")
    assert first[0][1].read_bytes() == second[0][1].read_bytes()


def test_mix_files_rejects_sidecar_mismatch(tmp_path):
    base, _ = insert_no_answer_token(numbered(3, "b"))
    augment = numbered(5, "a")
    write_dataset(base, tmp_path / "base.jsonl")
    write_dataset(augment, tmp_path / "augment.jsonl")
    with pytest.raises(DataError):
        mix_files(spec_for((2,), seed=0), tmp_path / "base.jsonl", tmp_path / "augment.jsonl", tmp_path / "o")


def test_mix_files_propagates_token_sidecar(tmp_path):
    base, _ = insert_no_answer_token(numbered(3, "b"))
    augment, _ = insert_no_answer_token(numbered(9, "a"))
    write_dataset(base, tmp_path / "base.jsonl")
    write_dataset(augment, tmp_path / "augment.jsonl")
    written = mix_files(spec_for((4,), seed=0), tmp_path / "base.jsonl", tmp_path / "augment.jsonl", tmp_path / "o")
    loaded = load_dataset(written[0][1])
    assert loaded.no_answer_token == base.no_answer_token


# --- the rank draw is random.shuffle's, clipped at the largest sampled size ---


def _shuffle_ranks(population, seed, limit):
    order = list(range(population))
    random.Random(seed).shuffle(order)
    rank = [0] * population
    for position, index in enumerate(order):
        rank[index] = min(position, limit)
    return rank


# every power of two from 2 to 4096, one below and one above: the draw's bit count changes there
EDGES = sorted({p + d for p in (1 << b for b in range(1, 13)) for d in (-1, 0, 1)})


@settings(max_examples=150, deadline=None)
@given(
    population=st.one_of(st.integers(0, 5000), st.sampled_from(EDGES)),
    seed=st.integers(0, 2**64),
    limit=st.integers(0, 5001),
)
def test_ranks_invert_random_shuffle_clipped_at_limit(population, seed, limit):
    assert mixer._ranks(population, seed, limit).tolist() == _shuffle_ranks(population, seed, limit)


def test_ranks_invert_random_shuffle_at_every_bit_count_change():
    for population in EDGES:
        for limit in (0, 1, population // 2, population - 1, population):
            assert mixer._ranks(population, 3, limit).tolist() == _shuffle_ranks(population, 3, limit), \
                (population, limit)


# --- the permutation is drawn only when some size samples ---


def _no_ranks(population, seed, limit):
    raise AssertionError("a mix whose sizes take every augment line drew a permutation")


@pytest.mark.parametrize(
    "population, sizes", [(6, (6,)), (6, (6, 9)), (6, (7, 100)), (0, (1,)), (0, (1, 4))]
)
def test_mix_files_taking_every_line_draws_no_permutation(tmp_path, monkeypatch, population, sizes):
    monkeypatch.setattr(mixer, "_ranks", _no_ranks)
    base, augment = numbered(3, "b"), numbered(population, "a")
    got = mixed(tmp_path, spec_for(sizes, seed=5), base, augment)
    for (out, report), k in zip(got, sizes):
        sample = tuple(augment.instances[i] for i in oracle_sample(population, k, 5))
        assert sample == augment.instances
        assert out.instances == base.instances + sample
        assert report.output_count == 3 + population


def test_mix_files_draws_the_permutation_once_when_a_size_samples(tmp_path, monkeypatch):
    calls, ranks = [], mixer._ranks

    def counted(population, seed, limit):
        calls.append((population, seed, limit))
        return ranks(population, seed, limit)

    monkeypatch.setattr(mixer, "_ranks", counted)
    base, augment = numbered(2, "b"), numbered(10, "a")
    sizes = (3, 10, 20)
    got = mixed(tmp_path, spec_for(sizes, seed=4), base, augment)
    # only the size below the population reads ranks, so 3 is the limit
    assert calls == [(10, 4, 3)]
    for (out, _), k in zip(got, sizes):
        assert out.instances == base.instances + tuple(augment.instances[i] for i in oracle_sample(10, k, 4))


# --- the one-pass streaming mix: parallel id scan and single copy pass ---

LINE = '{"id":"%s","question":"q","context":"c","answers":[],"relation":null,"subject_entity":null,"origin":"synthetic","split":"train"}'


def text_mode_outputs(base_path, augment_path, sizes, seed):
    """The bytes of each output as a text-mode pass per size writes them.

    Lines split under universal newlines, each is written back with a
    single LF, and the sample is the sorted prefix of one seeded shuffle.
    """

    def lines(path):
        with open(path, "r", encoding="utf-8") as f:
            return [line if line.endswith("\n") else line + "\n" for line in f]

    base, augment = lines(base_path), lines(augment_path)
    return [
        "".join(base + [augment[i] for i in oracle_sample(len(augment), k, seed)]).encode("utf-8")
        for k in sizes
    ]


def in_ranges(m, parts, fork=True):
    """Scan every input, however small, in ``parts`` ranges, in forked children if ``fork``."""
    m.setattr(mixer, "_RANGE_MIN_BYTES", 1)
    m.setattr(parallel, "available_cpus", lambda: parts)
    if not fork:
        m.setattr(parallel, "_may_fork", lambda: False)


@pytest.fixture
def forks(monkeypatch):
    """Scan every input, however small, in two ranges through fork_map.

    Returns the list of the children's pids.
    """
    in_ranges(monkeypatch, 2)
    return record_forks(monkeypatch)


def mixed_bytes(spec, base_path, augment_path, out_dir):
    return [path.read_bytes() for _, path, _ in mix_files(spec, base_path, augment_path, out_dir)]


def test_parallel_scan_keeps_text_mode_newlines(tmp_path, monkeypatch):
    base = tmp_path / "base.jsonl"
    augment = tmp_path / "augment.jsonl"
    base.write_bytes(("\r\n".join(LINE % f"b{i}" for i in range(3)) + "\r\n").encode())
    # CRLF, bare CR and LF endings, range boundaries next to each, no final newline
    ends = ["\r\n", "\r", "\n", "\r", "\r\n"] * 6
    augment.write_bytes("".join(LINE % f"a{i}" + end for i, end in enumerate(ends)).encode() + (LINE % "last").encode())
    spec = spec_for((4, 17, 100), seed=5)
    want = text_mode_outputs(base, augment, spec.sizes, spec.seed)
    assert mixed_bytes(spec, base, augment, tmp_path / "serial") == want
    for parts in range(2, 12):
        with monkeypatch.context() as m:
            in_ranges(m, parts, fork=False)
            assert mixed_bytes(spec, base, augment, tmp_path / f"ranges{parts}") == want


def test_parallel_scan_through_worker_processes(tmp_path, forks):
    base = tmp_path / "base.jsonl"
    augment = tmp_path / "augment.jsonl"
    base.write_bytes(("\n".join(LINE % f"b{i}" for i in range(5)) + "\n").encode())
    augment.write_bytes("".join(LINE % f"a{i}" + ("\r\n", "\r", "\n")[i % 3] for i in range(40)).encode()[:-1])
    assert len(mixer._ranges(augment, 2)) == 2
    spec = spec_for((3, 30, 50), seed=8)
    assert mixed_bytes(spec, base, augment, tmp_path / "out") == text_mode_outputs(
        base, augment, spec.sizes, spec.seed
    )
    # children are forked only on Linux: one per file, for its second range
    assert len(forks) == (2 if sys.platform == "linux" else 0)


def test_mix_files_with_a_second_thread_alive_opens_no_pool(tmp_path, forks):
    base = tmp_path / "base.jsonl"
    augment = tmp_path / "augment.jsonl"
    base.write_bytes(("\n".join(LINE % f"b{i}" for i in range(5)) + "\n").encode())
    augment.write_bytes("".join(LINE % f"a{i}" + "\n" for i in range(40)).encode())
    spec = spec_for((3, 30, 50), seed=8)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        got = mixed_bytes(spec, base, augment, tmp_path / "out")
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert got == text_mode_outputs(base, augment, spec.sizes, spec.seed)
    assert forks == []


def _children_die(m):
    """Every forked scan child kills itself before it sends its result; the children's pids."""
    parent, real = os.getpid(), mixer._scan_range

    def scan_range(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    m.setattr(mixer, "_scan_range", scan_range)
    return record_forks(m)


def _no_fork(m):
    """No child can be forked; no pids."""
    def fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    m.setattr(os, "fork", fork)
    return []


@pytest.mark.parametrize("break_children", [_children_die, _no_fork], ids=["broken", "unstartable"])
def test_parallel_scan_falls_back_to_a_serial_scan(tmp_path, monkeypatch, break_children):
    base = tmp_path / "base.jsonl"
    augment = tmp_path / "augment.jsonl"
    write_dataset(numbered(4, "b"), base)
    augment.write_bytes("".join(LINE % f"a{i}" + ("\r\n", "\n")[i % 2] for i in range(30)).encode())
    spec = spec_for((3, 20, 40), seed=2)
    want = mixed_bytes(spec, base, augment, tmp_path / "serial")
    augment_bytes = augment.read_bytes()
    augment.write_bytes(augment_bytes.replace(b'"a25"', b"25"))
    with pytest.raises(ParseError) as serial:
        mix_files(spec, base, augment, tmp_path / "serial")
    in_ranges(monkeypatch, 2)
    pids = break_children(monkeypatch)
    with pytest.raises(ParseError) as fallback:
        mix_files(spec, base, augment, tmp_path / "fallback")
    assert str(fallback.value) == str(serial.value)
    augment.write_bytes(augment_bytes)
    assert mixed_bytes(spec, base, augment, tmp_path / "fallback") == want
    assert bool(pids) == (break_children is _children_die and sys.platform == "linux")


# Scripts that call mix_files with every input scanned in two ranges; the
# parent prints a line for each child it forks.
_SCRIPT_HEAD = """
import multiprocessing, os, sys
from slotqa import MixSpec, mixer, parallel
mixer._RANGE_MIN_BYTES = 1
parallel.available_cpus = lambda: 2
real_fork = os.fork
def fork():
    pid = real_fork()
    if pid:
        print("forked", flush=True)
    return pid
os.fork = fork
def run(args):
    mixer.mix_files(MixSpec(base="b", augment="a", seed=4, sizes=(5, 50)), *args)
"""
SCRIPTS = {
    # no __main__ guard: the scan runs in forked children, which never
    # re-import this script, so it mixes once and finishes
    "unguarded": _SCRIPT_HEAD + """
run(sys.argv[1:])
with open(sys.argv[3] + ".done", "a") as f:
    f.write("done\\n")
""",
    # a daemonic pool worker forks its scan children itself, not through multiprocessing
    "daemonic": _SCRIPT_HEAD + """
if __name__ == "__main__":
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        pool.map(run, [sys.argv[1:]])
""",
}


@pytest.mark.parametrize("kind", sorted(SCRIPTS))
def test_mix_files_in_a_script_or_a_pool_worker(tmp_path, kind):
    base = tmp_path / "base.jsonl"
    augment = tmp_path / "augment.jsonl"
    base.write_bytes(("\n".join(LINE % f"b{i}" for i in range(3)) + "\n").encode())
    augment.write_bytes("".join(LINE % f"a{i}" + "\n" for i in range(30)).encode())
    script = tmp_path / "script.py"
    script.write_text(SCRIPTS[kind], encoding="utf-8")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(script), str(base), str(augment), str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert [(out / f"b+a@{k}.jsonl").read_bytes() for k in (5, 50)] == text_mode_outputs(
        base, augment, (5, 50), 4
    )
    if kind == "unguarded":
        assert (tmp_path / "out.done").read_text() == "done\n"
    # two ranges of each file: the first scanned here, the second in a child
    assert proc.stdout.split() == ["forked"] * (2 if sys.platform == "linux" else 0)


BAD_LINES = {
    "empty": b"",
    "bad JSON": b'{"id": "x",',
    "missing id": b'{"question": "q"}',
    "non-string id": b'{"id": 7}',
    "non-object": b'["a", "b"]',
    "invalid UTF-8": b'{"id": "caf\xe9"}',
    "UTF-8 cut by the newline": b'{"id": "caf\xc3',
    "trailing data": (LINE % "t").encode() + b" x",
    "leading BOM": b"\xef\xbb\xbf" + (LINE % "t").encode(),
    # the scanner would take both lines as one object; each line alone is invalid
    "object spanning a newline": b'{"id":\n"t"}',
    # accepted: json.loads takes JSON whitespace around the value
    "trailing whitespace": (LINE % "t").encode() + b" \t",
}


def oracle_scan_error(path):
    """The ParseError message of a line-by-line scan of a JSONL file, or None when every line passes."""
    for number, line in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as e:
            return f"{path}: line {number}: invalid UTF-8 at byte {e.start}: {e.reason}"
        try:
            obj = decode_line(text)
        except ParseError as e:
            return f"{path}: line {number}: {e}"
        if not isinstance(obj, dict) or not isinstance(obj.get("id"), str):
            return f"{path}: line {number}: missing string field 'id'"
    return None


def scan_error(spec, base, augment, out_dir):
    """The ParseError message of mix_files, or None when it succeeds."""
    try:
        mix_files(spec, base, augment, out_dir)
    except ParseError as e:
        return str(e)
    return None


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
@pytest.mark.parametrize("kind", sorted(BAD_LINES))
def test_parallel_scan_reports_the_same_error(tmp_path, monkeypatch, kind, newline):
    base = tmp_path / "base.jsonl"
    augment = tmp_path / "augment.jsonl"
    write_dataset(numbered(2, "b"), base)
    lines = [(LINE % f"a{i:02d}").encode() for i in range(30)]
    lines[21] = BAD_LINES[kind]
    lines[27] = BAD_LINES[kind]
    end = newline.encode()
    augment.write_bytes(end.join(lines) + end)
    _, (second, stop) = mixer._ranges(augment, 2)
    line_22 = sum(len(line) + len(end) for line in lines[:21])
    assert second <= line_22 < stop
    want = oracle_scan_error(augment)
    assert (want is None) == (kind == "trailing whitespace")
    if want is not None:
        assert want.startswith(f"{augment}: line 22: ")
    spec = spec_for((5,), seed=1)
    assert scan_error(spec, base, augment, tmp_path / "serial") == want
    # line 22 first in a block, last in a block, and blocks shorter than a line
    line_23 = line_22 + len(lines[21]) + len(end)
    for block in (line_22, line_23, 1, 50, 200):
        for parts in (1, 2, 3):
            with monkeypatch.context() as m:
                m.setattr(mixer, "_BLOCK_BYTES", block)
                in_ranges(m, parts, fork=False)
                assert scan_error(spec, base, augment, tmp_path / f"b{block}p{parts}") == want
    in_ranges(monkeypatch, 2)
    assert scan_error(spec, base, augment, tmp_path / "parallel") == want


def test_parallel_scan_finds_collisions_in_every_range(tmp_path, forks):
    base = tmp_path / "base.jsonl"
    augment = tmp_path / "augment.jsonl"
    base.write_text("".join(LINE % i + "\n" for i in ("a27", "zz", "a03", "a27")), encoding="utf-8")
    ids = [f"a{i:02d}" for i in range(30)] + ["a03"]
    augment.write_text("".join(LINE % i + "\n" for i in ids), encoding="utf-8")
    (_, middle), _ = mixer._ranges(augment, 2)
    assert len(LINE % "a03") * 4 < middle < len(LINE % "a03") * 27
    with pytest.raises(DataError) as exc:
        mix_files(spec_for((5,), seed=1), base, augment, tmp_path / "out")
    assert str(exc.value) == "2 instance ids occur in both base and augment: ['a03', 'a27']"


@settings(max_examples=60, deadline=None)
@given(
    base_size=st.integers(0, 6),
    population=st.integers(0, 40),
    seed=st.integers(0, 2**32),
    sizes=st.sets(st.integers(1, 60), min_size=1, max_size=5),
    parts=st.integers(1, 6),
)
def test_mix_files_equals_the_oracle_for_any_range_count(base_size, population, seed, sizes, parts):
    base, augment = numbered(base_size, "b"), numbered(population, "a")
    spec = spec_for(sorted(sizes), seed)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as m:
        in_ranges(m, parts, fork=False)
        write_dataset(base, Path(tmp) / "base.jsonl")
        write_dataset(augment, Path(tmp) / "augment.jsonl")
        written = mix_files(spec, Path(tmp) / "base.jsonl", Path(tmp) / "augment.jsonl", Path(tmp) / "out")
        got = [path.read_text(encoding="utf-8") for _, path, _ in written]
    want = [
        "".join(
            dumps_instance(i) + "\n"
            for i in base.instances + tuple(augment.instances[j] for j in oracle_sample(population, k, seed))
        )
        for k in spec.sizes
    ]
    assert got == want


@settings(max_examples=200, deadline=None)
@given(
    pieces=st.lists(st.sampled_from(["a", "\u00e9", "{}", "\n", "\r", "\r\n"]), max_size=40),
    block=st.integers(1, 8),
    parts=st.integers(1, 6),
)
def test_line_blocks_split_like_text_mode(pieces, block, parts):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as m:
        m.setattr(mixer, "_BLOCK_BYTES", block)
        path = Path(tmp) / "f.txt"
        path.write_bytes("".join(pieces).encode("utf-8"))
        with open(path, "r", encoding="utf-8") as f:
            want = [line[:-1] if line.endswith("\n") else line for line in f]
        blocks = [
            block
            for start, stop in mixer._ranges(path, parts)
            for block in mixer._line_blocks(path, start, stop)
        ]
        data = path.read_bytes()
    assert all(blocks)
    assert b"".join(blocks) == data
    # a cut inside a line or a \r\n pair would split one line in two
    assert [line.decode("utf-8") for block in blocks for line in block.splitlines()] == want


@pytest.mark.parametrize("aliased", ["base", "augment"])
def test_mix_files_refuses_to_overwrite_an_input(tmp_path, aliased):
    inputs = {"base": tmp_path / "base.jsonl", "augment": tmp_path / "augment.jsonl"}
    write_dataset(numbered(3, "b"), inputs["base"])
    write_dataset(numbered(9, "a"), inputs["augment"])
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "b+a@4.jsonl").symlink_to(inputs[aliased])
    before = {name: path.read_bytes() for name, path in inputs.items()}
    with pytest.raises(ParseError, match="would overwrite input"):
        mix_files(spec_for((4,), seed=0), inputs["base"], inputs["augment"], out_dir)
    assert {name: path.read_bytes() for name, path in inputs.items()} == before


def test_mix_files_names_a_corrupt_sidecar(tmp_path):
    base, augment = tmp_path / "base.jsonl", tmp_path / "augment.jsonl"
    write_dataset(numbered(3, "b"), base)
    write_dataset(numbered(9, "a"), augment)
    sidecar_path(augment).write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError, match="augment.jsonl.prov.json: invalid JSON"):
        mix_files(spec_for((4,), seed=0), base, augment, tmp_path / "out")
    sidecar_path(augment).write_text('["not", "an", "object"]', encoding="utf-8")
    with pytest.raises(ParseError, match="augment.jsonl.prov.json"):
        mix_files(spec_for((4,), seed=0), base, augment, tmp_path / "out")


def _change_after_scan(m, victim, change):
    """Apply ``change`` to the file at ``victim`` right after mix_files has scanned it."""
    real_scan = mixer._scan

    def scan_then_change(path, base_ids):
        result = real_scan(path, base_ids)
        if path == victim:
            change(path)
        return result

    m.setattr(mixer, "_scan", scan_then_change)


def _append_a_line(path):
    with open(path, "a", encoding="utf-8") as f:
        f.write(LINE % "late" + "\n")


def _drop_the_last_line(path):
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]))


# size 4 samples the 9-line augment and goes through the copy loop; 9 and 20
# take every line and are copied in the kernel
@pytest.mark.parametrize("sizes", [(4,), (9,), (4, 20)], ids=["loop", "kernel", "both"])
@pytest.mark.parametrize("change", [_append_a_line, _drop_the_last_line], ids=["grows", "shrinks"])
@pytest.mark.parametrize("victim", ["base", "augment"])
def test_mix_files_notices_an_augment_that_changes_after_the_scan(tmp_path, monkeypatch, sizes, change, victim):
    inputs = {"base": tmp_path / "base.jsonl", "augment": tmp_path / "augment.jsonl"}
    write_dataset(numbered(3, "b"), inputs["base"])
    write_dataset(numbered(9, "a"), inputs["augment"])
    out = tmp_path / "out"
    mix_files(spec_for(sizes, seed=0), inputs["base"], inputs["augment"], out)
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    _change_after_scan(monkeypatch, inputs[victim], change)
    with pytest.raises(DataError, match=f"{victim}.jsonl: changed while being mixed"):
        mix_files(spec_for(sizes, seed=1), inputs["base"], inputs["augment"], out)
    # a failed mix replaces no output and leaves no temporary file
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.parametrize("base_lines", [0, 3])
@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "no kernel"])
def test_a_base_that_grows_after_the_scan_is_noticed(tmp_path, monkeypatch, base_lines, kernel):
    # without a kernel copy, every output goes through the loop, which counts the base's lines
    base, augment = tmp_path / "base.jsonl", tmp_path / "augment.jsonl"
    write_dataset(numbered(base_lines, "b"), base)
    write_dataset(numbered(9, "a"), augment)
    if not kernel:
        monkeypatch.delattr(os, "copy_file_range", raising=False)
    _change_after_scan(monkeypatch, base, _append_a_line)
    with pytest.raises(DataError, match="base.jsonl: changed while being mixed"):
        mix_files(spec_for((9,), seed=1), base, augment, tmp_path / "out")
    assert list((tmp_path / "out").iterdir()) == []


# --- an output that takes every augment line is copied in the kernel ---


def _copy_counter(m):
    """Count the calls to ``os.copy_file_range``; the list of their byte counts."""
    calls, real = [], os.copy_file_range

    def copy(src, dst, count, offset_src=None, offset_dst=None):
        calls.append(count)
        return real(src, dst, count, offset_src, offset_dst)

    m.setattr(os, "copy_file_range", copy)
    return calls


ENDINGS = ["\n", "\r\n", "\r"]


@st.composite
def jsonl_files(draw, prefix):
    """JSONL bytes of mix lines: any line endings, a final newline or not, possibly empty."""
    ends = draw(st.lists(st.sampled_from(ENDINGS), max_size=12))
    last = draw(st.sampled_from(ENDINGS + [""])) if ends else ""
    ends = ends[:-1] + [last] if ends else []
    return "".join(LINE % f"{prefix}{i}" + end for i, end in enumerate(ends)).encode()


@pytest.mark.skipif(not hasattr(os, "copy_file_range"), reason="no kernel copy on this platform")
@settings(max_examples=80, deadline=None)
@given(
    base_bytes=jsonl_files("b"),
    augment_bytes=jsonl_files("a"),
    block=st.integers(1, 400),
    parts=st.integers(1, 4),
    seed=st.integers(0, 2**32),
    sizes=st.sets(st.integers(1, 16), min_size=1, max_size=4),
)
def test_kernel_copy_writes_the_bytes_of_the_copy_loop(base_bytes, augment_bytes, block, parts, seed, sizes):
    spec = spec_for(sorted(sizes), seed)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as m:
        tmp = Path(tmp)
        base, augment = tmp / "base.jsonl", tmp / "augment.jsonl"
        base.write_bytes(base_bytes)
        augment.write_bytes(augment_bytes)
        want = text_mode_outputs(base, augment, spec.sizes, spec.seed)
        m.setattr(mixer, "_BLOCK_BYTES", block)
        in_ranges(m, parts, fork=False)
        calls = _copy_counter(m)
        got = mixed_bytes(spec, base, augment, tmp / "kernel")
        m.delattr(os, "copy_file_range")
        looped = mixed_bytes(spec, base, augment, tmp / "loop")
        left = [path.name for path in tmp.rglob("*.tmp")]
    assert got == looped == want
    assert left == []
    population = len(augment_bytes.splitlines())
    plain = all(b"\r" not in data and data[-1:] in (b"", b"\n") for data in (base_bytes, augment_bytes))
    # at most one copy of each non-empty input per output that takes every augment line
    kernel_outputs = sum(k >= population for k in spec.sizes) if plain else 0
    assert len(calls) <= kernel_outputs * (bool(base_bytes) + bool(augment_bytes))
    assert bool(calls) == bool(kernel_outputs and base_bytes + augment_bytes)


def _kernel_cannot_copy(m, failing_call):
    """``os.copy_file_range`` raises EXDEV from call ``failing_call`` on (1-based), or is missing if 0."""
    if not failing_call:
        m.delattr(os, "copy_file_range")
        return
    calls, real = [], os.copy_file_range

    def copy(*args):
        calls.append(args)
        if len(calls) >= failing_call:
            raise OSError(errno.EXDEV, "Invalid cross-device link")
        return real(*args)

    m.setattr(os, "copy_file_range", copy)


@pytest.mark.skipif(not hasattr(os, "copy_file_range"), reason="no kernel copy on this platform")
@pytest.mark.parametrize("failing_call", [0, 1, 2, 3], ids=["missing", "first call", "second call", "third call"])
def test_mix_files_falls_back_to_the_copy_loop(tmp_path, monkeypatch, failing_call):
    base, augment = tmp_path / "base.jsonl", tmp_path / "augment.jsonl"
    write_dataset(numbered(4, "b"), base)
    write_dataset(numbered(30, "a"), augment)
    # 3 samples; 30 and 50 take every line, so call 2 fails inside the first
    # kernel-copied output and call 3 at the start of the second
    spec = spec_for((3, 30, 50), seed=2)
    want = text_mode_outputs(base, augment, spec.sizes, spec.seed)
    assert mixed_bytes(spec, base, augment, tmp_path / "kernel") == want
    _kernel_cannot_copy(monkeypatch, failing_call)
    assert mixed_bytes(spec, base, augment, tmp_path / "fallback") == want
    assert list(tmp_path.rglob("*.tmp")) == []


@pytest.mark.skipif(not hasattr(os, "copy_file_range"), reason="no kernel copy on this platform")
def test_a_short_kernel_copy_replaces_no_output(tmp_path, monkeypatch):
    base, augment = tmp_path / "base.jsonl", tmp_path / "augment.jsonl"
    write_dataset(numbered(4, "b"), base)
    write_dataset(numbered(30, "a"), augment)
    out = tmp_path / "out"
    spec = spec_for((3, 30), seed=2)
    mix_files(spec, base, augment, out)
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    real = os.copy_file_range
    # the source ends early: the augment's copy finds no more bytes
    monkeypatch.setattr(os, "copy_file_range", lambda src, dst, count, *offsets: 0 if offsets[1] else real(src, dst, count, *offsets))
    with pytest.raises(DataError, match="augment.jsonl: changed while being mixed"):
        mix_files(spec_for((3, 30), seed=5), base, augment, out)
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before

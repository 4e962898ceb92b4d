#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the slotqa CLI (stdlib only).

Run from the repository root::

    python3 perfbench/run.py --workload squad_pipeline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload is a README pipeline run as ``python -m slotqa`` subprocesses
on a seeded synthetic corpus (see corpus.py), one step at a time: a closed
loop with one client, because the toolkit is a batch program. The corpus
is generated before timing starts. ``--trace 0`` repeats the chain for
``--seconds`` and reports the end-to-end metrics. ``--trace 1`` repeats
rounds of three passes for ``--seconds`` (the chain as subprocesses,
in-process untraced, in-process traced; see inproc.py) and reports the
per-layer metrics as medians over the rounds. Every file a step
writes, and the stdout of the scoring steps, is digested and compared with
the committed reference digests, with the other iterations and passes, and
with cheap independent checks; any disagreement counts the step as failed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 1 when a check
failed and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import corpus
from inproc import AGGREGATED, LAYERS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work"
REFERENCE_FILE = BENCH / "reference_digests.json"

MIX_SIZES = (10**3, 10**4, 10**5, 10**6)
# CLI start-ups timed before each chain iteration, so setup_s samples the
# whole run rather than one moment of a shared machine.
SETUP_LAUNCHES = 5

SCALES = {
    "full": {
        "squad_paragraphs": 2000,
        "uwre_records": 6000,
        "mix_base_lines": 1000,
        "mix_augment_lines": 300_000,
    },
    "tiny": {
        "squad_paragraphs": 40,
        "uwre_records": 300,
        "mix_base_lines": 50,
        "mix_augment_lines": 3000,
    },
}

# Every command a workload runs; each gets cli.<command>.* metrics.
COMMANDS = (
    "ingest-squad", "negativize", "adapt-noanswer", "predict-baseline", "score",
    "validate", "replay", "ingest-uwre", "build-challenge", "build-uwre-plus",
    "score-challenge", "mix",
)


class BenchError(Exception):
    """The benchmark cannot run: no result is printed."""


@dataclass
class Step:
    argv: list[str]
    outputs: list[str] = field(default_factory=list)
    digest_stdout: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]


def _dataset(path: str) -> list[str]:
    return [path, path + ".prov.json"]


def _mix_outputs(sizes) -> list[str]:
    return [p for k in sizes for p in _dataset(f"mixed/dev+train@{k}.jsonl")]


def _mix_config(path: Path, sizes) -> None:
    path.write_text(
        json.dumps({"base": "dev", "augment": "train", "seed": 13, "sizes": list(sizes)}) + "\n",
        encoding="utf-8",
    )


# --- workloads: prepare (untimed), steps, independent checks ---


def prepare_squad(workdir: Path, seed: int, scale: dict) -> dict:
    document = corpus.squad_document(seed, scale["squad_paragraphs"])
    (workdir / "squad.json").write_text(json.dumps(document, ensure_ascii=False), encoding="utf-8")
    return {"questions": scale["squad_paragraphs"]}


def prepare_uwre(workdir: Path, seed: int, scale: dict) -> dict:
    text = corpus.uwre_records(seed, scale["uwre_records"])
    (workdir / "records.tsv").write_text(text, encoding="utf-8")
    lines = text.splitlines()
    negatives = sum(1 for line in lines if line.endswith("\t"))
    return {"records": len(lines), "positives": len(lines) - negatives, "negatives": negatives}


def prepare_mix(workdir: Path, seed: int, scale: dict) -> dict:
    corpus.write_mix_inputs(seed, workdir, scale["mix_base_lines"], scale["mix_augment_lines"])
    _mix_config(workdir / "mix.json", MIX_SIZES)
    return {"base": scale["mix_base_lines"], "augment": scale["mix_augment_lines"]}


def prepare_mix_replay(workdir: Path, seed: int, scale: dict) -> dict:
    facts = prepare_mix(workdir, seed, scale)
    _mix_config(workdir / "mix1.json", MIX_SIZES[-1:])
    argv = ["mix", "--config", "mix1.json", "--base", "base.jsonl", "--augment", "augment.jsonl", "--out-dir", "mixed"]
    result = launch(argv, workdir, workdir / "_io" / "setup.out", workdir / "_io" / "setup.err")
    if result["returncode"] != 0:
        raise BenchError(f"set-up mix failed with exit code {result['returncode']}")
    return facts


SQUAD_STEPS = [
    Step(["ingest-squad", "--in", "squad.json", "--split", "train", "--out", "pos.jsonl"], _dataset("pos.jsonl")),
    Step(["negativize", "--in", "pos.jsonl", "--keep-positives", "--out", "both.jsonl"], _dataset("both.jsonl")),
    Step(["adapt-noanswer", "--in", "both.jsonl", "--out", "adapted.jsonl"], _dataset("adapted.jsonl")),
    Step(["predict-baseline", "--in", "adapted.jsonl", "--threshold", "6.0", "--out", "preds.jsonl"], _dataset("preds.jsonl")),
    Step(["score", "--dataset", "adapted.jsonl", "--preds", "preds.jsonl", "--tsv"], digest_stdout=True),
    Step(["validate", "--in", "adapted.jsonl"]),
    Step(["replay", "--log", "adapted.jsonl.prov.json"], digest_stdout=True),
]

UWRE_STEPS = [
    Step(
        ["ingest-uwre", "--in", "records.tsv", "--split", "test", "--out", "uwre.jsonl", "--templates-out", "templates.tsv"],
        _dataset("uwre.jsonl") + ["templates.tsv"],
    ),
    Step(
        ["build-challenge", "--in", "uwre.jsonl", "--templates", "templates.tsv", "--seed", "7", "--out", "challenge.jsonl"],
        _dataset("challenge.jsonl"),
    ),
    Step(
        ["build-uwre-plus", "--in", "uwre.jsonl", "--pool", "challenge.jsonl", "--seed", "7", "--out", "plus.jsonl"],
        _dataset("plus.jsonl"),
    ),
    Step(["predict-baseline", "--in", "plus.jsonl", "--threshold", "6.0", "--out", "plus.preds.jsonl"], _dataset("plus.preds.jsonl")),
    Step(["score", "--dataset", "plus.jsonl", "--preds", "plus.preds.jsonl", "--tsv"], digest_stdout=True),
    Step(
        ["predict-baseline", "--in", "challenge.jsonl", "--threshold", "6.0", "--out", "challenge.preds.jsonl"],
        _dataset("challenge.preds.jsonl"),
    ),
    Step(["score-challenge", "--dataset", "challenge.jsonl", "--preds", "challenge.preds.jsonl", "--tsv"], digest_stdout=True),
]

MIX_SWEEP_STEPS = [
    Step(
        ["mix", "--config", "mix.json", "--base", "base.jsonl", "--augment", "augment.jsonl", "--out-dir", "mixed"],
        _mix_outputs(MIX_SIZES),
    ),
]

MIX_REPLAY_STEPS = [
    Step(["replay", "--log", f"mixed/dev+train@{MIX_SIZES[-1]}.jsonl.prov.json"], digest_stdout=True),
]


def _line_count(path: Path) -> int:
    """Lines in ``path``; -1 when a failed step left no file."""
    try:
        with open(path, "rb") as f:
            return sum(1 for _ in f)
    except FileNotFoundError:
        return -1


def _counts(stdout: str) -> list[str]:
    # to_tsv: precision, recall, f1, accuracy, positives, negatives, answered,
    # correct, no_answer_predictions, missing
    return stdout.rstrip("\n").split("\t")


def _only_ok_lines(stdout: str, expected: int) -> bool:
    lines = stdout.splitlines()
    return len(lines) == expected and all(line.startswith("ok: ") for line in lines)


def check_squad(workdir: Path, facts: dict, stdouts: list[str]) -> dict[int, str]:
    n = facts["questions"]
    problems = {}
    if _line_count(workdir / "pos.jsonl") != n:
        problems[0] = f"ingest kept {_line_count(workdir / 'pos.jsonl')} of {n} questions"
    if _line_count(workdir / "preds.jsonl") != 2 * n:
        problems[3] = "prediction count differs from instance count"
    fields = _counts(stdouts[4])
    if len(fields) != 10 or not (fields[4] == fields[5] == str(n)):
        problems[4] = f"score counts {fields[4:6]} differ from {n} kept questions"
    if not stdouts[5].startswith("OK: "):
        problems[5] = "validate reported violations"
    if not _only_ok_lines(stdouts[6], 3):
        problems[6] = "replay printed lines other than three ok: lines"
    return problems


def check_uwre(workdir: Path, facts: dict, stdouts: list[str]) -> dict[int, str]:
    problems = {}
    if _line_count(workdir / "uwre.jsonl") != facts["records"]:
        problems[0] = "ingest dropped records"
    challenge = _line_count(workdir / "challenge.jsonl")
    removed = facts["negatives"] // 2
    expected_negatives = facts["negatives"] - removed + min(removed, challenge)
    if _line_count(workdir / "plus.preds.jsonl") != _line_count(workdir / "plus.jsonl"):
        problems[3] = "prediction count differs from instance count"
    fields = _counts(stdouts[4])
    if len(fields) != 10 or fields[4:6] != [str(facts["positives"]), str(expected_negatives)]:
        problems[4] = f"score counts {fields[4:6]} differ from {facts['positives']}, {expected_negatives}"
    if _line_count(workdir / "challenge.preds.jsonl") != challenge:
        problems[5] = "prediction count differs from instance count"
    fields = _counts(stdouts[6])
    if (
        len(fields) != 10
        or fields[5] != str(challenge)
        or fields[9] != "0"
        or not (fields[6].isdigit() and fields[8].isdigit())
        or int(fields[6]) + int(fields[8]) != challenge
    ):
        problems[6] = f"challenge counts {fields[4:]} do not cover {challenge} instances"
    return problems


def _nested(small: Path, large: Path) -> bool:
    """Every line of ``small`` occurs in ``large``, in the same order."""
    with open(small, "rb") as s, open(large, "rb") as g:
        for line in s:
            for other in g:
                if other == line:
                    break
            else:
                return False
    return True


def check_mix_sweep(workdir: Path, facts: dict, stdouts: list[str]) -> dict[int, str]:
    paths = [workdir / f"mixed/dev+train@{k}.jsonl" for k in MIX_SIZES]
    for k, path in zip(MIX_SIZES, paths):
        expected = facts["base"] + min(k, facts["augment"])
        if _line_count(path) != expected:
            return {0: f"{path.name} has {_line_count(path)} lines, expected {expected}"}
    if not _nested(workdir / "base.jsonl", paths[0]):
        return {0: "base lines are missing from the smallest output"}
    for small, large in zip(paths, paths[1:]):
        if not _nested(small, large):
            return {0: f"{small.name} does not nest inside {large.name}"}
    return {}


def check_mix_replay(workdir: Path, facts: dict, stdouts: list[str]) -> dict[int, str]:
    return {} if _only_ok_lines(stdouts[0], 1) else {0: "replay printed lines other than one ok: line"}


@dataclass
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    name: str
    prepare: Callable[[Path, int, dict], dict]
    steps: list[Step]
    check: Callable[[Path, dict, list[str]], dict[int, str]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("squad_pipeline", prepare_squad, SQUAD_STEPS, check_squad),
        Workload("uwre_challenge", prepare_uwre, UWRE_STEPS, check_uwre),
        Workload("mix_sweep", prepare_mix, MIX_SWEEP_STEPS, check_mix_sweep),
        Workload("mix_replay", prepare_mix_replay, MIX_REPLAY_STEPS, check_mix_replay),
    )
}


# --- running steps ---


def _env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["SLOTQA_WORKDIR"] = str(workdir / "_tmp")
    env["TMPDIR"] = str(workdir / "_tmp")
    return env


def launch(argv: list[str], workdir: Path, stdout: Path, stderr: Path) -> dict:
    """Run ``python -m slotqa ARGV`` in ``workdir``; wall time and the child's own rusage."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, "-m", "slotqa", *argv], cwd=workdir, env=_env(workdir), stdout=out, stderr=err
        )
        _, status, usage = os.wait4(process.pid, 0)
        end = time.perf_counter()
    process.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return {
        "returncode": process.returncode,
        "start": start,
        "end": end,
        "wall_s": end - start,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def _io_paths(workdir: Path, index: int) -> tuple[Path, Path]:
    return workdir / "_io" / f"{index}.out", workdir / "_io" / f"{index}.err"


def _clean_outputs(workdir: Path, steps: list[Step]) -> None:
    for step in steps:
        for output in step.outputs:
            (workdir / output).unlink(missing_ok=True)


def run_subprocess_pass(workdir: Path, steps: list[Step]) -> list[dict]:
    _clean_outputs(workdir, steps)
    results = []
    for i, step in enumerate(steps):
        results.append(launch(step.argv, workdir, *_io_paths(workdir, i)))
    return results


def run_inprocess_pass(workdir: Path, steps: list[Step], trace: bool) -> dict:
    _clean_outputs(workdir, steps)
    spec = [
        {"argv": step.argv, "stdout": str(out), "stderr": str(err)}
        for i, step in enumerate(steps)
        for out, err in [_io_paths(workdir, i)]
    ]
    steps_file = workdir / "_io" / "steps.json"
    result_file = workdir / "_io" / "inproc.json"
    steps_file.write_text(json.dumps(spec), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, str(BENCH / "inproc.py"), str(steps_file), str(result_file), "--trace", str(int(trace))],
        cwd=workdir,
        env=_env(workdir),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        check=False,
    )
    if result.returncode != 0:
        raise BenchError(f"in-process runner failed: {result.stderr.decode(errors='replace')[-2000:]}")
    return json.loads(result_file.read_text(encoding="utf-8"))


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def collect(workdir: Path, steps: list[Step], returncodes: list[int]) -> tuple[dict, list[str], dict[int, str]]:
    """Digests of every output, stdout texts, and steps failed by exit code or traceback."""
    digests: dict[str, str] = {}
    stdouts: list[str] = []
    problems: dict[int, str] = {}
    for i, step in enumerate(steps):
        out, err = _io_paths(workdir, i)
        stdouts.append(out.read_text(encoding="utf-8", errors="replace"))
        if returncodes[i] != 0:
            problems[i] = f"exit code {returncodes[i]}"
        elif "Traceback" in err.read_text(encoding="utf-8", errors="replace"):
            problems[i] = "traceback on stderr"
        for output in step.outputs:
            path = workdir / output
            if path.exists():
                digests[output] = _sha256(path)
            else:
                problems.setdefault(i, f"missing output {output}")
        if step.digest_stdout:
            digests[f"stdout:{i}:{step.command}"] = _sha256(out)
    return digests, stdouts, problems


def compare(steps: list[Step], digests: dict, expected: dict | None, label: str) -> dict[int, str]:
    problems = {}
    if not expected:
        return problems
    for i, step in enumerate(steps):
        keys = list(step.outputs) + ([f"stdout:{i}:{step.command}"] if step.digest_stdout else [])
        for key in keys:
            if key in expected and digests.get(key) != expected[key]:
                problems.setdefault(i, f"{key} differs from the {label} digest")
    return problems


class Tally:
    """Steps attempted and failed over every pass of one workload run."""

    def __init__(self, workload: Workload, workdir: Path, facts: dict, reference: dict | None):
        self.workload = workload
        self.workdir = workdir
        self.facts = facts
        self.reference = reference
        self.first: dict | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def account(self, returncodes: list[int], label: str) -> None:
        steps = self.workload.steps
        digests, stdouts, problems = collect(self.workdir, steps, returncodes)
        if self.first is None:
            for i, message in self.workload.check(self.workdir, self.facts, stdouts).items():
                problems.setdefault(i, message)
            self.first = digests
        else:
            for i, message in compare(steps, digests, self.first, "first pass").items():
                problems.setdefault(i, message)
        for i, message in compare(steps, digests, self.reference, "reference").items():
            problems.setdefault(i, message)
        self.attempted += len(steps)
        self.failures.extend(f"{label} step {i} ({steps[i].command}): {m}" for i, m in sorted(problems.items()))


# --- metrics ---


def measure_setup(workdir: Path) -> list[float]:
    samples = []
    for i in range(SETUP_LAUNCHES):
        result = launch(["--help"], workdir, workdir / "_io" / "help.out", workdir / "_io" / "help.err")
        if result["returncode"] != 0:
            raise BenchError("python -m slotqa --help failed")
        samples.append(result["wall_s"])
    return samples


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_timed(workload: Workload, run: Tally, seconds: float) -> tuple[dict, dict]:
    setup, walls, peaks = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        setup.extend(measure_setup(run.workdir))
        results = run_subprocess_pass(run.workdir, workload.steps)
        walls.append(results[-1]["end"] - results[0]["start"])
        peaks.append(max(r["peak_rss_mb"] for r in results))
        run.account([r["returncode"] for r in results], f"iteration {len(walls)}")
        if time.perf_counter() >= deadline:
            break
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(peaks), "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    samples = {"wall_s": walls, "peak_rss_mb": peaks, "setup_s": setup}
    return metrics, samples


# Functions traced as spans report busy seconds; per-instance functions
# report calls and time per call (predict: self time per call).
SPANNED = [f"{layer}.{f}" for layer, functions in LAYERS.items() for f in functions if f"{layer}.{f}" not in AGGREGATED]
PER_CALL = sorted(AGGREGATED - {"baseline.predict"})
COUNTERS = {
    "model.bytes_read": "bytes",
    "model.bytes_written": "bytes",
    "transforms.negativize_squad.skipped": "count",
    "challenge.skipped_no_donor": "count",
    "mixer.lines_in": "count",
    "mixer.lines_out": "count",
    "mixer.bytes_out": "bytes",
    "mixer.bytes_read": "bytes",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for command in COMMANDS:
        units[f"cli.{command}.wall_s"] = "s"
        units[f"cli.{command}.peak_rss_mb"] = "MB"
    units["cli.child_cpu_s"] = "s"
    units["cli.startup.s_per_step"] = "s"
    for name in SPANNED:
        units[f"{name}.s"] = "s"
    for name in PER_CALL:
        units[f"{name}.calls"] = "count"
        units[f"{name}.us_per_call"] = "us"
    units["baseline.predict.calls"] = "count"
    units["baseline.predict.self_us_per_call"] = "us"
    units.update(COUNTERS)
    units["ingest.kept_ratio"] = "ratio"
    units["baseline.answered_ratio"] = "ratio"
    units["metrics.f1"] = "ratio"
    units["metrics.challenge_accuracy"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(sub: list[dict], plain: dict, traced: dict, steps: list[Step]) -> dict[str, float]:
    """Per-layer values; a layer the workload never calls reads 0."""
    values = {name: 0.0 for name in per_layer_units()}
    for step, result in zip(steps, sub):
        values[f"cli.{step.command}.wall_s"] += result["wall_s"]
        key = f"cli.{step.command}.peak_rss_mb"
        values[key] = max(values[key], result["peak_rss_mb"])
    values["cli.child_cpu_s"] = sum(r["cpu_s"] for r in sub)
    startup = [s["wall_s"] - p["wall_s"] for s, p in zip(sub, plain["steps"])]
    values["cli.startup.s_per_step"] = statistics.mean(startup)
    for span in traced["spans"]:
        key = f"{span['name']}.s"
        if key in values:
            values[key] += span["end"] - span["start"]
    aggregates = traced["aggregates"]
    for name in PER_CALL:
        entry = aggregates.get(name, {"calls": 0, "total_s": 0.0})
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.us_per_call"] = _ratio(entry["total_s"], entry["calls"]) * 1e6
    predict = aggregates.get("baseline.predict", {"calls": 0, "self_s": 0.0})
    values["baseline.predict.calls"] = predict["calls"]
    values["baseline.predict.self_us_per_call"] = _ratio(predict["self_s"], predict["calls"]) * 1e6
    counters = traced["counters"]
    for name in COUNTERS:
        values[name] = counters.get(name, 0)
    values["ingest.kept_ratio"] = _ratio(counters.get("ingest.records_kept", 0), counters.get("ingest.records_in", 0))
    values["baseline.answered_ratio"] = _ratio(counters.get("baseline.answered", 0), counters.get("baseline.predictions", 0))
    for name in ("metrics.f1", "metrics.challenge_accuracy"):
        noted = traced["values"].get(name)
        values[name] = statistics.mean(noted) if noted else 0.0
    values["trace.overhead_s"] = sum(s["wall_s"] for s in traced["steps"]) - sum(s["wall_s"] for s in plain["steps"])
    return values


def run_traced(workload: Workload, run: Tally, seconds: float) -> tuple[dict, dict]:
    """Rounds of subprocess, in-process and traced passes; medians over rounds."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        sub = run_subprocess_pass(run.workdir, workload.steps)
        run.account([r["returncode"] for r in sub], f"round {len(rounds) + 1} subprocess pass")
        plain = run_inprocess_pass(run.workdir, workload.steps, trace=False)
        run.account([s["returncode"] for s in plain["steps"]], f"round {len(rounds) + 1} in-process pass")
        traced = run_inprocess_pass(run.workdir, workload.steps, trace=True)
        run.account([s["returncode"] for s in traced["steps"]], f"round {len(rounds) + 1} traced pass")
        rounds.append(layer_metrics(sub, plain, traced, workload.steps))
        if time.perf_counter() >= deadline:
            break
    with open(run.workdir.parent / f"{workload.name}.spans.json", "w", encoding="utf-8") as f:
        json.dump({"spans": traced["spans"], "aggregates": traced["aggregates"]}, f)
    units = per_layer_units()
    metrics = {
        name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
        for name, unit in units.items()
    }
    return metrics, {"rounds": len(rounds)}


# --- run record ---


def _commit() -> str:
    git = shutil.which("git")
    if git is None:
        return "unknown"
    result = subprocess.run(
        [git, "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    lines = result.stdout.split()
    if result.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _load_reference(workload: str, seed: int, scale: str) -> dict | None:
    if scale != "full" or not REFERENCE_FILE.exists():
        return None
    table = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "python": platform.python_version(),
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }
    workdir = WORK / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "_io").mkdir(parents=True)
    (workdir / "_tmp").mkdir()
    try:
        sizes = SCALES[scale]
        facts = workload.prepare(workdir, seed, sizes)
        record["corpus"] = {"sizes": sizes, "facts": facts}
        reference = _load_reference(workload.name, seed, scale)
        record["reference_digests"] = reference is not None
        run = Tally(workload, workdir, facts, reference)
        if trace:
            metrics, samples = run_traced(workload, run, seconds)
        else:
            metrics, samples = run_timed(workload, run, seconds)
        record.update(samples=samples, digests=run.first, failures=run.failures)
        record["loadavg_end"] = list(os.getloadavg())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "record": record,
        "result": {
            "correct": not run.failures,
            "attempted": run.attempted,
            "failed": len(run.failures),
            "metrics": metrics,
        },
    }


def print_summary(outcome: dict) -> None:
    record, result = outcome["record"], outcome["result"]
    rounds = f", {record['samples']['rounds']} rounds (medians)" if record["trace"] else ""
    print(
        f"{record['workload']}: seed {record['seed']}, scale {record['scale']}, trace {record['trace']}{rounds};"
        " closed loop, one client, one CLI step at a time"
    )
    for name, metric in result["metrics"].items():
        samples = record["samples"].get(name)
        detail = ""
        if samples:
            q1, q3 = _quartiles(samples)
            detail = f"  median of {len(samples)} (q1 {q1:.4f}, q3 {q3:.4f})"
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}{detail}")
    print(f"  {'ops_total':40s} {result['attempted']:>14d} count")
    print(f"  {'ops_failed':40s} {result['failed']:>14d} count")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print("run record: " + json.dumps(record, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=list(SCALES), default="full", help="corpus size; tiny is for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "slotqa" / "__init__.py").is_file():
        print(f"error: slotqa sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    try:
        for name in names:
            outcomes[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.scale)
            print_summary(outcomes[name])
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if len(names) == 1:
        result = outcomes[names[0]]["result"]
    else:
        results = [o["result"] for o in outcomes.values()]
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, o in outcomes.items() for k, v in o["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

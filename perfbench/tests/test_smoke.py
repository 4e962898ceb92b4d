"""Smoke test of the benchmark on a tiny corpus; no timing gates.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(trace: int, seed: int = 3) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    records = {}
    for line in lines:
        if line.startswith("run record: "):
            record = json.loads(line[len("run record: "):])
            records[record["workload"]] = record
    return result, records


def _check_metrics(result: dict, specs: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in specs}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_untraced_runs_emit_end_to_end_metrics_and_repeat_digests():
    first, first_records = _run(trace=0)
    second, second_records = _run(trace=0)
    for result in (first, second):
        _check_metrics(result, SPEC["end_to_end"])
    for workload in WORKLOADS:
        for name in ("wall_s", "peak_rss_mb", "setup_s"):
            assert first["metrics"][f"{workload}.{name}"]["value"] > 0
        digests = first_records[workload]["digests"]
        assert digests, workload
        assert digests == second_records[workload]["digests"], workload
        record = first_records[workload]
        for key in ("python", "commit", "nproc", "seed", "corpus", "loadavg_start", "loadavg_end"):
            assert key in record, key


def test_traced_run_emits_every_per_layer_metric():
    result, records = _run(trace=1)
    _check_metrics(result, SPEC["per_layer"])
    metrics = result["metrics"]
    # each layer reports work on the workloads that call it
    assert metrics["squad_pipeline.transforms.segment_sentences.calls"]["value"] > 0
    assert metrics["squad_pipeline.baseline.predict.calls"]["value"] > 0
    assert metrics["uwre_challenge.templates.instantiate.calls"]["value"] > 0
    assert metrics["uwre_challenge.challenge.build_challenge_set.s"]["value"] > 0
    assert metrics["mix_sweep.mixer.lines_out"]["value"] > 0
    assert metrics["mix_replay.mixer.mix_files.s"]["value"] > 0
    assert metrics["mix_sweep.baseline.predict.calls"]["value"] == 0
    for workload in WORKLOADS:
        assert records[workload]["failures"] == []

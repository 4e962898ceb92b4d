"""Run a workload's CLI steps in one process through ``slotqa.cli.main``.

Usage (from the workload directory, with the package on ``PYTHONPATH``)::

    python3 inproc.py STEPS_JSON RESULT_JSON --trace 0|1

STEPS_JSON holds ``[{"argv": [...], "stdout": FILE, "stderr": FILE}, ...]``.
Each step's stdout and stderr go to the named files, so the caller digests
them exactly as it digests a subprocess run. RESULT_JSON receives each
step's exit code and wall time and, with ``--trace 1``, the recorder's
spans and aggregates.

Tracing wraps every public layer function from outside the package. A
wrapper replaces the function in its defining module and under every other
name that holds it (``slotqa.cli.predict_dataset``,
``slotqa.baseline.segment_sentences``, ...), because callers look the name
up in their own module globals. Per-instance functions are aggregated into
count, total and self time; every other call is kept as a span
(name, start, end, parent).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import sys
import time
import traceback

LAYERS = {
    "model": ["load_dataset", "write_dataset", "read_predictions", "write_predictions", "validate_dataset"],
    "ingest": ["ingest_squad", "ingest_uwre"],
    "transforms": ["segment_sentences", "negativize_squad", "insert_no_answer_token"],
    "baseline": ["tokenize", "build_idf", "predict", "predict_dataset"],
    "metrics": ["score_slot_filling", "score_challenge_accuracy", "normalize_answer"],
    "challenge": ["build_challenge_set", "build_uwre_plus"],
    "templates": ["instantiate", "load_templates"],
    "mixer": ["mix_files"],
}

# Called once per instance or per answer: kept as aggregates, not spans.
AGGREGATED = {
    "baseline.tokenize",
    "baseline.predict",
    "transforms.segment_sentences",
    "metrics.normalize_answer",
    "templates.instantiate",
}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _sidecar_size(path) -> int:
    return _file_size(f"{path}.prov.json")


def _read_chars() -> int:
    """Bytes this process has read through read(2), cache hits included."""
    try:
        with open("/proc/self/io", "r", encoding="ascii") as f:
            for line in f:
                if line.startswith("rchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


class Recorder:
    """Spans and aggregates of the wrapped calls, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.aggregates: dict[str, dict] = {}
        self.counters: dict[str, float] = {}
        self.values: dict[str, list] = {}
        self._stack: list[list] = []  # [span id or None, child seconds]
        self._next_id = 0

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def note(self, key: str, value) -> None:
        self.values.setdefault(key, []).append(value)

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._open(aggregated=False)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, start, time.perf_counter(), aggregated=False)

    def _open(self, aggregated: bool) -> list:
        frame = [None, 0.0]
        if not aggregated:
            frame[0] = self._next_id
            self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float, end: float, aggregated: bool) -> None:
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self_time = duration - frame[1]
        if aggregated:
            entry = self.aggregates.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += self_time
            return
        parent = next((f[0] for f in reversed(self._stack) if f[0] is not None), None)
        self.spans.append(
            {
                "id": frame[0],
                "name": name,
                "start": start,
                "end": end,
                "self_s": self_time,
                "parent": parent,
            }
        )

    def wrap(self, name: str, fn, observe=None):
        aggregated = name in AGGREGATED

        def wrapper(*args, **kwargs):
            frame = self._open(aggregated)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, start, time.perf_counter(), aggregated)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


# --- quantities read from arguments and return values ---


def _observe_load(rec, args, kwargs, result):
    path = _first_arg(args, kwargs, "path")
    rec.add("model.bytes_read", _file_size(path) + _sidecar_size(path))


def _observe_read_predictions(rec, args, kwargs, result):
    rec.add("model.bytes_read", _file_size(_first_arg(args, kwargs, "path")))


def _observe_write_dataset(rec, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    rec.add("model.bytes_written", _file_size(path) + _sidecar_size(path))


def _observe_write_predictions(rec, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    rec.add("model.bytes_written", _file_size(path))


def _observe_ingest(rec, args, kwargs, result):
    report = result[-1]
    rec.add("ingest.records_in", report.input_count)
    rec.add("ingest.records_kept", report.output_count)


def _observe_negativize(rec, args, kwargs, result):
    rec.add("transforms.negativize_squad.skipped", result[1].skipped)


def _observe_predict_dataset(rec, args, kwargs, result):
    rec.add("baseline.predictions", len(result))
    rec.add("baseline.answered", sum(1 for p in result if p.answer is not None))


def _observe_score(rec, args, kwargs, result):
    rec.note("metrics.f1", result.f1)


def _observe_challenge_score(rec, args, kwargs, result):
    rec.note("metrics.challenge_accuracy", result.accuracy)


def _observe_challenge(rec, args, kwargs, result):
    rec.add("challenge.skipped_no_donor", result[1].extra["skipped_no_donor"])


def _observe_mix(rec, args, kwargs, result):
    if result:
        rec.add("mixer.lines_in", result[0][2].input_count)
    for _, path, report in result:
        rec.add("mixer.lines_out", report.output_count)
        rec.add("mixer.bytes_out", _file_size(path))


OBSERVERS = {
    "model.load_dataset": _observe_load,
    "model.read_predictions": _observe_read_predictions,
    "model.write_dataset": _observe_write_dataset,
    "model.write_predictions": _observe_write_predictions,
    "ingest.ingest_squad": _observe_ingest,
    "ingest.ingest_uwre": _observe_ingest,
    "transforms.negativize_squad": _observe_negativize,
    "baseline.predict_dataset": _observe_predict_dataset,
    "metrics.score_slot_filling": _observe_score,
    "metrics.score_challenge_accuracy": _observe_challenge_score,
    "challenge.build_challenge_set": _observe_challenge,
    "mixer.mix_files": _observe_mix,
}


def install(recorder: Recorder) -> None:
    """Replace every layer function, wherever a slotqa module holds it."""
    import slotqa

    modules = [slotqa] + [importlib.import_module(f"slotqa.{m}") for m in list(LAYERS) + ["cli"]]
    for layer, functions in LAYERS.items():
        home = importlib.import_module(f"slotqa.{layer}")
        for function in functions:
            original = getattr(home, function)
            name = f"{layer}.{function}"
            wrapped = recorder.wrap(name, original, OBSERVERS.get(name))
            if name == "mixer.mix_files":
                wrapped = _count_reads(recorder, wrapped)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)


def _count_reads(recorder: Recorder, fn):
    def wrapper(*args, **kwargs):
        before = _read_chars()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.add("mixer.bytes_read", _read_chars() - before)

    return wrapper


def run_steps(steps: list[dict], recorder: Recorder | None) -> list[dict]:
    from slotqa.cli import main

    results = []
    for step in steps:
        argv = step["argv"]
        with open(step["stdout"], "w", encoding="utf-8", newline="\n") as out, open(
            step["stderr"], "w", encoding="utf-8", newline="\n"
        ) as err, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            span = recorder.span(f"cli.{argv[0]}") if recorder else contextlib.nullcontext()
            try:
                with span:
                    code = main(argv)
            except SystemExit as e:
                code = 0 if e.code is None else e.code if isinstance(e.code, int) else 1
            except Exception:  # reported like an uncaught error in the CLI
                traceback.print_exc()
                code = 1
            wall = time.perf_counter() - start
        results.append({"argv": argv, "returncode": code, "wall_s": wall})
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("steps")
    parser.add_argument("result")
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    with open(args.steps, "r", encoding="utf-8") as f:
        steps = json.load(f)
    import slotqa.cli  # noqa: F401  (import cost stays outside the timed steps)

    recorder = Recorder() if args.trace else None
    if recorder:
        install(recorder)
    results = run_steps(steps, recorder)
    payload: dict = {"steps": results}
    if recorder:
        payload.update(
            spans=recorder.spans,
            aggregates=recorder.aggregates,
            counters=recorder.counters,
            values=recorder.values,
        )
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(payload, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())

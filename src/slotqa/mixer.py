"""Seeded mixing of a base dataset with samples of an augmenting dataset.

Sampling is prefix-of-permutation: one permutation of the augment indices
is drawn from the seed, a sample of size n keeps the first n permuted
indices, and the kept instances are emitted in their original relative
order. Samples under the same seed are therefore nested: the sample at a
smaller size is a subset of the sample at any larger size.
"""

from __future__ import annotations

import contextlib
import os
import random
import sys
from array import array
from itertools import repeat
from pathlib import Path
from typing import Any, Iterator, NamedTuple

from .model import (
    DataError,
    ParseError,
    TransformReport,
    atomic_output,
    decode_line,
    read_json,
    read_sidecar,
    refuse_overwrite,
)

DEFAULT_SIZES = (10**3, 10**4, 10**5, 10**6)


class MixSpec(NamedTuple):
    """Configuration of one mixing run; ``base`` and ``augment`` are names."""

    base: str
    augment: str
    seed: int
    sizes: tuple[int, ...] = DEFAULT_SIZES

    def validate(self) -> None:
        if not self.base or not self.augment:
            raise DataError("mix spec needs non-empty base and augment names")
        # the names become an output file name under the output directory
        for name in (self.base, self.augment):
            if name in (".", "..") or any(c and c in name for c in ("/", os.sep, os.altsep, "\0")):
                raise DataError(f"mix spec names must be single path components, got {name!r}")
        if not self.sizes:
            raise DataError("mix spec needs at least one size")
        if any(s <= 0 for s in self.sizes):
            raise DataError(f"mix sizes must be positive: {list(self.sizes)}")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise DataError(f"mix sizes must be strictly increasing: {list(self.sizes)}")

    @classmethod
    def from_json_file(cls, path: str | Path) -> "MixSpec":
        obj = read_json(path)
        if not isinstance(obj, dict):
            raise ParseError(f"{path}: expected a JSON object")
        for key in ("base", "augment", "seed"):
            if key not in obj:
                raise ParseError(f"{path}: missing key {key!r}")
        for key in ("base", "augment"):
            if not isinstance(obj[key], str):
                raise ParseError(f"{path}: {key!r} must be a string")
        if isinstance(obj["seed"], bool) or not isinstance(obj["seed"], int):
            raise ParseError(f"{path}: 'seed' must be an integer")
        sizes = obj.get("sizes", list(DEFAULT_SIZES))
        if not isinstance(sizes, list) or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in sizes
        ):
            raise ParseError(f"{path}: 'sizes' must be an array of integers")
        unknown = set(obj) - {"base", "augment", "seed", "sizes"}
        if unknown:
            raise ParseError(f"{path}: unknown keys {sorted(unknown)}")
        spec = cls(
            base=obj["base"],
            augment=obj["augment"],
            seed=obj["seed"],
            sizes=tuple(sizes),
        )
        spec.validate()
        return spec


def _ranks(population: int, seed: int) -> array:
    """Each index's position in the seeded permutation of ``range(population)``.

    The sample of size n is exactly the indices ranked below n, so samples
    nest across n. The table takes 4 bytes per index.
    """
    order = array("I", range(population))
    random.Random(seed).shuffle(order)
    rank = array("I", bytes(order.itemsize * population))
    for position, index in enumerate(order):
        rank[index] = position
    return rank


# Each scan worker gets at least this many bytes. Forking two workers and
# shutting them down costs about 0.03 s, so on 2 cores two workers break even
# with a serial scan at about 4.5 MiB of JSONL (4 MiB: 0.079 s serial against
# 0.090 s; 5 MiB: 0.094 against 0.077 s; 8 MiB: 0.140 against 0.097 s).
# Each worker gets about twice its 2.25 MiB break-even share, a margin for
# slower forks, so files under 8 MiB are scanned in this process.
_RANGE_MIN_BYTES = 4 << 20
_BLOCK_BYTES = 1 << 18


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _line_blocks(path: Path, start: int = 0, stop: int | None = None) -> Iterator[list[bytes]]:
    """The lines of bytes ``[start, stop)`` of a file, one list per block read.

    Lines split as text mode's universal newlines split them (``\\n``,
    ``\\r\\n`` or a bare ``\\r``) and come without their terminators. A
    block is cut only at a line boundary, never inside a ``\\r\\n`` pair.
    No list is empty: each splits a non-empty slice or a non-empty carry.
    """
    with open(path, "rb") as f:
        f.seek(start)
        remaining = (os.fstat(f.fileno()).st_size if stop is None else stop) - start
        carry = b""
        while True:
            # reading at least as much as is carried keeps assembling a long line linear
            chunk = f.read(min(max(_BLOCK_BYTES, len(carry)), remaining))
            if not chunk:
                if carry:
                    yield carry.splitlines()
                return
            remaining -= len(chunk)
            data = carry + chunk
            # a final \r may be the first half of \r\n, so never cut right after it
            cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
            if cut:
                yield data[:cut].splitlines()
            carry = data[cut:]


def _ranges(path: Path, parts: int) -> list[tuple[int, int]]:
    """At most ``parts`` byte ranges covering a file, each ending after a ``\\n``."""
    size = os.path.getsize(path)
    bounds = [0]
    with open(path, "rb") as f:
        for k in range(1, parts):
            f.seek(max(size * k // parts, bounds[-1]))
            f.readline()
            if f.tell() >= size:
                break
            bounds.append(f.tell())
    bounds.append(size)
    return list(zip(bounds, bounds[1:]))


def _scan_range(
    path: Path, start: int, stop: int, base_ids: set[str] | None
) -> tuple[int, list[str], str | None]:
    """Validate the JSONL lines in bytes ``[start, stop)`` of a file.

    Returns ``(line count, ids, error)``. The ids are those also in
    ``base_ids``, or every id when ``base_ids`` is None. ``error`` is None,
    or the message for the first invalid line; the scan stops there, so
    that line is the last one counted. Runs in a worker process on large
    inputs, so it takes and returns only picklable values.
    """
    count = 0
    ids = []
    for lines in _line_blocks(path, start, stop):
        for line in lines:
            count += 1
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as e:
                return count, ids, f"invalid UTF-8 at byte {e.start}: {e.reason}"
            try:
                obj = decode_line(text)
            except ParseError as e:
                return count, ids, str(e)
            if not isinstance(obj, dict) or not isinstance(obj.get("id"), str):
                return count, ids, "missing string field 'id'"
            if base_ids is None or obj["id"] in base_ids:
                ids.append(obj["id"])
    return count, ids, None


def _scan(path: Path, base_ids: set[str] | None, parts: int, pool) -> tuple[int, list[str]]:
    """Line count and ids (as in :func:`_scan_range`) of a whole JSONL file.

    With a pool, the file is split into ``parts`` ranges scanned in
    parallel. The first invalid line in file order raises
    :class:`ParseError` with its line number in the whole file.
    """
    starts, stops = zip(*_ranges(path, parts))
    run = pool.map if pool is not None and len(starts) > 1 else map
    count = 0
    ids: list[str] = []
    for lines, found, error in run(_scan_range, repeat(path), starts, stops, repeat(base_ids)):
        count += lines
        if error is not None:
            raise ParseError(f"{path}: line {count}: {error}")
        ids.extend(found)
    return count, ids


def _scan_pool(workers: int):
    """A pool of ``workers`` forked processes, or a null context where none may fork.

    Only a single-threaded process on Linux forks: a child forked while
    another thread holds a lock would inherit it held. A daemonic process
    (a ``multiprocessing.Pool`` worker) may not start children.
    """
    # imported here so that commands which never scan a large file do not pay for it
    import multiprocessing
    import threading
    from concurrent.futures import ProcessPoolExecutor

    if (
        sys.platform != "linux"
        or threading.active_count() > 1
        or multiprocessing.current_process().daemon
    ):
        return contextlib.nullcontext()
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


def _scan_inputs(base_path: Path, augment_path: Path) -> tuple[int, int, list[str]]:
    """Base and augment line counts and colliding ids, scanned in parallel if large.

    A pool that cannot start, or whose workers die, falls back to the serial
    scan, which finds the same ids and raises the same errors.
    """
    cpus = _available_cpus()
    base_parts, augment_parts = (
        max(1, min(cpus, os.path.getsize(path) // _RANGE_MIN_BYTES))
        for path in (base_path, augment_path)
    )

    def scan(pool) -> tuple[int, int, list[str]]:
        base_count, base_ids = _scan(base_path, None, base_parts, pool)
        return (base_count, *_scan(augment_path, set(base_ids), augment_parts, pool))

    workers = max(base_parts, augment_parts)
    if workers > 1:
        from concurrent.futures.process import BrokenProcessPool

        try:
            with _scan_pool(workers) as pool:
                return scan(pool)
        except (OSError, BrokenProcessPool):
            pass
    return scan(None)


def mix_files(
    spec: MixSpec,
    base_path: str | Path,
    augment_path: str | Path,
    out_dir: str | Path,
    config: str | Path | None = None,
) -> list[tuple[str, Path, TransformReport]]:
    """Write ``{base}+{augment}@{k}.jsonl``, the base then the augment's sample, per size k.

    Each output's sidecar extends the base's provenance log by a ``mix``
    entry. No output may overwrite an input or ``config``, the file the spec
    was read from. Lines are copied verbatim, so inputs must already be
    canonical JSONL. Each input is read twice, whatever the number of sizes:
    once to validate every line and count the augment, once to copy. Files
    of 8 MiB or more are validated by worker processes, one per available
    CPU and per 4 MiB. The workers are forked: they share this process's
    pages instead of starting an interpreter, and a calling script needs no
    ``if __name__ == "__main__"`` guard. Off Linux, while other threads are
    alive, in a daemonic process, or if no pool can be used, the scan runs
    in this process. Memory stays bounded by the base ids and a rank table
    of 4 bytes per augment line, never by instance objects; each scan worker
    receives its own copy of the base ids. The rank table, and the shuffle
    that draws it, is built only when some size is below the augment's line
    count, so replaying an all-taking mix does no shuffle.
    """
    spec.validate()
    base_path, augment_path = Path(base_path), Path(augment_path)
    out_dir = Path(out_dir)
    names = [f"{spec.base}+{spec.augment}@{k}" for k in spec.sizes]
    out_paths = [out_dir / f"{name}.jsonl" for name in names]
    refuse_overwrite(out_paths, (base_path, augment_path, config))

    base_meta = read_sidecar(base_path)
    base_token = base_meta.no_answer_token
    augment_token = read_sidecar(augment_path).no_answer_token
    if base_token != augment_token:
        raise DataError(
            "cannot mix datasets with different no-answer adaptations: "
            f"{base_token!r} vs {augment_token!r}"
        )

    base_count, population, colliding = _scan_inputs(base_path, augment_path)
    if colliding:
        colliding = sorted(set(colliding))
        raise DataError(
            f"{len(colliding)} instance ids occur in both base and augment: {colliding[:10]}"
        )

    # the output of size k takes exactly the augment lines ranked below k;
    # sizes increase, so when the smallest takes every line no rank is read
    rank = _ranks(population, spec.seed) if spec.sizes[0] < population else None

    out_dir.mkdir(parents=True, exist_ok=True)
    results, outs = [], []
    with contextlib.ExitStack() as stack:
        for k, name, out_path in zip(spec.sizes, names, out_paths):
            taken = min(k, population)
            parameters: dict[str, Any] = {
                "base": spec.base,
                "augment": spec.augment,
                "size": k,
                "taken": taken,
                "base_path": str(base_path),
                "augment_path": str(augment_path),
                "out": str(out_path),
            }
            if k > population:
                parameters["truncated_to_population"] = True
            report = TransformReport(operation="mix", input_count=base_count + population,
                                     output_count=base_count + taken, parameters=parameters)
            meta = base_meta.derive((), report.operation, report.parameters, spec.seed, name=name)
            outs.append(stack.enter_context(atomic_output(out_path, binary=True, sidecar=meta)))
            results.append((name, out_path, report))
        for lines in _line_blocks(base_path):
            data = b"\n".join(lines) + b"\n"
            for out in outs:
                out.write(data)
        first = 0
        for lines in _line_blocks(augment_path):
            ranks = rank[first : first + len(lines)] if rank is not None else ()
            first += len(lines)
            for k, out in zip(spec.sizes, outs):
                kept = lines if k >= population else [line for line, r in zip(lines, ranks) if r < k]
                if kept:
                    out.write(b"\n".join(kept) + b"\n")
        # raised inside the block, so that no output is replaced
        if first != population:
            raise DataError(f"{augment_path}: changed while being mixed")
    return results

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
from array import array
from pathlib import Path
from typing import Any, Iterator, NamedTuple

from .model import (
    JSON_KINDS,
    DataError,
    ParseError,
    TransformReport,
    _scan_once,
    atomic_output,
    decode_line,
    expect,
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
        for key, kind in (("base", "a string"), ("augment", "a string"), ("seed", "an integer")):
            expect(obj[key], kind, f"{path}: {key!r}")
        sizes = obj.get("sizes", list(DEFAULT_SIZES))
        if not isinstance(sizes, list) or not all(map(JSON_KINDS["an integer"], sizes)):
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


def _ranks(population: int, seed: int, limit: int) -> array:
    """Each index's position in the seeded permutation of ``range(population)``, clipped at ``limit``.

    The sample of size n <= limit is exactly the indices ranked below n, so
    samples nest across n. The permutation is ``random.Random(seed).shuffle``'s:
    the loop runs its Fisher–Yates steps, drawing ``randbelow(i + 1)`` from
    the same ``getrandbits`` calls in the same order, as CPython 3.10-3.13
    write ``shuffle`` (the tests compare the two). Position i is final at
    step i, so a step only moves the index that stays behind into the free
    slot, and records the placed index's rank only when i < limit. Each of
    the two tables takes 4 bytes per index.
    """
    rank = array("I", [limit]) * population
    order = array("I", range(population))
    getrandbits = random.Random(seed).getrandbits
    i = population - 1
    while i > 0:
        # randbelow(i + 1) draws (i + 1).bit_length() bits, the same down to a power of two
        bits = (i + 1).bit_length()
        for i in range(i, (1 << bits - 1) - 2, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            if i < limit:
                rank[order[j]] = i
            order[j] = order[i]
        i -= 1
    if population and limit:
        rank[order[0]] = 0
    return rank


# Each scan range is at least this many bytes. On bench-like mix lines, with
# 2 shared CPUs, this process scanning one range beside one forked child
# breaks even with a serial scan at about 1 MiB of JSONL (medians of 21
# alternating scans, serial against split: 1 MiB 16.4 against 16.8 ms; 2 MiB
# 34.2 against 30.0; 4 MiB 57.4 against 46.1; 8 MiB 124.4 against 78.9). A
# range is four times its break-even share, a margin for a busy machine, so
# files under 4 MiB are scanned in this process.
_RANGE_MIN_BYTES = 2 << 20
_BLOCK_BYTES = 1 << 18


def _line_blocks(path: Path, start: int = 0, stop: int | None = None) -> Iterator[bytes]:
    """Bytes ``[start, stop)`` of a file, in blocks cut at line boundaries.

    Lines end as text mode's universal newlines end them (``\\n``,
    ``\\r\\n`` or a bare ``\\r``), so ``block.splitlines()`` gives a
    block's lines without their terminators. Every block but the last ends
    in a terminator, and none inside a ``\\r\\n`` pair. No block is empty.
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
                    yield carry
                return
            remaining -= len(chunk)
            data = carry + chunk
            # a final \r may be the first half of \r\n, so never cut right after it
            cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
            if cut:
                yield data[:cut]
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
) -> tuple[int, list[str], str | None, int, bool]:
    """Validate the JSONL lines in bytes ``[start, stop)`` of a file.

    Returns ``(line count, ids, error, size, plain)``. The ids are those
    also in ``base_ids``, or every id when ``base_ids`` is None. ``error``
    is None, or the message for the first invalid line; the scan stops
    there, so that line is the last one counted. ``size`` is the number of
    bytes read; ``plain`` says they hold no ``\\r`` and are empty or end in
    ``\\n``. A block is decoded once; a line the scanner does not take whole
    goes to :func:`~slotqa.model.decode_line`, which words its error. Runs
    in a forked child on large inputs, so it returns only picklable values.
    """
    count = size = 0
    ids = []
    plain, block = True, b"\n"  # an empty range is plain
    for block in _line_blocks(path, start, stop):
        size += len(block)
        try:
            text, bad = block.decode("utf-8"), None
        except UnicodeDecodeError as e:  # the line it is on is decoded alone, to word the error
            cut = max(block.rfind(b"\n", 0, e.start), block.rfind(b"\r", 0, e.start)) + 1
            text, bad = block[:cut].decode("utf-8"), block[cut:].splitlines()[0]
        if b"\r" in block:
            plain, text = False, text.replace("\r\n", "\n").replace("\r", "\n")
        if text and text[-1] != "\n":
            text += "\n"
        pos, end = 0, len(text)
        while pos < end:
            nl = text.find("\n", pos)
            count += 1
            try:
                obj, stop_at = _scan_once(text, pos)
            except (StopIteration, ValueError, RecursionError):
                stop_at = -1
            # a value counts only if it is the whole line
            if stop_at != nl:
                try:
                    obj = decode_line(text[pos:nl])
                except ParseError as e:
                    return count, ids, str(e), size, False
            if not isinstance(obj, dict) or not isinstance(obj.get("id"), str):
                return count, ids, "missing string field 'id'", size, False
            if base_ids is None or obj["id"] in base_ids:
                ids.append(obj["id"])
            pos = nl + 1
        if bad is not None:
            try:
                bad.decode("utf-8")
            except UnicodeDecodeError as e:
                return count + 1, ids, f"invalid UTF-8 at byte {e.start}: {e.reason}", size, False
    return count, ids, None, size, plain and block.endswith(b"\n")


def _scan(path: Path, base_ids: set[str] | None) -> tuple[int, list[str], int, bool]:
    """Line count, ids, size and plainness (as in :func:`_scan_range`) of a whole JSONL file.

    The file is split into ranges of at least ``_RANGE_MIN_BYTES``
    (:func:`~slotqa.parallel.shares`), scanned through
    :func:`~slotqa.parallel.fork_map`. The first invalid line in file order
    raises :class:`ParseError` with its line number in the whole file.
    """
    from .parallel import fork_map, shares

    count, size, plain = 0, 0, True
    ids: list[str] = []
    ranges = _ranges(path, shares(os.path.getsize(path), _RANGE_MIN_BYTES))
    scans = fork_map(lambda bounds: _scan_range(path, *bounds, base_ids), ranges)
    with contextlib.closing(scans):
        for lines, found, error, scanned, range_plain in scans:
            count += lines
            if error is not None:
                raise ParseError(f"{path}: line {count}: {error}")
            ids.extend(found)
            size += scanned
            plain = plain and range_plain
    return count, ids, size, plain


def _copy_inputs(out: Any, inputs: tuple[tuple[Path, int, int], ...]) -> bool:
    """Copy the ``size`` scanned bytes of each ``(path, line count, size)`` input into ``out`` in the kernel.

    False, with ``out`` emptied, where the kernel cannot: off Linux, or on an OSError such as EXDEV.
    """
    if not hasattr(os, "copy_file_range"):
        return False
    dst, offset = out.fileno(), 0
    try:
        for path, _, size in inputs:
            with open(path, "rb") as f:
                done, src = 0, f.fileno()
                while done < size and (n := os.copy_file_range(src, dst, size - done, done, offset + done)):
                    done += n
                if done != size or os.fstat(src).st_size != size:
                    raise DataError(f"{path}: changed while being mixed")
            offset += size
    except OSError:
        os.ftruncate(dst, 0)
        return False
    return True


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
    canonical JSONL. One scan reads each input once, validating every line
    and counting the augment. An output that takes every augment line is
    then copied in the kernel when neither input holds a ``\\r`` and each is
    empty or ends in ``\\n``; every other output, or one the kernel cannot
    copy, is written by one copy pass that reads each input once more. The
    bytes are the same either way. An input whose size or line count no
    longer matches its scan is a :class:`DataError`; no output is replaced.
    A file of 4 MiB or more is validated in ranges of at least 2 MiB, one
    per available CPU, through :func:`~slotqa.parallel.fork_map`: this
    process scans the first while forked children, which start no
    interpreter, scan the rest, so a script needs no
    ``if __name__ == "__main__"`` guard. Memory stays bounded by the base
    ids and a rank table of 4 bytes per augment line, never by instance
    objects. The rank table is drawn by :func:`_ranks` in one pass of
    ``random.Random(seed).shuffle``'s own steps, and holds ranks only below
    the largest size under the augment's line count. It is drawn only when
    some size is below that count, so replaying an all-taking mix draws
    nothing.
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

    base_count, base_ids, base_size, base_plain = _scan(base_path, None)
    population, colliding, augment_size, augment_plain = _scan(augment_path, set(base_ids))
    if colliding:
        colliding = sorted(set(colliding))
        raise DataError(
            f"{len(colliding)} instance ids occur in both base and augment: {colliding[:10]}"
        )

    # the output of size k takes exactly the augment lines ranked below k; only
    # sizes below the population read ranks, so none is drawn when no size does
    sampled = [k for k in spec.sizes if k < population]
    rank = _ranks(population, spec.seed, sampled[-1]) if sampled else None

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
        inputs = ((base_path, base_count, base_size), (augment_path, population, augment_size))
        # the copy loop rejoins lines with \n: an all-taking output of plain inputs is their bytes
        loop = [(k, out) for k, out in zip(spec.sizes, outs)
                if not (k >= population and base_plain and augment_plain and _copy_inputs(out, inputs))]
        # the copy loop writes the other outputs, if any, reading each input once more; a
        # change is raised inside the block, so that no output is replaced
        for (path, count, _), ranks_of in zip(inputs, (None, rank) if loop else ()):
            first = 0
            for block in _line_blocks(path):
                lines = block.splitlines()
                ranks = ranks_of[first : first + len(lines)] if ranks_of is not None else ()
                first += len(lines)
                for k, out in loop:
                    kept = lines if ranks_of is None or k >= population else [
                        line for line, r in zip(lines, ranks) if r < k]
                    if kept:
                        out.write(b"\n".join(kept) + b"\n")
            if first != count:
                raise DataError(f"{path}: changed while being mixed")
    return results

"""One way to spread independent work over this process and forked children.

:func:`fork_map` forks one child per further available CPU per call, each
computing one item; it inherits every object the function needs, without
pickling, and sends back only its pickled result through a pipe.
:func:`shares` is the one rule for how many pieces to cut work into.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from typing import BinaryIO, Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# set in every child, so that a fork_map inside one runs in that child
_in_child = False


def available_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def shares(amount: int, minimum: int) -> int:
    """How many shares to cut ``amount`` into: at most one per available CPU, each at least ``minimum``."""
    return max(1, min(available_cpus(), amount // minimum))


def _may_fork() -> bool:
    """Only a single-threaded process on Linux forks, and never a fork_map child.

    A child forked while another thread holds a lock would inherit it held.
    ``threading`` is only looked at when something has imported it.
    """
    threading = sys.modules.get("threading")
    return (
        sys.platform == "linux"
        and not _in_child
        and (threading is None or threading.active_count() < 2)
    )


def fork_map(function: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
    """Yield ``function(item)`` for each item, in item order.

    With ``n = min(available_cpus(), len(items))``, this process forks ``n - 1``
    children at the start, child ``k`` computing ``items[k]``. This process
    computes item 0, every item from ``n`` on, and any item whose child sent
    no result, each in its turn, so an exception comes after every earlier
    result. None is forked off Linux, while another thread is alive, or in a
    child of ``fork_map``; the items computed here may fork. An exception or
    an early close kills and reaps every child not yet reaped.
    """
    items = list(items)
    n = max(1, min(available_cpus() if _may_fork() else 1, len(items)))
    children: dict[int, tuple[int, BinaryIO]] = {}  # k -> (pid, pipe), until the child is reaped
    try:
        for k in range(1, n):
            _start(children, k, function, items[k])
        for k, item in enumerate(items):
            sent = _finish(children, k) if k in children else []
            yield sent[0] if sent else function(item)
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _start(children: dict[int, tuple[int, BinaryIO]], k: int, function, item) -> None:
    """Fork child ``k``, which sends ``[function(item)]`` pickled, or nothing if that raises.

    The child is in ``children`` once forked.
    """
    global _in_child
    # a child leaves through os._exit and flushes nothing, so nothing buffered is written twice
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return
    if pid:
        os.close(write_end)
        children[k] = pid, open(read_end, "rb")
        return
    status = 1
    try:
        _in_child = True
        os.close(read_end)
        data = memoryview(pickle.dumps([function(item)], pickle.HIGHEST_PROTOCOL))
        while data:
            data = data[os.write(write_end, data) :]
        status = 0
    finally:
        os._exit(status)


def _finish(children: dict[int, tuple[int, BinaryIO]], k: int) -> list:
    """The ``[result]`` child ``k`` sent, [] if none; the child leaves ``children`` once it is reaped."""
    pid, pipe = children[k]
    with pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    del children[k]
    return pickle.loads(data) if data and os.waitstatus_to_exitcode(status) == 0 else []

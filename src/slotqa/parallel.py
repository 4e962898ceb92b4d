"""One way to spread independent work over this process and forked children.

A child inherits every object the function needs, without pickling them,
and sends back only its pickled result through a pipe. :func:`shares` is the
one rule for how many pieces to cut a piece of work into.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from typing import Callable, Iterable, Iterator, TypeVar

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

    This process computes the first item while forked children compute the
    items after it, at most ``available_cpus() - 1`` at once. None is forked
    off Linux, while another thread is alive, or in a child of ``fork_map``;
    the item this process computes may fork. An item whose child yields no
    result (the fork failed, or the child exited non-zero or sent nothing) is
    computed here in its turn, so its exception is raised after every earlier
    result. An exception or an early close kills and reaps every child.
    """
    items = list(items)
    workers = available_cpus() if _may_fork() else 1
    running: dict[int, tuple[int, int] | None] = {}  # item index -> (pid, read end), None if no fork
    try:
        for index, item in enumerate(items):
            for ahead in range(index + 1, min(index + workers, len(items))):
                if ahead not in running:
                    running[ahead] = _start(function, items[ahead])
            data = _finish(running.pop(index, None))
            yield function(item) if data is None else pickle.loads(data)
    finally:
        for child in running.values():
            if child is not None:
                pid, read_end = child
                os.close(read_end)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _start(function, item) -> tuple[int, int] | None:
    """Fork a child that sends ``pickle.dumps(function(item))``: its pid and the pipe's read end.

    None if no child could be started.
    """
    global _in_child
    # a child leaves through os._exit and flushes nothing, so nothing buffered is written twice
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid:
        os.close(write_end)
        return pid, read_end
    status = 1
    try:
        _in_child = True
        os.close(read_end)
        data = memoryview(pickle.dumps(function(item), pickle.HIGHEST_PROTOCOL))
        while data:
            data = data[os.write(write_end, data) :]
        status = 0
    finally:
        os._exit(status)


def _finish(child: tuple[int, int] | None) -> bytes | None:
    """The pickled result of a child started by :func:`_start`, or None if it sent none."""
    if child is None:
        return None
    pid, read_end = child
    with open(read_end, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    return data if data and os.waitstatus_to_exitcode(status) == 0 else None

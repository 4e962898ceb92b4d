"""The contract of ``parallel.fork_map``: serial results, wherever the items run."""

import errno
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from slotqa import parallel
from slotqa.parallel import fork_map

from helpers import record_forks

SRC = str(Path(__file__).resolve().parents[1] / "src")
LINUX = sys.platform == "linux"


def where(item):
    """The item, squared, and the pid of the process that computed it."""
    return item * item, os.getpid()


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked during the test, with two CPUs available."""
    cpus(monkeypatch, 2)
    return record_forks(monkeypatch)


def cpus(monkeypatch, count):
    """Let fork_map run up to ``count`` children at once."""
    monkeypatch.setattr(parallel, "available_cpus", lambda: count)


def test_results_come_back_in_item_order_from_children(monkeypatch, forks):
    cpus(monkeypatch, 3)
    got = list(fork_map(where, range(7)))
    assert [square for square, _ in got] == [i * i for i in range(7)]
    if LINUX:
        assert [pid for _, pid in got] == forks
        assert os.getpid() not in forks
    else:
        assert {pid for _, pid in got} == {os.getpid()} and forks == []


@pytest.mark.parametrize("items, count", [([], 2), ([3], 2), (range(4), 1)])
def test_too_little_to_share_runs_here(monkeypatch, forks, items, count):
    cpus(monkeypatch, count)
    assert list(fork_map(where, items)) == [(i * i, os.getpid()) for i in items]
    assert forks == []


def test_the_first_failing_item_raises_after_the_earlier_results(forks):
    def fail_at_three(item):
        if item >= 3:
            raise ValueError(f"bad item {item}")
        return where(item)

    results = fork_map(fail_at_three, range(6))
    got = []
    with pytest.raises(ValueError, match="bad item 3"):
        for result in results:
            got.append(result)
    assert [square for square, _ in got] == [0, 1, 4]
    # the failed item ran again here, and every child is reaped
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_an_item_whose_child_dies_is_computed_here(forks):
    parent = os.getpid()

    def die_in_a_child(item):
        if item % 2 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return where(item)

    got = list(fork_map(die_in_a_child, range(6)))
    assert [square for square, _ in got] == [i * i for i in range(6)]
    assert [pid == parent for _, pid in got] == [bool(i % 2) or not LINUX for i in range(6)]
    assert len(forks) == (6 if LINUX else 0)


def test_an_item_whose_child_sends_part_of_its_result_is_computed_here(monkeypatch):
    real, calls = os.write, []

    def write_half_then_fail(fd, data):
        # in a child: the first write sends half the pickle, the next one fails
        calls.append(fd)
        if len(calls) > 1:
            raise OSError(errno.EPIPE, "Broken pipe")
        return real(fd, data[: len(data) // 2])

    monkeypatch.setattr(os, "write", write_half_then_fail)
    cpus(monkeypatch, 2)
    assert list(fork_map(where, range(3))) == [(i * i, os.getpid()) for i in range(3)]


def test_a_live_second_thread_means_no_fork(forks):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        got = list(fork_map(where, range(4)))
    finally:
        release.set()
        thread.join(timeout=10)
    assert got == [(i * i, os.getpid()) for i in range(4)]
    assert forks == []


def test_a_fork_that_fails_falls_back_to_this_process(monkeypatch):
    def fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    cpus(monkeypatch, 2)
    assert list(fork_map(where, range(4))) == [(i * i, os.getpid()) for i in range(4)]


def test_a_child_never_forks(forks):
    def nested(item):
        # the pids of a nested fork_map's items, and of the process that ran it
        return [pid for _, pid in fork_map(where, range(3))], os.getpid()

    got = list(fork_map(nested, range(2)))
    assert all(inner == [pid] * 3 for inner, pid in got)
    assert len(forks) == (2 if LINUX else 0)


def test_closing_early_kills_and_reaps_every_child(monkeypatch, forks):
    cpus(monkeypatch, 3)
    results = fork_map(where, range(6))
    assert next(results)[0] == 0
    results.close()
    assert len(forks) == (3 if LINUX else 0)
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("count", [1, 2])
def test_children_run_only_with_two_available_cpus(monkeypatch, forks, count):
    cpus(monkeypatch, count)
    assert [square for square, _ in fork_map(where, range(3))] == [0, 1, 4]
    assert len(forks) == (3 if LINUX and count > 1 else 0)


_SCRIPT = """
import os, sys
from slotqa import parallel
from slotqa.parallel import fork_map

parallel.available_cpus = lambda: 3

def fds():
    return sorted(os.listdir("/proc/self/fd")) if sys.platform == "linux" else []

def fail_at_two(item):
    if item == 2:
        raise ValueError(item)
    return item

before = fds()
print("buffered before the fork")
assert list(fork_map(str, range(5))) == ["0", "1", "2", "3", "4"]
results = fork_map(str, range(5))
next(results)
results.close()
try:
    list(fork_map(fail_at_two, range(5)))
except ValueError:
    pass
assert fds() == before, (before, fds())
print("done")
"""


def test_no_descriptor_leaks_and_nothing_is_printed_twice(tmp_path):
    """Run in development mode with ResourceWarning an error, stdout a pipe (block-buffered)."""
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", _SCRIPT],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120, check=False,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "buffered before the fork\ndone\n", "")

"""The contract of ``parallel.fork_map``: serial results, wherever the items run.

Over ``n`` processes, items 1 to ``n - 1`` run in a child each and every other
item in this process, in its turn, so a test that counts forks sets
``available_cpus`` itself: under ``taskset -c 0`` nothing forks.
"""

import errno
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        # item 1 runs in the first child, item 2 in the second, and the rest here
        here, first, second = os.getpid(), *forks
        assert [pid for _, pid in got] == [here, first, second, here, here, here, here]
        assert len(forks) == 2 and os.getpid() not in forks
    else:
        assert {pid for _, pid in got} == {os.getpid()} and forks == []


@pytest.mark.parametrize("count", range(9))
def test_one_available_cpu_never_forks(monkeypatch, forks, count):
    cpus(monkeypatch, 1)
    assert list(fork_map(where, range(count))) == [(i * i, os.getpid()) for i in range(count)]
    assert forks == []


@pytest.mark.skipif(not LINUX, reason="children are forked only on Linux")
@pytest.mark.parametrize("count, computed_here", [
    pytest.param(2, list(range(10)), id="2"),  # the one child dies at item 1: every item runs here
    pytest.param(3, [0, 1, 3, 4, 5, 6, 7, 8, 9], id="3"),  # the first child dies at item 1, the second lives
    pytest.param(4, [0, 1, 3, 4, 5, 6, 7, 8, 9], id="4"),  # the first and third die, at items 1 and 3
])
def test_while_this_process_computes_at_most_one_child_per_further_cpu_is_alive(
    monkeypatch, forks, count, computed_here
):
    parent = os.getpid()
    alive = []  # per item computed here: the children not yet reaped

    def item_here_or_die(item):
        if os.getpid() != parent:
            if item % 2:  # its item is computed here, with other children running
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(0.02)
        else:
            alive.append(sum(os.path.exists(f"/proc/{pid}") for pid in forks))
        return where(item)

    cpus(monkeypatch, count)
    got = list(fork_map(item_here_or_die, range(10)))
    assert [square for square, _ in got] == [i * i for i in range(10)]
    assert [i for i, (_, pid) in enumerate(got) if pid == parent] == computed_here
    assert len(alive) == len(computed_here) and max(alive) <= count - 1
    assert alive[0] == count - 1  # item 0 runs beside one child per further CPU
    assert len(forks) == count - 1


@pytest.mark.skipif(not LINUX, reason="children are forked only on Linux")
@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_while_this_process_reads_its_children_at_most_one_child_per_further_cpu_is_alive(
    monkeypatch, forks, count
):
    parent = os.getpid()
    seen = []  # per sample, taken every 2 ms: the children of the call not yet reaped

    def sample(signum, frame):
        seen.append(sum(os.path.exists(f"/proc/{pid}") for pid in forks))

    def slow_in_a_child(item):
        if os.getpid() != parent:
            time.sleep(0.01)
        return item

    cpus(monkeypatch, count)
    previous = signal.signal(signal.SIGALRM, sample)
    try:
        for items in range(11):
            forks.clear()
            seen.clear()
            signal.setitimer(signal.ITIMER_REAL, 0.002, 0.002)
            try:
                assert list(fork_map(slow_in_a_child, range(items))) == list(range(items))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            children = max(0, min(count, items) - 1)
            assert len(forks) == children and max(seen, default=0) <= children, (items, seen)
            assert seen or not children  # sampled while a child sleeps
    finally:
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=40, deadline=None)
@given(count=st.integers(0, 8), cpu_count=st.integers(1, 4), fail=st.one_of(st.none(), st.integers(0, 8)))
def test_results_equal_a_serial_map_first_exception_included(count, cpu_count, fail):
    def square_or_fail(item):
        if item == fail:
            raise ValueError(f"bad item {item}")
        return item * item

    def outcome(results):
        got = []
        try:
            for result in results:
                got.append(result)
        except ValueError as e:
            return got, str(e)
        return got, None

    with pytest.MonkeyPatch.context() as m:
        cpus(m, cpu_count)
        assert outcome(fork_map(square_or_fail, range(count))) == outcome(map(square_or_fail, range(count)))


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
    # every child is reaped
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _computed_here_when_the_first_child_fails(monkeypatch, fail):
    """Of six items on three CPUs, those computed here when the first child calls ``fail`` at its item 1."""
    parent = os.getpid()

    def fail_in_a_child(item):
        if item == 1 and os.getpid() != parent:
            fail()
        return where(item)

    cpus(monkeypatch, 3)
    got = list(fork_map(fail_in_a_child, range(6)))
    assert [square for square, _ in got] == [i * i for i in range(6)]
    return [i for i, (_, pid) in enumerate(got) if pid == parent]


def test_an_item_whose_child_dies_is_computed_here(monkeypatch, forks):
    here = _computed_here_when_the_first_child_fails(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    # the first child sends nothing, so its item 1 is computed here, after item 0 and before item 2
    assert here == ([0, 1, 3, 4, 5] if LINUX else list(range(6)))
    assert len(forks) == (2 if LINUX else 0)


def test_a_child_sends_its_results_up_to_its_first_exception(monkeypatch, forks):
    def fail():
        raise ValueError("only in a child")

    here = _computed_here_when_the_first_child_fails(monkeypatch, fail)
    # a child's results end before its first exception: with one item, it sends none, and item 1 is computed here
    assert here == ([0, 1, 3, 4, 5] if LINUX else list(range(6)))
    assert len(forks) == (2 if LINUX else 0)


def test_an_exception_in_this_process_s_item_kills_and_reaps_the_children(monkeypatch, forks):
    parent = os.getpid()

    def fail_here(item):
        if os.getpid() == parent:
            raise ValueError(f"bad item {item}")
        time.sleep(60)  # still running when item 0 fails

    cpus(monkeypatch, 4)
    start = time.monotonic()
    with pytest.raises(ValueError, match="bad item 0"):
        next(fork_map(fail_here, range(6)))
    assert time.monotonic() - start < 10  # raised without waiting for a child
    assert len(forks) == (3 if LINUX else 0)
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.skipif(not LINUX, reason="children are forked only on Linux")
def test_an_interrupt_while_this_process_reads_a_child_kills_and_reaps_it(forks):
    parent = os.getpid()

    def sleep_in_a_child(item):
        if os.getpid() != parent:
            time.sleep(60)
        return item

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)  # item 0 is computed by then: this process reads item 1
        with pytest.raises(KeyboardInterrupt):
            list(fork_map(sleep_in_a_child, range(2)))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(forks[0], os.WNOHANG)


def test_a_result_far_larger_than_a_pipe_buffer_is_read_in_full(forks):
    def large(item):
        return os.getpid(), bytes([item]) * (2 << 20)  # 2 MiB

    got = list(fork_map(large, range(2)))
    assert [data for _, data in got] == [bytes([i]) * (2 << 20) for i in range(2)]
    assert [pid for pid, _ in got] == [os.getpid(), *forks] and len(forks) == (1 if LINUX else 0)


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

    (here, parent), (in_child, child) = fork_map(nested, range(2))
    assert parent == os.getpid() and in_child == [child] * 3
    if LINUX:
        # the item computed here may fork: item 1 of its own fork_map
        assert child != parent and here == [parent, forks[1], parent] and len(forks) == 2
    else:
        assert here == [parent] * 3 and forks == []


def test_closing_early_kills_and_reaps_every_child(monkeypatch, forks):
    cpus(monkeypatch, 3)
    results = fork_map(where, range(6))
    assert next(results)[0] == 0
    results.close()
    assert len(forks) == (2 if LINUX else 0)
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("count", [1, 2])
def test_children_run_only_with_two_available_cpus(monkeypatch, forks, count):
    cpus(monkeypatch, count)
    assert [square for square, _ in fork_map(where, range(3))] == [0, 1, 4]
    assert len(forks) == (1 if LINUX and count > 1 else 0)


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

"""CPU time and peak memory of this process and the processes it started.

Read from ``/proc``: pool workers and the server are live children
during the timed window, so their counters can be sampled at its edges
without changing how the program runs.
"""

from __future__ import annotations

import os
import resource
import signal
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Dict, Iterable

_TICKS = os.sysconf("SC_CLK_TCK")


def child_pids() -> list:
    """Live direct children of this process (every thread's forks)."""
    pids = []
    for children in Path(f"/proc/{os.getpid()}/task").glob("*/children"):
        try:
            pids.extend(int(pid) for pid in children.read_text().split())
        except OSError:
            continue
    return pids


def stop_children(timeout_s: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The pool's shared memory starts the multiprocessing resource
    tracker, which outlives the pool and would end only some time after
    this process exits; it is stopped and waited for here.  Any other
    child still running is sent SIGTERM, then SIGKILL at the deadline.
    """
    resource_tracker._resource_tracker._stop()
    pids = child_pids()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout_s
    for pid in pids:
        try:
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.01)
        except (ChildProcessError, ProcessLookupError):
            pass  # already reaped elsewhere


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of one live process (0 if gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    # Fields after the parenthesised command name; utime and stime are
    # fields 14 and 15 of the whole line.
    fields = stat.rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one live process, in MB (0 if gone)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def snapshot(extra: Iterable[int] = ()) -> Dict[int, float]:
    """CPU seconds of this process and of every child, keyed by pid."""
    own = os.times()
    sample = {os.getpid(): own.user + own.system}
    for pid in set(child_pids()) | set(extra):
        sample[pid] = cpu_seconds(pid)
    return sample


def cpu_between(before: Dict[int, float], after: Dict[int, float]) -> float:
    """CPU spent between two snapshots; a new child counts in full."""
    return sum(seconds - before.get(pid, 0.0) for pid, seconds in after.items())


def peak_rss(pids: Iterable[int]) -> float:
    """Largest peak resident set, in MB, of this process and ``pids``."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return max([own] + [peak_rss_mb(pid) for pid in pids])


def host_ticks() -> tuple:
    """(all, steal) CPU ticks of the whole machine so far, from /proc/stat.

    Steal is time the hypervisor gave this VM's CPUs to someone else;
    its share over a run tells host noise from a change in the program.
    """
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    ticks = [int(value) for value in fields[:8]]
    return sum(ticks), ticks[7]


def steal_share(before: tuple, after: tuple) -> float:
    """Share of the machine's CPU time stolen between two ``host_ticks``."""
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total else 0.0

"""Resource use of the benchmark's own process tree, read from /proc: the
main process, the Ray processes it starts (GCS, raylet, ...) and the
workers the raylet forks. Only this tree is read; nothing is changed."""

from __future__ import annotations

import os
import threading

_PAGE = os.sysconf("SC_PAGE_SIZE")
_TICK = os.sysconf("SC_CLK_TCK")


def tree(pid: int | None = None) -> list[int]:
    """pid and all its live descendants."""
    out, todo = [], [pid or os.getpid()]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as f:
                    todo.extend(int(c) for c in f.read().split())
        except OSError:
            continue
    return out


def rss_bytes(pids) -> int:
    total = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/statm") as f:
                total += int(f.read().split()[1]) * _PAGE
        except (OSError, IndexError, ValueError):
            continue
    return total


def cpu_seconds(pids) -> float:
    """user + system CPU seconds of the live processes in pids."""
    total = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
        except (OSError, IndexError, ValueError):
            continue
    return total / _TICK


class PeakRSS:
    """Samples the summed RSS of the process tree every `interval` seconds
    on a daemon thread; `peak` is the largest sum seen."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="peak-rss", daemon=True)

    def _run(self):
        while not self._stop.is_set():
            self.peak = max(self.peak, rss_bytes(tree()))
            self._stop.wait(self.interval)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)


def end_descendants(timeout: float = 10.0) -> None:
    """Stop every process below this one (SIGTERM, then SIGKILL) and wait
    until each has ended. For a Ray node whose start failed half way, and
    for anything still alive when the run ends."""
    import signal
    import time

    me = os.getpid()
    sig, t_kill = signal.SIGTERM, time.monotonic() + timeout / 2
    t_end = time.monotonic() + timeout
    seen: set[int] = set()
    while True:
        # a process stays in `seen` after its parent ends and it is adopted
        seen.update(p for p in tree(me) if p != me)
        # reap our own children; others are reaped by whoever adopts them
        for p in seen:
            try:
                os.waitpid(p, os.WNOHANG)
            except ChildProcessError:
                pass
        alive = [p for p in seen if _running(p)]
        if not alive or time.monotonic() > t_end:
            return
        if time.monotonic() > t_kill:
            sig = signal.SIGKILL
        for p in alive:
            try:
                os.kill(p, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.1)


def _running(pid: int) -> bool:
    """Alive and not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False

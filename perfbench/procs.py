"""Child processes: run the CLI, sample the peak RSS of its process tree.

``peak_rss_mb`` is the sum, over a process and every descendant seen
while it ran (the CLI plus its pool workers, or the daemon plus its
shard workers), of each process's own peak resident set size
(``VmHWM`` in ``/proc/<pid>/status``), sampled every ``interval``
seconds. It bounds the tree's peak from above; unlike the sum of
*current* RSS at one instant, it does not depend on whether the
processes' peaks happen to coincide, so it repeats from run to run.
``getrusage`` cannot give it: ``ru_maxrss`` is the largest single
process, not the tree.

No process the benchmark starts may outlive it, grandchildren included:
a CLI call that publishes shared memory leaves its ``resource_tracker``
running for a moment after it exits. :func:`become_subreaper` makes
such orphans children of the benchmark, and :func:`reap_orphans` waits
for them.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path


#: ``prctl`` option: orphaned descendants are re-parented to this process
PR_SET_CHILD_SUBREAPER = 36

#: pids of live children started with ``subprocess`` that their owner
#: will wait for itself (the serve daemon); :func:`reap_orphans` skips them
OWNED: set[int] = set()


def become_subreaper() -> bool:
    """Adopt the orphans of this process's descendants (Linux only)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def own_children() -> list[int]:
    """Every child of this process (of any of its threads), zombies included."""
    out = []
    try:
        tasks = list(Path(f"/proc/{os.getpid()}/task").iterdir())
    except OSError:
        return out
    for task in tasks:
        try:
            out += [int(x) for x in (task / "children").read_text().split()]
        except OSError:
            pass
    return out


def _kept() -> set[int]:
    """Children that have an owner in this process who waits for them."""
    import multiprocessing
    from multiprocessing import resource_tracker

    keep = set(OWNED) | {p.pid for p in multiprocessing.active_children()}
    tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
    if tracker is not None:
        keep.add(tracker)
    return keep


def stop_resource_tracker() -> None:
    """Stop this process's ``resource_tracker`` child, if it started one."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        with contextlib.suppress(OSError):
            stop()


def reap_orphans(timeout: float = 30.0) -> None:
    """Wait for every child nobody else waits for; SIGKILL those left at ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        keep = _kept()
        pending = [p for p in own_children() if p not in keep]
        if not pending:
            return
        late = time.monotonic() > deadline
        for p in pending:
            if late:
                with contextlib.suppress(OSError):
                    os.kill(p, 9)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(p, 0 if late else os.WNOHANG)
        time.sleep(0.005)


def _children(pid: int) -> list[int]:
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except OSError:
        return []
    return [int(x) for x in text.split()]


def tree_pids(pid: int) -> list[int]:
    """``pid`` and every live descendant."""
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(_children(p))
    return out


def peak_rss_bytes(pid: int) -> int | None:
    """A live process's peak RSS so far, or None when it is gone."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024
    return None


class RssSampler:
    """Background thread summing the peak RSS of every process in a tree."""

    def __init__(self, pid: int, interval: float = 0.05) -> None:
        self.pid = pid
        self.interval = interval
        self.peaks: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        for p in tree_pids(self.pid):
            hwm = peak_rss_bytes(p)
            if hwm is not None:
                self.peaks[p] = max(self.peaks.get(p, 0), hwm)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(self.interval)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def peak_mb(self) -> float:
        return sum(self.peaks.values()) / 1e6


@dataclass
class CliResult:
    rc: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    peak_rss_mb: float


def program_env(root: Path, work: Path) -> dict:
    """Environment for a program child: the checkout's sources, private tmp."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(work / "tmp")
    env["MEMGAZE_CACHE_DIR"] = str(work / "default-cache")
    env.pop("MEMGAZE_SHM", None)
    env.pop("MEMGAZE_SERVE_WORKERS", None)
    return env


def run_cli(
    args: list[str], *, root: Path, work: Path, sample_rss: bool = False, timeout: float = 170.0
) -> CliResult:
    """Run ``python -m repro.cli ARGS`` to completion; time it from spawn to exit.

    ``sample_rss`` polls the process tree's peak RSS while it runs; it is
    off for calls whose memory is not reported, so they run unobserved.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=work,
        env=program_env(root, work),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    rss = RssSampler(proc.pid)
    with rss if sample_rss else contextlib.nullcontext():
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            kill_tree(proc)
            out, err = proc.communicate()
    wall = time.perf_counter() - t0
    reap_orphans()
    return CliResult(proc.returncode, out, err, wall, rss.peak_mb)


def kill_tree(proc: subprocess.Popen) -> None:
    """SIGKILL a child and its descendants, then reap the child."""
    for p in reversed(tree_pids(proc.pid)):
        try:
            os.kill(p, 9)
        except OSError:
            pass
    proc.wait()

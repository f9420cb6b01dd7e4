"""Child processes of the benchmark: spawn, handshake, account, reap.

Every child runs in its own session, so its whole tree (gateway server,
shard workers, multiprocessing's resource tracker) can be accounted for
and killed as one unit through ``/proc`` — ``RUSAGE_CHILDREN`` only
sees children that have already been waited for, which live shard
workers have not.  Every wait has a hard timeout: a hung child fails
the run instead of eating the time cap.

The benchmark process makes itself the *subreaper* of its descendants
(``become_subreaper``), so a helper orphaned by a killed server is
re-parented to the benchmark and waited for here instead of lingering
as a zombie under whatever runs as pid 1; ``reap_all`` on the way out
stops and waits for every process the run started, including the
``multiprocessing`` resource tracker the in-process layer replay
starts, which otherwise outlives the interpreter by a moment.
"""

from __future__ import annotations

import ctypes
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_SHM_DIR = Path("/dev/shm")
_LIBC = ctypes.CDLL(None, use_errno=True)
_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36

#: OpenBLAS would otherwise spin one thread per core in every process.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


class ChildError(RuntimeError):
    """A child process died, timed out or broke the line protocol."""


def child_env() -> dict:
    return {**os.environ, **THREAD_PINS, "PYTHONUNBUFFERED": "1"}


# ---------------------------------------------------------------------
# /proc readers
# ---------------------------------------------------------------------
def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` split after the ``(comm)`` field, so index 0
    is the state (field 3 of proc(5)); ``None`` once the pid is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    return text[text.rindex(")") + 2:].split()


def _all_stats() -> dict[int, list[str]]:
    stats = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields:
                stats[int(entry)] = fields
    return stats


def _tree_stats(session: int) -> dict[int, list[str]]:
    """pid -> stat fields of every live (non-zombie) process whose
    session id is ``session``."""
    return {pid: fields for pid, fields in _all_stats().items()
            if fields[0] != "Z" and int(fields[3]) == session}


def tree_pids(session: int) -> list[int]:
    return sorted(_tree_stats(session))


def tree_cpu_seconds(session: int) -> float:
    """utime + stime of every live process in the session, plus the
    cutime + cstime they inherited from children that already exited."""
    ticks = sum(int(fields[i]) for fields in _tree_stats(session).values()
                for i in (11, 12, 13, 14))
    return ticks / _CLK_TCK


def tree_rss_peak_mb(session: int) -> float:
    """Sum of ``VmHWM`` (peak resident set) over the session's tree."""
    total_kb = 0
    for pid in tree_pids(session):
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except (FileNotFoundError, ProcessLookupError):
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def self_cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


def shm_segments() -> set[str]:
    """Names of the ``multiprocessing.shared_memory`` segments that
    exist right now (what an unclean server exit can leak)."""
    if not _SHM_DIR.is_dir():
        return set()
    return {name for name in os.listdir(_SHM_DIR) if name.startswith("psm_")}


def reap_shm(before: set[str]) -> int:
    """Unlink segments that appeared since ``before``; returns how many
    had been left behind."""
    leaked = shm_segments() - before
    for name in leaked:
        try:
            (_SHM_DIR / name).unlink()
        except FileNotFoundError:
            pass
    return len(leaked)


# ---------------------------------------------------------------------
# Leaving nothing behind
# ---------------------------------------------------------------------
def become_subreaper() -> bool:
    """Have orphaned descendants re-parented to this process, so that
    ``reap_all`` (and ``Child.kill``) can wait for them."""
    return _LIBC.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0


def _die_with_parent() -> None:
    """``preexec_fn``: SIGKILL this child the moment the benchmark
    process dies, however it dies."""
    _LIBC.prctl(_PR_SET_PDEATHSIG, int(signal.SIGKILL), 0, 0, 0)


def own_children() -> dict[int, str]:
    """pid -> state of every process whose parent is this one."""
    me = os.getpid()
    return {pid: fields[0] for pid, fields in _all_stats().items()
            if int(fields[1]) == me}


def _reap(pids) -> None:
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass


def _stop_resource_tracker() -> None:
    """``multiprocessing``'s resource tracker (started in this process by
    the layer replay's rings and shard workers) exits only once its
    owner has: close its pipe and wait for it now instead."""
    module = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(module, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        try:
            stop()
        except OSError:
            pass


def reap_all(timeout_s: float = 10.0) -> int:
    """Stop and wait for every process this one still has as a child
    (with ``become_subreaper``: every descendant); returns how many had
    to be killed.  The last thing the benchmark does, on every path."""
    _stop_resource_tracker()
    killed: set[int] = set()
    give_up = time.monotonic() + timeout_s
    while time.monotonic() < give_up:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid:
            continue
        for pid, state in own_children().items():
            if state != "Z" and pid not in killed:
                killed.add(pid)
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)
    return len(killed)


# ---------------------------------------------------------------------
# One child
# ---------------------------------------------------------------------
class Child:
    """A benchmark child talking a line protocol on its stdout
    (``TAG payload`` lines); stderr passes through to ours."""

    def __init__(self, argv: list[str], lifetime_s: float,
                 cpus: set[int] | None = None):
        self.deadline = time.monotonic() + lifetime_s
        self._buffer = b""
        self.leftover = 0
        self.proc = subprocess.Popen(
            [sys.executable, *argv], stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL, env=child_env(),
            start_new_session=True, preexec_fn=_die_with_parent)
        self.session = self.proc.pid
        if cpus:
            # Before the child has started a thread or a worker, so the
            # whole tree inherits it.
            os.sched_setaffinity(self.proc.pid, cpus)

    def _remaining(self) -> float:
        return self.deadline - time.monotonic()

    def read_tagged(self, tag: str) -> str:
        """Block until a stdout line starting with ``tag`` arrives and
        return the rest of it; other lines are forwarded to stderr.
        Kills the child and raises on EOF or when its lifetime runs out."""
        fd = self.proc.stdout.fileno()
        prefix = tag.encode() + b" "
        while True:
            while b"\n" in self._buffer:
                line, self._buffer = self._buffer.split(b"\n", 1)
                if line.startswith(prefix):
                    return line[len(prefix):].decode()
                sys.stderr.write(line.decode(errors="replace") + "\n")
            remaining = self._remaining()
            if remaining <= 0:
                self.kill()
                raise ChildError(f"child timed out waiting for {tag!r}")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                code = self.wait()
                raise ChildError(
                    f"child exited with code {code} before sending {tag!r}")
            self._buffer += chunk

    def wait(self) -> int:
        """Wait for a clean exit within the child's lifetime (killing it
        otherwise).  Helpers of the child (shard workers, the resource
        tracker) get a moment to follow it; the ones that do not are
        counted in ``leftover`` and killed."""
        try:
            code = self.proc.wait(timeout=max(self._remaining(), 0.1))
        except subprocess.TimeoutExpired:
            self.kill()
            raise ChildError("child did not exit in time") from None
        self._await_empty_tree(2.0)
        self.leftover = len(tree_pids(self.session))
        self.kill()
        return code

    def kill(self) -> None:
        """SIGKILL the whole session, reap the child, and wait until no
        process of the tree is left (idempotent)."""
        try:
            os.killpg(self.session, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        if not self.proc.stdout.closed:
            self.proc.stdout.close()
        self._await_empty_tree(10.0)
        # Helpers the dead child orphaned are ours now (subreaper).
        me = os.getpid()
        _reap(pid for pid, fields in _all_stats().items()
              if int(fields[3]) == self.session and int(fields[1]) == me)

    def _await_empty_tree(self, timeout_s: float) -> None:
        give_up = time.monotonic() + timeout_s
        while tree_pids(self.session) and time.monotonic() < give_up:
            time.sleep(0.01)

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        self.kill()

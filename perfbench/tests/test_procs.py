import os
import subprocess
import sys
import time

import pytest

from perfbench import procs
from perfbench.tests.conftest import ROOT

SPIN_THEN_SLEEP = (
    "import time\n"
    "buffer = bytearray(40 * 1024 * 1024)\n"
    "end = time.process_time() + 0.3\n"
    "while time.process_time() < end: pass\n"
    "print('READY spun', flush=True)\n"
    "time.sleep(60)\n")


def test_tree_readers_see_a_spawned_childs_cpu_and_memory():
    with procs.Child(["-c", SPIN_THEN_SLEEP], lifetime_s=20) as child:
        assert child.read_tagged("READY") == "spun"
        assert child.proc.pid in procs.tree_pids(child.session)
        cpu = procs.tree_cpu_seconds(child.session)
        assert 0.25 <= cpu < 2.0
        assert procs.tree_rss_peak_mb(child.session) >= 40.0
    assert procs.tree_pids(child.session) == []
    assert procs.tree_cpu_seconds(child.session) == 0.0


def test_tree_includes_grandchildren_and_kill_reaps_them():
    script = (
        "import subprocess, sys, time\n"
        "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "print('READY 1', flush=True)\n"
        "time.sleep(60)\n")
    with procs.Child(["-c", script], lifetime_s=20) as child:
        child.read_tagged("READY")
        deadline = time.monotonic() + 5
        while len(procs.tree_pids(child.session)) < 2:
            assert time.monotonic() < deadline
            time.sleep(0.01)
    assert procs.tree_pids(child.session) == []


def test_a_hung_child_fails_instead_of_eating_the_time_cap():
    started = time.monotonic()
    child = procs.Child(["-c", "import time; time.sleep(60)"], lifetime_s=0.5)
    with pytest.raises(procs.ChildError, match="timed out"):
        child.read_tagged("READY")
    assert time.monotonic() - started < 5
    assert child.proc.poll() is not None


def test_a_child_that_dies_early_is_reported_with_its_exit_code():
    child = procs.Child(["-c", "import sys; sys.exit(3)"], lifetime_s=10)
    with pytest.raises(procs.ChildError, match="code 3"):
        child.read_tagged("READY")


def test_clean_exit_counts_helpers_that_outlive_the_child():
    script = (
        "import subprocess, sys\n"
        "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "print('READY 1', flush=True)\n")
    child = procs.Child(["-c", script], lifetime_s=20)
    child.read_tagged("READY")
    assert child.wait() == 0
    assert child.leftover == 1
    assert procs.tree_pids(child.session) == []


def test_children_are_pinned_when_asked():
    cpu = min(os.sched_getaffinity(0))
    script = "import os; print('READY', sorted(os.sched_getaffinity(0)), flush=True)"
    with procs.Child(["-c", script], lifetime_s=10, cpus={cpu}) as child:
        assert child.read_tagged("READY") == str([cpu])


def test_reap_shm_removes_only_new_segments():
    from multiprocessing import shared_memory
    before = procs.shm_segments()
    segment = shared_memory.SharedMemory(create=True, size=4096)
    try:
        assert segment.name.lstrip("/") in procs.shm_segments() - before
        assert procs.reap_shm(before) == 1
        assert procs.shm_segments() == before
    finally:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:
            pass


def test_reap_all_leaves_no_process_behind():
    # In a process of its own: reap_all waits for *every* child of its caller.
    script = (
        "import os, subprocess, sys\n"
        f"sys.path.insert(0, {str(ROOT)!r})\n"
        "from multiprocessing import shared_memory\n"
        "from perfbench import procs\n"
        "procs.become_subreaper()\n"
        "segment = shared_memory.SharedMemory(create=True, size=4096)\n"
        "segment.close(); segment.unlink()   # starts the resource tracker\n"
        "sleeper = 'import time; time.sleep(60)'\n"
        "orphaner = ('import subprocess, sys; subprocess.Popen([sys.executable, '\n"
        "            '\"-c\", %r], start_new_session=True)' % sleeper)\n"
        "subprocess.Popen([sys.executable, '-c', sleeper])\n"
        "subprocess.run([sys.executable, '-c', orphaner], check=True)\n"
        "before = len(procs.own_children())\n"
        "killed = procs.reap_all()\n"
        "print(before, killed, len(procs.own_children()))\n")
    done = subprocess.run([sys.executable, "-c", script], text=True,
                          stdout=subprocess.PIPE, timeout=30, check=True)
    # tracker + sleeper + re-parented orphan; the tracker stops unkilled.
    assert done.stdout.split() == ["3", "2", "0"]

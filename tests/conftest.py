"""Fixtures shared by the test modules.

``no_segment_leaks`` fails a test that leaves a ``repro_<pid>_…``
shared-memory segment behind.  It counts only segments this test run
can have made — created by this process, by one of its descendants
(pool workers, node agents), or by a process that is gone — so a pool
some other process on the machine is running meanwhile is not a leak
of this test.
"""

import os

import pytest

from repro.exec.shm import NAME_PREFIX


def _parent_pid(pid: int):
    """*pid*'s parent, or ``None`` when *pid* is not alive."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return None
    # The command name (field 2) may hold spaces; the parent pid is the
    # second field after its closing parenthesis.
    return int(stat.rsplit(")", 1)[1].split()[1])


def _ours(pid: int) -> bool:
    """Whether a segment *pid* created may be this process's leak: *pid*
    is this process, one of its descendants, or no longer alive (and
    without ``/proc`` every segment counts)."""
    me = os.getpid()
    if _parent_pid(pid) is None:
        return True
    while pid is not None and pid > 1:
        if pid == me:
            return True
        pid = _parent_pid(pid)
    return False


def own_segments():
    """This process's ``repro_<pid>_…`` segments in ``/dev/shm``, in
    the sense of :func:`_ours`, sorted."""
    try:
        names = os.listdir("/dev/shm")
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []
    own = []
    for name in names:
        parts = name.split("_")
        if (parts[0] == NAME_PREFIX and len(parts) > 2
                and parts[1].isdigit() and _ours(int(parts[1]))):
            own.append(name)
    return sorted(own)


@pytest.fixture
def no_segment_leaks():
    before = own_segments()
    yield
    assert own_segments() == before, "test leaked shared-memory segments"

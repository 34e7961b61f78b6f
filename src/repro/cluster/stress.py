"""Background-load generators.

:func:`disk_stressor` is a faithful transcription of the paper's
Figure 8 program::

    1. M = allocate(1 MBytes);
    2. Create a file named F;
    3. While(1)
    4.   If(size(F) > 2 GB)
    5.     Truncate F to zero byte;
    6.   Else
    7.     Synchronously append the data in M to the end of F;

The synchronous append guarantees every iteration touches the disk.  As
the paper measures, the stressor leaves the CPUs ~95 % idle, so it
perturbs only the I/O subsystem.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.params import GB, MiB

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

#: CPU time per iteration (memcpy of the 1 MB buffer + syscall overhead).
#: Tiny on purpose: the paper reports the stressed node's CPUs stay
#: nearly 95% idle.
_STRESSOR_CPU_PER_ITER = 2.5e-3
#: The stressor's file wraps to zero bytes past 2 GB.
_STRESSOR_LIMIT = 2 * GB
#: Its write size, and the page-cache stream its file is.
_STRESSOR_WRITE, _STRESSOR_STREAM = MiB, "stressor"
#: CPU slice a :func:`cpu_stressor` hog consumes at a time.
_HOG_SLICE = 0.1


def disk_stressor(node: "Node"):
    """Generator process implementing the Figure 8 disk stressor.

    :data:`_STRESSOR_WRITE` synchronous writes to one file, truncated
    to zero bytes past :data:`_STRESSOR_LIMIT`.  Run it with
    ``sim.process(disk_stressor(node))``; it loops forever (stop it by
    interrupting the process or ending the simulation).
    """
    offset = 0
    while True:
        yield node.cpu.consume(_STRESSOR_CPU_PER_ITER)
        if offset > _STRESSOR_LIMIT:
            offset = 0          # truncate F to zero bytes
            node.cache.invalidate(_STRESSOR_STREAM)
            continue
        yield node.disk.write(offset, _STRESSOR_WRITE,
                              stream=_STRESSOR_STREAM)
        offset += _STRESSOR_WRITE


def cpu_stressor(node: "Node", tasks: int = 1):
    """Generator process that keeps *tasks* CPU hogs running forever.

    Each hog burns :data:`_HOG_SLICE` CPU slices back to back.  Used by
    the resource-contention extension experiments (the paper's Section
    6 lists CPU/memory/network contention as future work).
    """
    def hog(node):
        while True:
            yield node.cpu.consume(_HOG_SLICE)

    for _ in range(tasks):
        node.sim.process(hog(node), daemon=True)
    # Keep this process alive as a handle.
    while True:
        yield node.sim.timeout(3600.0)


def network_stressor(src: "Node", dst: "Node"):
    """Generator process: a bulk transfer loop saturating the path from
    *src* to *dst* in 1 MiB messages (a neighbouring job moving data
    through the same NICs); the paper's Section 6 future-work axis."""
    while True:
        yield from src.network.transfer(src, dst, MiB)


def memory_stressor(node: "Node", fraction: float = 0.75):
    """Shrink *node*'s page cache, as a memory-hungry co-located job
    would (its anonymous pages evict cached file pages).

    Immediate (not a process): returns the number of cached pages
    dropped.  ``fraction`` is the share of the cache taken away.
    """
    if not 0 <= fraction <= 1:
        raise ValueError("fraction must be in [0, 1]")
    cache = node.cache
    new_capacity = int(cache.capacity_pages * (1 - fraction))
    dropped = 0
    while cache.cached_pages > new_capacity:
        cache._pages.popitem(last=False)
        dropped += 1
    cache.capacity_pages = new_capacity
    return dropped

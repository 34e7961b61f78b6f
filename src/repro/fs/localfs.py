"""Local (per-node) file system with page cache.

Models conventional I/O on a node's own IDE disk, the access scheme of
the original parallel BLAST: memory-mapped reads fault pages in
``readahead``-sized clusters (128 KB on Linux 2.4), writes are
synchronous appends/updates.

Reads consult the node's page cache: hit bytes cost memory bandwidth,
miss bytes cost disk requests at readahead granularity.  This is what
makes a warm second pass over a fragment nearly free — and what lets
the Figure 8 stressor (which bypasses its own cached data by synchronous
writing) destroy cold-read performance on the same spindle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.fs.interface import FileMeta, FileSystem, FSError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.trace.collector import TraceCollector


class LocalFS(FileSystem):
    """The file system on one node's local disk."""

    scheme = "local"

    def __init__(self, node: "Node", tracer: Optional["TraceCollector"] = None):
        super().__init__(tracer)
        self.node = node
        self.sim = node.sim

    # ------------------------------------------------------------------
    def create(self, client: "Node", path: str):
        """Create an empty *path* (instantaneous metadata; a file of
        pre-existing data, e.g. a copied-in database fragment, is
        :meth:`populate`'s)."""
        self._create_meta(path)
        return
        yield  # pragma: no cover - make this a generator

    def populate(self, path: str, size: int) -> FileMeta:
        """Non-timed helper: place a file of *size* bytes on disk
        (used to set up experiment preconditions)."""
        if self.exists(path):
            meta = self.lookup(path)
            meta.size = size
            return meta
        return self._create_meta(path, size)

    def open(self, client: "Node", path: str):
        """Open = a metadata lookup; negligible local cost."""
        meta = self.lookup(path)
        return meta
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    def read(self, client: "Node", path: str, offset: int, size: int):
        """Buffered/mmap read of ``[offset, offset+size)``."""
        meta = self.lookup(path)
        self._check_range(meta, offset, size)
        start = self.sim.now
        node = self.node
        mem = node.params.memory
        hit, miss = node.cache.lookup(path, offset, size)
        if hit:
            yield node.cpu.consume(hit / mem.cache_bandwidth)
        if miss:
            # Fault in the missing span at readahead granularity.  The
            # miss bytes are charged at the *tail* of the range so that
            # a sequential reader whose previous read already cached the
            # boundary page stays contiguous at the disk.
            chunk = mem.readahead
            remaining = miss
            pos = offset + hit
            while remaining > 0:
                length = min(chunk, remaining)
                yield node.disk.read(pos, length, stream=path)
                pos += length
                remaining -= length
            node.cache.insert(path, offset, size)
        self._trace(client, "read", path, size, start, self.sim.now)

    # ------------------------------------------------------------------
    def write(self, client: "Node", path: str, offset: int, size: int, sync: bool = True):
        """Write (synchronous by default, like BLAST's temp-result
        writes and the Figure 8 stressor)."""
        meta = self.lookup(path)
        if offset < 0 or size < 0:
            raise FSError(f"bad range offset={offset} size={size}")
        start = self.sim.now
        node = self.node
        if sync:
            yield node.disk.write(offset, size, stream=path)
        else:
            # Async write: dirty the cache; cost is a memory copy.
            yield node.cpu.consume(size / node.params.memory.cache_bandwidth)
        node.cache.insert(path, offset, size)
        meta.size = max(meta.size, offset + size)
        self._trace(client, "write", path, size, start, self.sim.now)

    # ------------------------------------------------------------------
    def truncate(self, client: "Node", path: str):
        meta = self.lookup(path)
        meta.size = 0
        self.node.cache.invalidate(path)
        return
        yield  # pragma: no cover

    def unlink(self, client: "Node", path: str):
        self._unlink_meta(path)
        self.node.cache.invalidate(path)
        return
        yield  # pragma: no cover

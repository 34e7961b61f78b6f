"""A single-server network file system (NFS-like).

mpiBLAST deployments of the paper's era staged the database on shared
NFS storage; each worker's first step was copying its fragments to the
local disk (the copy time the paper measures and subtracts).  This
model is one unstriped server: every byte flows through that node's
disk and NIC, which is exactly why concurrent copies serialise — and
why PVFS's striped bandwidth was worth building.

Implementation reuses :class:`repro.fs.dataserver.DataServer` with a
single server and identity layout (server-local offset == file offset).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.fs.dataserver import DataServer, ServerFailure
from repro.fs.interface import FileMeta, FileSystem, FSError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.trace.collector import TraceCollector

KiB = 1 << 10

#: NFS read/write transfer size (rsize/wsize of the era).
NFS_BLOCK = 32 * KiB
#: Bytes :meth:`NFSClient.copy_to_local` stages at a time.
_COPY_CHUNK = 1 << 20


class NFS(FileSystem):
    """One NFS server exporting a shared namespace."""

    scheme = "nfs"

    def __init__(self, server_node: "Node",
                 tracer: Optional["TraceCollector"] = None):
        super().__init__(tracer)
        self.sim = server_node.sim
        self.server = DataServer(self, server_node, 0, NFS_BLOCK)

    # ------------------------------------------------------------------
    def populate(self, path: str, size: int) -> FileMeta:
        if self.exists(path):
            meta = self.lookup(path)
            meta.size = size
            return meta
        return self._create_meta(path, size)

    def client(self, node: "Node") -> "NFSClient":
        return NFSClient(self, node)


class NFSClient:
    """A client mount of the shared file system."""

    def __init__(self, fs: NFS, node: "Node"):
        self.fs = fs
        self.node = node
        self.sim = fs.sim

    def read(self, path: str, offset: int, size: int):
        """Generator: remote read through the single server."""
        meta = self.fs.lookup(path)
        self.fs._check_range(meta, offset, size)
        start = self.sim.now
        if size > 0:
            try:
                yield self.sim.process(self.fs.server.serve_read(
                    self.node, path, [(0, offset, size)]))
            except ServerFailure as exc:
                raise FSError(f"nfs: server unavailable for {path!r}") from exc
        self.fs._trace(self.node, "read", path, size, start, self.sim.now)
        return size

    def write(self, path: str, offset: int, size: int):
        """Generator: remote write through the single server."""
        meta = self.fs.lookup(path)
        if offset < 0 or size < 0:
            raise FSError(f"bad range offset={offset} size={size}")
        start = self.sim.now
        if size > 0:
            try:
                yield self.sim.process(self.fs.server.serve_write(
                    self.node, path, [(0, offset, size)]))
            except ServerFailure as exc:
                raise FSError(f"nfs: server unavailable for {path!r}") from exc
        meta.size = max(meta.size, offset + size)
        self.fs._trace(self.node, "write", path, size, start, self.sim.now)
        return size

    def copy_to_local(self, local_fs, path: str):
        """Generator: stream *path* from NFS onto this node's local disk
        :data:`_COPY_CHUNK` bytes at a time — the original parallel
        BLAST's staging step.  Returns bytes copied."""
        meta = self.fs.lookup(path)
        local_fs.populate(path, 0)
        pos = 0
        while pos < meta.size:
            n = min(_COPY_CHUNK, meta.size - pos)
            yield from self.read(path, pos, n)
            yield from local_fs.write(self.node, path, pos, n)
            pos += n
        return meta.size

"""PVFS: a RAID-0 style parallel virtual file system.

Files are striped round-robin (64 KB stripes by default, per Section 3
of the paper) across N data servers ("iods"); a single metadata server
hands out layouts.  Clients read/write all involved servers in parallel
through TCP over Myrinet.  There is no redundancy: every byte lives on
exactly one server, which is why PVFS cannot route around the hot-spot
node in the paper's Figure 9 experiment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.sim import AllOf
from repro.fs.dataserver import DataServer, ServerFailure
from repro.fs.interface import FileMeta, FileSystem, FSError
from repro.fs.metadata import MetadataServer
from repro.fs.striping import StripeLayout

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.trace.collector import TraceCollector

KiB = 1 << 10


class PVFS(FileSystem):
    """One PVFS deployment: a metadata server + N data servers."""

    scheme = "pvfs"

    def __init__(self, mds_node: "Node", data_nodes: List["Node"],
                 stripe_size: int = 64 * KiB,
                 tracer: Optional["TraceCollector"] = None):
        if not data_nodes:
            raise ValueError("PVFS needs at least one data server")
        super().__init__(tracer)
        self.sim = mds_node.sim
        self.stripe_size = stripe_size
        self.mds = MetadataServer(self, mds_node)
        self.servers = [DataServer(self, node, i, stripe_size)
                        for i, node in enumerate(data_nodes)]
        self.layout = StripeLayout(len(data_nodes), stripe_size)

    # ------------------------------------------------------------------
    @property
    def n_servers(self) -> int:
        return len(self.servers)

    def populate(self, path: str, size: int) -> FileMeta:
        """Non-timed setup helper: a file of *size* bytes already striped
        across the data servers."""
        if self.exists(path):
            meta = self.lookup(path)
            meta.size = size
            return meta
        return self._create_meta(path, size)

    def client(self, node: "Node") -> "PVFSClient":
        return PVFSClient(self, node)


class PVFSClient:
    """The client library linked into an application process."""

    def __init__(self, fs: PVFS, node: "Node"):
        self.fs = fs
        self.node = node
        self.sim = fs.sim
        self._layouts: Dict[str, StripeLayout] = {}

    # ------------------------------------------------------------------
    def open(self, path: str):
        """Generator: metadata round trip fetching the stripe layout."""
        meta = self.fs.lookup(path)  # raises before paying any cost
        yield from self.fs.mds.rpc(self.node)
        self._layouts[path] = self.fs.layout
        return meta

    def create(self, path: str):
        """Generator: create an empty file (metadata op)."""
        meta = self.fs._create_meta(path)
        yield from self.fs.mds.rpc(self.node)
        self._layouts[path] = self.fs.layout
        return meta

    # ------------------------------------------------------------------
    def _ensure_open(self, path: str):
        if path not in self._layouts:
            yield from self.open(path)

    def read(self, path: str, offset: int, size: int):
        """Generator: parallel striped read.

        Dispatches one request per involved data server and completes
        when the slowest server has streamed its share.
        """
        meta = self.fs.lookup(path)
        self.fs._check_range(meta, offset, size)
        yield from self._ensure_open(path)
        start = self.sim.now
        if size > 0:
            per_server = self.fs.layout.extents(offset, size)
            procs = []
            for server, extents in zip(self.fs.servers, per_server):
                if not extents:
                    continue
                procs.append(self.sim.process(
                    server.serve_read(self.node, path, extents),
                    name=f"pvfs.read.s{server.index}"))
            try:
                if procs:
                    # AllOf fails fast on the first ServerFailure and
                    # cancels the sibling stripe reads, so the surviving
                    # servers stop streaming data nobody will consume.
                    served = yield AllOf(self.sim, procs)
                    self.sim.check.bytes_conserved(
                        "pvfs.read", path, size, sum(served))
            except ServerFailure as exc:
                # No redundancy: one dead server takes the whole file
                # system down (paper Section 1).
                raise FSError(
                    f"pvfs: data server {exc.index} failed; "
                    f"{path!r} is unavailable") from exc
            finally:
                for p in procs:  # belt and braces: no-op if finished
                    p.cancel()
        self.fs._trace(self.node, "read", path, size, start, self.sim.now)
        return size

    def write(self, path: str, offset: int, size: int, sync: bool = True):
        """Generator: parallel striped write."""
        meta = self.fs.lookup(path)
        if offset < 0 or size < 0:
            raise FSError(f"bad range offset={offset} size={size}")
        yield from self._ensure_open(path)
        start = self.sim.now
        if size > 0:
            per_server = self.fs.layout.extents(offset, size)
            procs = []
            for server, extents in zip(self.fs.servers, per_server):
                if not extents:
                    continue
                procs.append(self.sim.process(
                    server.serve_write(self.node, path, extents, sync=sync),
                    name=f"pvfs.write.s{server.index}"))
            try:
                if procs:
                    stored = yield AllOf(self.sim, procs)
                    self.sim.check.bytes_conserved(
                        "pvfs.write", path, size, sum(stored))
            except ServerFailure as exc:
                raise FSError(
                    f"pvfs: data server {exc.index} failed; "
                    f"{path!r} is unavailable") from exc
            finally:
                for p in procs:
                    p.cancel()
        meta.size = max(meta.size, offset + size)
        self.fs._trace(self.node, "write", path, size, start, self.sim.now)
        return size

    def truncate(self, path: str):
        """Generator: truncate a file to zero bytes (metadata op;
        servers drop their stripes lazily)."""
        meta = self.fs.lookup(path)
        yield from self.fs.mds.rpc(self.node)
        meta.size = 0
        for server in self.fs.servers:
            server.node.cache.invalidate(f"{path}#s{server.index}")
        return meta

    def unlink(self, path: str):
        """Generator: remove a file from the namespace."""
        self.fs.lookup(path)
        yield from self.fs.mds.rpc(self.node)
        self.fs._unlink_meta(path)
        self._layouts.pop(path, None)
        for server in self.fs.servers:
            server.node.cache.invalidate(f"{path}#s{server.index}")

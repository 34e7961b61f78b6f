"""Data-server request service shared by PVFS I/O daemons and CEFT-PVFS
storage servers.

A read of a per-server extent is a two-stage pipeline: the disk is read
in stripe-unit chunks into a bounded buffer while previously-read chunks
stream to the client over TCP.  Disk time and wire time therefore
overlap, as they do in the real servers.  The *disk request granularity*
is the stripe unit (64 KB) — the detail that, under the Figure 8
stressor, makes striped reads starve harder than the original BLAST's
128 KB readahead clusters (see :mod:`repro.cluster.disk`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Tuple

from repro.sim import AllOf, Simulator, Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.fs.interface import FileSystem

#: Size of a read/write request message on the wire.
REQUEST_SIZE = 256
#: Size of a reply/ack message.
ACK_SIZE = 64
#: Server CPU time to parse and set up one request.
REQUEST_CPU = 100e-6
#: Stripe units buffered between disk and network stages.
PIPELINE_DEPTH = 4
#: How long a client waits on a dead server before declaring it failed.
RPC_TIMEOUT = 2.0


class ServerFailure(Exception):
    """A data server did not respond (crashed node).

    Carries the (server index, path) so redundancy-aware callers
    (CEFT-PVFS) can reroute; PVFS has no second copy and must surface
    the error to the application — "the failure of any single cluster
    node renders the entire file system service unavailable" (paper
    Section 1).
    """

    def __init__(self, index: int, path: str = ""):
        super().__init__(f"data server {index} failed (path {path!r})")
        self.index = index
        self.path = path


class DataServer:
    """One storage server process (PVFS "iod" or CEFT data server)."""

    def __init__(self, fs: "FileSystem", node: "Node", index: int,
                 unit_size: int, use_cache: bool = True):
        self.fs = fs
        self.node = node
        self.index = index
        self.unit_size = int(unit_size)
        self.use_cache = use_cache
        self.sim: Simulator = node.sim
        self.alive = True
        self.bytes_served = 0
        self.bytes_stored = 0
        self.requests_served = 0

    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Crash the server (requests time out until :meth:`recover`)."""
        self.alive = False

    def recover(self) -> None:
        """Bring the server process back (its data must be resynced by
        the file-system layer before it serves reads again)."""
        self.alive = True

    def _check_alive(self, path: str):
        """Generator: model the client-side RPC timeout on a dead server."""
        if not self.alive:
            from repro.sim import Timeout

            yield Timeout(self.sim, RPC_TIMEOUT)
            raise ServerFailure(self.index, path)

    # ------------------------------------------------------------------
    def _stream_id(self, path: str) -> str:
        # One sequential-detection stream per (file, server): successive
        # extent reads of the same file on this server are contiguous.
        return f"{path}#s{self.index}"

    def _units(self, extents: Iterable[Tuple[int, int, int]]):
        """Chop per-server extents into stripe-unit disk requests."""
        for _server, soff, length in extents:
            pos = soff
            end = soff + length
            while pos < end:
                size = min(self.unit_size, end - pos)
                yield pos, size
                pos += size

    # ------------------------------------------------------------------
    def serve_read(self, client: "Node", path: str,
                   extents: List[Tuple[int, int, int]]):
        """Process: handle one read request from *client*.

        Wire protocol: request message in, then the extent data streamed
        back chunk by chunk.  Returns total bytes served.
        """
        net = self.node.network
        yield from self._check_alive(path)
        # Request message travels client -> server, then server CPU.
        yield from net.transfer(client, self.node, REQUEST_SIZE)
        yield self.node.cpu.consume(REQUEST_CPU)

        total = sum(e[2] for e in extents)
        if total == 0:
            yield from net.transfer(self.node, client, ACK_SIZE)
            return 0

        buf = Store(self.sim, capacity=PIPELINE_DEPTH)
        stream = self._stream_id(path)
        mem = self.node.params.memory

        def reader():
            page = mem.page_size
            cache = self.node.cache
            for pos, size in self._units(extents):
                if self.use_cache:
                    hit, miss = cache.lookup(stream, pos, size)
                else:
                    hit, miss = 0, size
                if miss == 0:
                    yield self.node.cpu.consume(hit / mem.cache_bandwidth)
                else:
                    # Disk I/O is page-granular (the OS fetches whole
                    # pages), but never re-reads cached leading pages:
                    # start at the first missing page so sequential
                    # streams stay contiguous at the disk.
                    first_page = pos // page
                    last_page = (pos + size - 1) // page
                    if self.use_cache:
                        while (first_page <= last_page and cache.contains(
                                stream, first_page * page, 1)):
                            first_page += 1
                    lo = first_page * page
                    hi = (last_page + 1) * page
                    yield self.node.disk.read(lo, hi - lo, stream=stream)
                    if self.use_cache:
                        cache.insert(stream, lo, hi - lo)
                yield buf.put(size)
            yield buf.put(None)

        def sender():
            sent = 0
            while True:
                item = yield buf.get()
                if item is None:
                    return sent
                yield from net.transfer(self.node, client, item)
                sent += item

        rp = self.sim.process(reader(), name=f"iod{self.index}.read")
        sp = self.sim.process(sender(), name=f"iod{self.index}.send")
        try:
            yield AllOf(self.sim, [rp, sp])
        finally:
            # If this request is abandoned (client cancelled, sibling
            # server failed), reap both pipeline stages so no reader
            # keeps issuing disk requests for a dead transfer.  No-op
            # on the normal path: both have finished.
            rp.cancel()
            sp.cancel()
        self.bytes_served += total
        self.requests_served += 1
        return total

    # ------------------------------------------------------------------
    def serve_write(self, client: "Node", path: str,
                    extents: List[Tuple[int, int, int]], sync: bool = True):
        """Process: handle one write request from *client*.

        The client streams data in; the server writes it out in stripe
        units (synchronously unless *sync* is false) and finally acks.
        """
        net = self.node.network
        yield from self._check_alive(path)
        yield from net.transfer(client, self.node, REQUEST_SIZE)
        yield self.node.cpu.consume(REQUEST_CPU)
        total = sum(e[2] for e in extents)
        stream = self._stream_id(path)
        mem = self.node.params.memory
        for pos, size in self._units(extents):
            yield from net.transfer(client, self.node, size)
            if sync:
                yield self.node.disk.write(pos, size, stream=stream)
            else:
                yield self.node.cpu.consume(size / mem.cache_bandwidth)
            if self.use_cache:
                self.node.cache.insert(stream, pos, size)
        yield from net.transfer(self.node, client, ACK_SIZE)
        self.bytes_stored += total
        self.requests_served += 1
        return total

    # ------------------------------------------------------------------
    def store_local(self, client: "Node", path: str,
                    extents: List[Tuple[int, int, int]]):
        """Process: write extent data that is *already on this node*
        (server-to-server mirroring forwards use this with the data
        source being the primary server)."""
        stream = self._stream_id(path)
        for pos, size in self._units(extents):
            yield self.node.disk.write(pos, size, stream=stream)
            if self.use_cache:
                self.node.cache.insert(stream, pos, size)
        return sum(e[2] for e in extents)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<DataServer {self.index} on {self.node.name}>"

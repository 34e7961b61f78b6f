"""CEFT-PVFS: a cost-effective, fault-tolerant (RAID-10) parallel
virtual file system.

Extends PVFS with a mirror group: data is striped across a *primary*
group of G servers and duplicated onto a *mirror* group of G servers
(Section 3 of the paper; details in the authors' companion papers
[5][6][7]).  Two read optimisations are reproduced:

1. **Doubled parallelism** (Section 4.4, ref [6]): when the data is
   resident on both groups, a read fetches its first half from one group
   and its second half from the other, involving all 2G servers.
2. **Hot-spot skipping** (Section 4.5): the metadata server periodically
   collects disk-utilisation from every data server; clients reroute
   stripe units whose home server is flagged hot to the mirror of that
   server.  This works for multi-node hot spots as long as no mirroring
   *pair* is entirely hot.

Write duplexing supports the four protocols studied in the companion
scheduling paper (ref [7]).
"""

from __future__ import annotations

import enum
import statistics
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.sim import AllOf, Timeout
from repro.fs.dataserver import DataServer, ServerFailure
from repro.fs.interface import FileMeta, FileSystem, FSError
from repro.fs.metadata import MetadataServer
from repro.fs.striping import StripeLayout

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.trace.collector import TraceCollector

KiB = 1 << 10

PRIMARY = 0
MIRROR = 1

#: Extra client CPU per striped operation: CEFT's client library does
#: more bookkeeping (two groups, residency, hot set) than PVFS's.
CLIENT_SCHED_CPU = 200e-6
#: Heartbeat request/response sizes for load collection.
HB_SIZE = 64
#: The load collector flags a server hot above this disk utilisation
#: *and* this many times the median of the others, and clears the flag
#: below the third (hysteresis).
HOT_THRESHOLD, HOT_FACTOR, CLEAR_THRESHOLD = 0.85, 2.0, 0.5
#: Notification message pushed to each client when the hot set changes.
NOTIFY_SIZE = 128
#: Failover bound: a read range is re-issued at most this many times
#: before the client gives up.  One round reaches the mirror of every
#: failed pair; the second absorbs a mirror dying mid-failover; a third
#: round would mean both copies of some pair vanished, which the
#: residency checks already turn into an :class:`FSError`.
MAX_RETRY_ROUNDS = 3


class WriteProtocol(enum.Enum):
    """Duplexing protocols from the companion paper (ref [7])."""

    #: Client writes primaries; each primary forwards to its mirror;
    #: ack after both copies are on disk.
    SERVER_SYNC = "server-sync"
    #: Ack after the primary copy; forwarding happens in the background.
    SERVER_ASYNC = "server-async"
    #: Client writes both groups itself; ack after both.
    CLIENT_SYNC = "client-sync"
    #: Client writes both groups; ack after the primary group only.
    CLIENT_ASYNC = "client-async"


class _CEFTFile(FileMeta):
    """File metadata plus per-group residency."""

    __slots__ = ("resident",)

    def __init__(self, path: str, size: int = 0, mirrored: bool = True):
        super().__init__(path, size)
        #: Whether each group holds a complete, current copy.
        self.resident = {PRIMARY: True, MIRROR: bool(mirrored)}

    @property
    def mirrored(self) -> bool:
        """True when both groups hold a current copy."""
        return self.resident[PRIMARY] and self.resident[MIRROR]

    @mirrored.setter
    def mirrored(self, value: bool) -> None:
        self.resident[MIRROR] = bool(value)
        if value:
            self.resident[PRIMARY] = True


class LoadCollector:
    """The metadata server's periodic load-collection duty.

    Every ``period`` seconds it polls each data server's disk
    utilisation and recomputes the hot set: servers whose utilisation
    exceeds :data:`HOT_THRESHOLD` *and* :data:`HOT_FACTOR` times the
    cluster median.  Hysteresis: a flagged server is cleared only when
    its utilisation drops below :data:`CLEAR_THRESHOLD`.
    """

    def __init__(self, fs: "CEFT", period: float = 5.0):
        self.fs = fs
        self.period = period
        self.enabled = True
        self.samples = 0
        #: Hot flags as (group, index) pairs.
        self.hot: Set[Tuple[int, int]] = set()

    def stop(self) -> None:
        self.enabled = False

    def recompute_hot(self, utils: Dict[Tuple[int, int], float]
                      ) -> Set[Tuple[int, int]]:
        """Apply one round of samples; returns the new hot set.

        A server is compared against the median utilisation of the
        *other* servers: including the candidate itself would let a
        single hot server drag the median up and mask its own spike —
        with four servers (group_size=2) one server at 90% pushes the
        median past ``util / HOT_FACTOR`` and is never flagged.
        """
        new_hot = set(self.hot)
        for key, util in utils.items():
            if key in new_hot:
                if util < CLEAR_THRESHOLD:
                    new_hot.discard(key)
                continue
            others = [u for k, u in utils.items() if k != key]
            baseline = statistics.median(others) if others else 0.0
            if util > HOT_THRESHOLD and util > HOT_FACTOR * baseline:
                new_hot.add(key)
        return new_hot

    def run(self):
        """Simulation process (spawned by :class:`CEFT`)."""
        fs = self.fs
        mds = fs.mds.node
        net = mds.network
        all_servers = [(PRIMARY, s) for s in fs.primary] + [(MIRROR, s) for s in fs.mirror]
        while self.enabled:
            yield Timeout(fs.sim, self.period)
            if not self.enabled:
                return
            utils = {}
            for group, server in all_servers:
                if not server.alive:
                    # Heartbeat unanswered: declare the server failed so
                    # clients stop routing to it before timing out.
                    if not fs.is_failed(group, server.index):
                        fs.mark_failed(group, server.index)
                        for client in fs.clients:
                            yield from net.transfer(mds, client.node,
                                                    NOTIFY_SIZE)
                    continue
                yield from net.transfer(mds, server.node, HB_SIZE)
                util = server.node.disk.sample_utilization()
                yield from net.transfer(server.node, mds, HB_SIZE)
                utils[(group, server.index)] = util
            if not utils:
                continue
            self.samples += 1
            new_hot = self.recompute_hot(utils)
            if new_hot != self.hot:
                self.hot = new_hot
                for client in fs.clients:
                    yield from net.transfer(mds, client.node, NOTIFY_SIZE)


class CEFT(FileSystem):
    """One CEFT-PVFS deployment."""

    scheme = "ceft-pvfs"

    def __init__(self, mds_node: "Node", primary_nodes: List["Node"],
                 mirror_nodes: List["Node"], stripe_size: int = 64 * KiB,
                 tracer: Optional["TraceCollector"] = None,
                 protocol: WriteProtocol = WriteProtocol.CLIENT_ASYNC,
                 double_parallelism: bool = True,
                 skip_hot: bool = True,
                 load_period: float = 5.0,
                 monitor_load: bool = True):
        if not primary_nodes:
            raise ValueError("CEFT needs at least one primary server")
        if len(primary_nodes) != len(mirror_nodes):
            raise ValueError("primary and mirror groups must be the same size")
        super().__init__(tracer)
        self.sim = mds_node.sim
        self.stripe_size = stripe_size
        # CEFT metadata is a bit heavier than PVFS's (two layouts plus
        # residency and load state) — the cause of the slight deficit
        # the paper sees in Figure 7.
        self.mds = MetadataServer(self, mds_node, reply_size=768, op_cpu=70e-6)
        self.primary = [DataServer(self, n, i, stripe_size)
                        for i, n in enumerate(primary_nodes)]
        self.mirror = [DataServer(self, n, i, stripe_size)
                       for i, n in enumerate(mirror_nodes)]
        self.layout = StripeLayout(len(primary_nodes), stripe_size)
        self.protocol = protocol
        self.double_parallelism = double_parallelism
        self.skip_hot = skip_hot
        self.failed_servers: Set[Tuple[int, int]] = set()
        self.clients: List["CEFTClient"] = []
        self.collector = LoadCollector(self, period=load_period)
        self._collector_proc = None
        if monitor_load:
            self._collector_proc = self.sim.process(
                self.collector.run(), name="ceft.loadcollector", daemon=True)

    # ------------------------------------------------------------------
    @property
    def group_size(self) -> int:
        return len(self.primary)

    @property
    def n_servers(self) -> int:
        return 2 * len(self.primary)

    def stop_monitoring(self) -> None:
        self.collector.stop()

    def group(self, which: int) -> List[DataServer]:
        return self.primary if which == PRIMARY else self.mirror

    def is_hot(self, group: int, index: int) -> bool:
        return (group, index) in self.collector.hot

    # ------------------------------------------------------------------
    # Fault tolerance
    # ------------------------------------------------------------------
    def mark_failed(self, group: int, index: int) -> None:
        self.failed_servers.add((group, index))

    def is_failed(self, group: int, index: int) -> bool:
        return (group, index) in self.failed_servers

    def fail_server(self, group: int, index: int) -> None:
        """Crash one data server (failure injection)."""
        self.group(group)[index].fail()

    def _avoid(self, group: int, index: int) -> bool:
        """Should routing avoid this server (hot or known-failed)?"""
        return self.is_failed(group, index) or (
            self.skip_hot and self.is_hot(group, index))

    def resync(self, group: int, index: int):
        """Process: recover a failed server by copying its share of
        every file back from the mirror of the pair.

        This is the RAID-10 rebuild of the companion papers: the pair's
        healthy server streams the recovering server's local data over
        the network, and the recovering server writes it to disk.
        Returns the number of bytes resynced.
        """
        target = self.group(group)[index]
        other = MIRROR if group == PRIMARY else PRIMARY
        source = self.group(other)[index]
        if not source.alive or self.is_failed(other, index):
            raise FSError("cannot resync: the pair's other copy is down")
        target.recover()
        total = 0
        net = target.node.network
        for path in self.list_files():
            meta = self.lookup(path)
            if not meta.resident[other]:
                continue
            nbytes = self.layout.local_size(meta.size, index)
            if nbytes == 0:
                continue
            yield from net.transfer(source.node, target.node, nbytes)
            yield self.sim.process(target.store_local(
                target.node, path, [(index, 0, nbytes)]))
            total += nbytes
        self.failed_servers.discard((group, index))
        # Every mirrored file is whole again on this group.
        return total

    # ------------------------------------------------------------------
    def _new_meta(self, path: str, size: int = 0,
                  mirrored: bool = True) -> _CEFTFile:
        return _CEFTFile(path, size, mirrored)

    def populate(self, path: str, size: int, mirrored: bool = True) -> _CEFTFile:
        if self.exists(path):
            meta = self.lookup(path)
            meta.size = size
            meta.mirrored = mirrored
            return meta
        return self._create_meta(path, size, mirrored=mirrored)

    def client(self, node: "Node") -> "CEFTClient":
        c = CEFTClient(self, node)
        self.clients.append(c)
        return c


class CEFTClient:
    """Client library for CEFT-PVFS."""

    def __init__(self, fs: CEFT, node: "Node"):
        self.fs = fs
        self.node = node
        self.sim = fs.sim
        self._opened: Set[str] = set()

    # ------------------------------------------------------------------
    def open(self, path: str):
        meta = self.fs.lookup(path)
        yield from self.fs.mds.rpc(self.node)
        self._opened.add(path)
        return meta

    def create(self, path: str, size: int = 0, mirrored: bool = False):
        # Same check-then-create helper as PVFS: a duplicate create
        # raises before the metadata RPC is paid, on both schemes.
        meta = self.fs._create_meta(path, size, mirrored=mirrored)
        yield from self.fs.mds.rpc(self.node)
        self._opened.add(path)
        return meta

    def _ensure_open(self, path: str):
        if path not in self._opened:
            yield from self.open(path)

    # ------------------------------------------------------------------
    # Read scheduling
    # ------------------------------------------------------------------
    def _route(self, meta: _CEFTFile, offset: int, size: int
               ) -> Dict[Tuple[int, int], List[Tuple[int, int, int]]]:
        """Assign each stripe unit of the range to a (group, server).

        Implements doubled parallelism (first half from one group,
        second half from the other) and hot-spot skipping (a unit whose
        home server is hot is reread from the mirror of the pair, unless
        that one is hot too).  Returns merged extents per (group, index).
        """
        fs = self.fs
        layout = fs.layout
        use_both = fs.double_parallelism and meta.mirrored
        if use_both:
            # Split at a stripe-aligned midpoint.
            mid = offset + size // 2
            mid -= mid % layout.stripe_size
            mid = min(max(mid, offset), offset + size)
        elif meta.resident[PRIMARY]:
            mid = offset + size  # everything from the primary group
        elif meta.resident[MIRROR]:
            mid = offset        # everything from the mirror group
        else:
            raise FSError(f"{meta.path!r}: no current copy in either group")

        routed: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}
        for server, soff, length, fpos in layout.units(offset, size):
            group = PRIMARY if fpos < mid else MIRROR
            other = MIRROR if group == PRIMARY else PRIMARY
            # Reroute away from hot or failed servers when the pair's
            # other copy is usable.
            if (fs._avoid(group, server) and meta.resident[other]
                    and not fs._avoid(other, server)):
                group = other
            key = (group, server)
            bucket = routed.setdefault(key, [])
            if bucket and bucket[-1][1] + bucket[-1][2] == soff:
                last = bucket[-1]
                bucket[-1] = (server, last[1], last[2] + length)
            else:
                bucket.append((server, soff, length))
        return routed

    def read(self, path: str, offset: int, size: int):
        """Generator: parallel mirrored read with failover.

        If a data server dies mid-read (RPC timeout), the client reports
        it to the metadata state and re-issues that server's extents to
        the mirror of the pair — the fault-tolerance mechanism PVFS
        lacks.  Only if *both* copies of a pair are unavailable does the
        read fail.
        """
        meta = self.fs.lookup(path)
        self.fs._check_range(meta, offset, size)
        yield from self._ensure_open(path)
        start = self.sim.now
        if size > 0:
            yield self.node.cpu.consume(CLIENT_SCHED_CPU)
            pending = self._route(meta, offset, size)
            rounds = 0
            served = 0
            while pending:
                rounds += 1
                if rounds > MAX_RETRY_ROUNDS:
                    raise FSError(
                        f"read of {path!r} still failing after "
                        f"{MAX_RETRY_ROUNDS} failover rounds")
                procs = {
                    key: self.sim.process(
                        self.fs.group(key[0])[key[1]].serve_read(
                            self.node, path, extents),
                        name=f"ceft.read.g{key[0]}s{key[1]}")
                    for key, extents in pending.items()
                }
                retry: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}
                try:
                    for key, proc in procs.items():
                        try:
                            served += yield proc
                        except ServerFailure:
                            group, index = key
                            self.fs.mark_failed(group, index)
                            other = MIRROR if group == PRIMARY else PRIMARY
                            if (not meta.resident[other]
                                    or self.fs.is_failed(other, index)
                                    or not self.fs.group(other)[index].alive):
                                raise FSError(
                                    f"pair {index}: both copies unavailable "
                                    f"for {path!r}")
                            retry.setdefault((other, index), []).extend(
                                pending[key])
                finally:
                    # Fatal exit (both copies gone, retry bound hit, or
                    # this client cancelled): reap the per-server reads
                    # still streaming, so the failure leaves no orphan
                    # pinning disk and NIC time.  No-op when the round
                    # completed: every proc has finished.
                    for proc in procs.values():
                        proc.cancel()
                pending = retry
            # A server failure is all-or-nothing per request (extents
            # that failed were re-issued whole), so completed requests
            # must add up to exactly the range read.
            self.sim.check.bytes_conserved("ceft.read", path, size, served)
        self.fs._trace(self.node, "read", path, size, start, self.sim.now)
        return size

    # ------------------------------------------------------------------
    # Write duplexing
    # ------------------------------------------------------------------
    def write(self, path: str, offset: int, size: int):
        """Generator: duplexed write per the configured protocol."""
        meta = self.fs.lookup(path)
        if offset < 0 or size < 0:
            raise FSError(f"bad range offset={offset} size={size}")
        yield from self._ensure_open(path)
        start = self.sim.now
        fs = self.fs
        proto = fs.protocol
        if size > 0:
            yield self.node.cpu.consume(CLIENT_SCHED_CPU)
            per_server = fs.layout.extents(offset, size)

            def group_writes(group: int):
                procs = []
                for server, extents in zip(fs.group(group), per_server):
                    if not extents:
                        continue
                    procs.append((group, server.index, self.sim.process(
                        server.serve_write(self.node, path, extents),
                        name=f"ceft.write.g{group}s{server.index}")))
                return procs

            def forward(pserver: DataServer, mserver: DataServer, extents):
                """Primary streams its share to the mirror, which stores it."""
                total = sum(e[2] for e in extents)
                yield from pserver.node.network.transfer(
                    pserver.node, mserver.node, total)
                yield self.sim.process(
                    mserver.store_local(self.node, path, extents))

            def wait_group(tagged):
                """Wait all of a group's procs; returns (all succeeded,
                bytes stored by the ones that did)."""
                ok, stored = True, 0
                for group, index, proc in tagged:
                    try:
                        stored += yield proc
                    except ServerFailure:
                        fs.mark_failed(group, index)
                        ok = False
                return ok, stored

            check = self.sim.check
            if proto in (WriteProtocol.CLIENT_SYNC, WriteProtocol.CLIENT_ASYNC):
                pprocs = group_writes(PRIMARY)
                mprocs = group_writes(MIRROR)
                p_ok, p_stored = yield from wait_group(pprocs)
                if p_ok:
                    check.bytes_conserved("ceft.write.primary", path,
                                          size, p_stored)
                if proto is WriteProtocol.CLIENT_SYNC or not p_ok:
                    m_ok, m_stored = yield from wait_group(mprocs)
                    if m_ok:
                        check.bytes_conserved("ceft.write.mirror", path,
                                              size, m_stored)
                else:
                    m_ok = True  # mirror completes in the background
                if not p_ok and not m_ok:
                    raise FSError(f"write to {path!r} lost both copies")
                if not p_ok:
                    meta.resident[PRIMARY] = False
                if not m_ok:
                    meta.resident[MIRROR] = False
            else:
                pprocs = group_writes(PRIMARY)
                p_ok, p_stored = yield from wait_group(pprocs)
                if p_ok:
                    check.bytes_conserved("ceft.write.primary", path,
                                          size, p_stored)
                if not p_ok:
                    # Server-push protocols route everything through the
                    # primaries; a dead primary fails the write.
                    raise FSError(f"write to {path!r}: primary server down")
                fprocs = [
                    self.sim.process(forward(fs.primary[i], fs.mirror[i], extents))
                    for i, extents in enumerate(per_server) if extents
                ]
                if proto is WriteProtocol.SERVER_SYNC:
                    yield AllOf(self.sim, fprocs)
        meta.size = max(meta.size, offset + size)
        fs._trace(self.node, "write", path, size, start, self.sim.now)
        return size

    def truncate(self, path: str):
        """Generator: truncate to zero bytes (metadata op, both groups
        affected)."""
        meta = self.fs.lookup(path)
        yield from self.fs.mds.rpc(self.node)
        meta.size = 0
        for group in (self.fs.primary, self.fs.mirror):
            for server in group:
                server.node.cache.invalidate(f"{path}#s{server.index}")
        return meta

    def unlink(self, path: str):
        """Generator: remove a file from both groups' namespace."""
        self.fs.lookup(path)
        yield from self.fs.mds.rpc(self.node)
        self.fs._unlink_meta(path)
        self._opened.discard(path)
        for group in (self.fs.primary, self.fs.mirror):
            for server in group:
                server.node.cache.invalidate(f"{path}#s{server.index}")

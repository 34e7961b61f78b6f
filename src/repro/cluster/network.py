"""Myrinet/TCP network model.

Each node owns a full-duplex :class:`NIC`: an independent transmit and
receive channel, each serialising traffic at the effective TCP bandwidth
(Netperf: ~112 MB/s on the paper's 2 Gb/s Myrinet).  The switch itself
is non-blocking (Myrinet crossbar), so the only shared contention points
are the endpoint NICs.

Transfers are chopped into ``segment_size`` chunks so that concurrent
flows through the same NIC direction interleave fairly, approximating
TCP's per-flow fair share.  Endpoint CPU cost of the TCP stack is
charged to both nodes' CPUs — this is the "additional TCP/IP layer"
overhead that makes over-PVFS *slower* than local disk at one worker
(paper Figure 5).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.sim import Resource, Simulator, TimeWeightedMonitor, Timeout
from repro.cluster.params import NetworkParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node


class NIC:
    """One node's network interface: a tx channel and an rx channel."""

    def __init__(self, sim: Simulator, params: NetworkParams, name: str = "nic"):
        self.sim = sim
        self.params = params
        self.name = name
        self.tx = Resource(sim, capacity=1, name=f"{name}.tx")
        self.rx = Resource(sim, capacity=1, name=f"{name}.rx")
        self.bytes_sent = 0
        self.bytes_received = 0
        self.tx_busy = TimeWeightedMonitor(sim, name=f"{name}.tx_busy")
        self.rx_busy = TimeWeightedMonitor(sim, name=f"{name}.rx_busy")
        sim.check.register(self)

    # ------------------------------------------------------------------
    # Invariant hooks (see repro.sim.check); the tx/rx channel Resources
    # register themselves, so only the NIC-level stats need checking.
    # ------------------------------------------------------------------
    def invariant_errors(self, strict: bool) -> list:
        errs = []
        if strict and (self.bytes_sent < 0 or self.bytes_received < 0):
            errs.append(f"nic {self.name!r}: negative byte counters")
        return errs

    def drain_errors(self) -> list:
        errs = []
        if self.tx_busy.level != 0 or self.rx_busy.level != 0:
            errs.append(f"nic {self.name!r}: channel busy at drain "
                        f"(tx={self.tx_busy.level} rx={self.rx_busy.level})")
        return errs


class Network:
    """The cluster interconnect."""

    def __init__(self, sim: Simulator, params: Optional[NetworkParams] = None):
        self.sim = sim
        self.params = params or NetworkParams()
        self._nics: Dict[str, NIC] = {}
        self.messages_delivered = 0
        self.bytes_delivered = 0

    # ------------------------------------------------------------------
    def attach(self, node: "Node") -> NIC:
        """Create and register the NIC for *node*."""
        if node.name in self._nics:
            raise ValueError(f"node {node.name!r} already attached")
        nic = NIC(self.sim, self.params, name=f"{node.name}.nic")
        self._nics[node.name] = nic
        return nic

    def nic(self, node_name: str) -> NIC:
        return self._nics[node_name]

    # ------------------------------------------------------------------
    def transfer(self, src: "Node", dst: "Node", size: int):
        """Generator: move *size* bytes from *src* to *dst*.

        Completes when the last byte is delivered.  Local transfers
        (``src is dst``) cost only the stack CPU time.
        """
        p = self.params
        if size < 0:
            raise ValueError("size must be >= 0")
        cpu_cost = p.per_message_cpu + size * p.per_byte_cpu
        # TCP stack work on both endpoints; overlapped with transfer on
        # the wire, so charge it first (send side) and last (receive
        # side) without double-counting wall time.
        yield src.cpu.consume(cpu_cost)
        if src is dst and size > 0:
            # Loopback: no wire, but the stack still moves the bytes.
            yield src.cpu.consume(size / p.loopback_bandwidth)
        if src is not dst and size > 0:
            snic, dnic = self._nics[src.name], self._nics[dst.name]
            remaining = size
            first = True
            txreq = rxreq = None
            try:
                while remaining > 0:
                    seg = min(remaining, p.segment_size)
                    txreq = snic.tx.request()
                    yield txreq
                    snic.tx_busy.set(1)
                    rxreq = dnic.rx.request()
                    yield rxreq
                    dnic.rx_busy.set(1)
                    wire = seg / p.bandwidth
                    if first:
                        wire += p.latency
                        first = False
                    yield Timeout(self.sim, wire)
                    snic.tx_busy.set(0 if snic.tx.queue_length == 0 else 1)
                    dnic.rx_busy.set(0 if dnic.rx.queue_length == 0 else 1)
                    txreq.release()
                    rxreq.release()
                    txreq = rxreq = None
                    remaining -= seg
            finally:
                # Cancelled mid-segment: give the channels back so the
                # dead flow stops serialising everyone else's traffic.
                # ``release`` is idempotent, so the normal path's own
                # releases above are unaffected.
                if txreq is not None:
                    txreq.release()
                    snic.tx_busy.set(1 if snic.tx.count else 0)
                if rxreq is not None:
                    rxreq.release()
                    dnic.rx_busy.set(1 if dnic.rx.count else 0)
            snic.bytes_sent += size
            dnic.bytes_received += size
        yield dst.cpu.consume(cpu_cost)
        self.messages_delivered += 1
        self.bytes_delivered += size

    # ------------------------------------------------------------------
    def message_time(self, size: int) -> float:
        """Uncontended wire time for a message of *size* bytes."""
        return self.params.latency + size / self.params.bandwidth

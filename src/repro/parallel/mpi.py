"""A small message-passing layer over the simulated network.

Models what MPI point-to-point over TCP/Myrinet costs in this setting:
each ``send`` moves its payload size across the network (charging both
endpoints' CPUs for stack work) into the receiver's mailbox; ``recv``
blocks on the mailbox.  Message order between a pair of ranks is
preserved (mailboxes are FIFO).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from repro.sim import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node


class Messenger:
    """Rank-addressed mailboxes on the cluster network."""

    def __init__(self):
        self._nodes: Dict[int, "Node"] = {}
        self._mailboxes: Dict[int, Store] = {}
        self.messages_sent = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    def register(self, rank: int, node: "Node") -> None:
        if rank in self._nodes:
            raise ValueError(f"rank {rank} already registered")
        self._nodes[rank] = node
        self._mailboxes[rank] = Store(node.sim, name=f"mbox{rank}")

    def node(self, rank: int) -> "Node":
        return self._nodes[rank]

    @property
    def size(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, payload: Any, size: int):
        """Generator: deliver *payload* (accounted as *size* bytes) from
        rank *src* to rank *dst*.  Completes when delivered."""
        src_node = self._nodes[src]
        dst_node = self._nodes[dst]
        yield from src_node.network.transfer(src_node, dst_node, size)
        yield self._mailboxes[dst].put((src, payload))
        self.messages_sent += 1
        self.bytes_sent += size

    def recv(self, rank: int):
        """Generator: block until a message arrives; returns
        (source rank, payload)."""
        msg = yield self._mailboxes[rank].get()
        return msg

    def pending(self, rank: int) -> int:
        return len(self._mailboxes[rank])

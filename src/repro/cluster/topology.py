"""Cluster assembly: N identical nodes on one Myrinet switch."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim import RandomStreams, Simulator
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.params import NodeParams, prairiefire_params


class Cluster:
    """A simulated Linux cluster.

    Parameters
    ----------
    n_nodes:
        Number of nodes (named ``node00``, ``node01``, ...).
    params:
        Per-node hardware parameters (PrairieFire defaults).
    seed:
        Root seed for the cluster's random streams.
    """

    def __init__(self, n_nodes: int = 8,
                 params: Optional[NodeParams] = None, seed: int = 0):
        if n_nodes < 1:
            raise ValueError("cluster needs at least one node")
        self.sim = Simulator()
        self.params = params or prairiefire_params()
        self.network = Network(self.sim, self.params.network)
        self.streams = RandomStreams(seed)
        self.nodes: List[Node] = [
            Node(self.sim, f"node{i:02d}", self.network, self.params)
            for i in range(n_nodes)
        ]
        self._by_name: Dict[str, Node] = {n.name: n for n in self.nodes}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def __getitem__(self, index: int) -> Node:
        return self.nodes[index]

    def node(self, name: str) -> Node:
        return self._by_name[name]

    def __iter__(self):
        return iter(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Cluster n={len(self.nodes)}>"

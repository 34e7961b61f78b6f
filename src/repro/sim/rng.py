"""Deterministic per-component random streams.

Every stochastic component in the simulation draws from its own named
stream, derived from a single root seed.  Adding a new component or
changing the order of draws in one component therefore never perturbs
another component's sequence — the standard trick for reproducible parallel
simulations.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np


class RandomStreams:
    """Factory of independent :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream called *name*."""
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            gen = np.random.default_rng(child_seed)
            self._streams[name] = gen
        return gen

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RandomStreams seed={self.seed} streams={sorted(self._streams)}>"

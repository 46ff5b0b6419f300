"""Content-keyed in-process cache for generated underlays and their oracles.

Every experiment run over the same topology parameters would regenerate
an identical transit-stub underlay and repeat the Floyd-Warshall/Dijkstra
precompute of :class:`~repro.topology.routing.DelayOracle`.  This module
keeps an LRU of ``(topology, oracle)`` pairs keyed by a hash of the full
:class:`~repro.config.TopologyConfig` (parameters and seed), so repeat
runs inside one process pay for each underlay once.

Each process builds its own copy: a paper-scale underlay (15,600 nodes)
builds in about a second and a bench-scale one in milliseconds, so
sharing the artefact across processes is not worth a serialization
format.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import OrderedDict
from typing import Optional, Tuple

from ..config import TopologyConfig
from .routing import DelayOracle
from .transit_stub import TransitStubTopology, generate_transit_stub

#: Default number of (topology, oracle) pairs kept in memory.
DEFAULT_MEMORY_SLOTS = 8


def topology_cache_key(config: TopologyConfig) -> str:
    """Content key: a hash over every generator parameter plus the seed."""
    payload = repr(sorted(dataclasses.asdict(config).items())).encode()
    return hashlib.sha256(payload).hexdigest()[:24]


class TopologyCache:
    """Content-keyed LRU of ``(topology, oracle)`` pairs."""

    def __init__(self, memory_slots: int = DEFAULT_MEMORY_SLOTS):
        self._memory_slots = max(1, memory_slots)
        self._memory: "OrderedDict[str, Tuple[TransitStubTopology, DelayOracle]]" = (
            OrderedDict()
        )
        self.memory_hits = 0
        self.misses = 0

    def get(
        self, config: TopologyConfig
    ) -> Tuple[TransitStubTopology, DelayOracle]:
        """The (topology, oracle) pair for ``config``, computed at most once
        while it stays among the ``memory_slots`` most recently used."""
        key = topology_cache_key(config)
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            self.memory_hits += 1
            return cached
        self.misses += 1
        topology = generate_transit_stub(config)
        pair = (topology, DelayOracle(topology))
        self._memory[key] = pair
        while len(self._memory) > self._memory_slots:
            self._memory.popitem(last=False)
        return pair


#: Process-wide cache shared by the experiment harness.
_default_cache: Optional[TopologyCache] = None


def default_cache() -> TopologyCache:
    """The process-wide :class:`TopologyCache` (created on first use)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = TopologyCache()
    return _default_cache


def clear_default_cache() -> None:
    """Drop the process-wide cache and its statistics."""
    global _default_cache
    _default_cache = None

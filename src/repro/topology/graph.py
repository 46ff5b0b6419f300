"""A minimal undirected weighted graph with shortest-path utilities.

Kept intentionally simple: adjacency lists over integer node ids.  The
hierarchical :class:`~repro.topology.routing.DelayOracle` answers the hot
queries; this class is the ground-truth reference (flat Dijkstra) used in
tests and for small ad-hoc graphs.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, Iterator, List, Tuple

from ..errors import TopologyError


class Graph:
    """Undirected weighted graph over integer node ids ``0..n-1``."""

    def __init__(self, num_nodes: int = 0):
        if num_nodes < 0:
            raise TopologyError(f"num_nodes must be >= 0, got {num_nodes}")
        self._adj: List[List[Tuple[int, float]]] = [[] for _ in range(num_nodes)]
        self._num_edges = 0

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def add_node(self) -> int:
        """Append a new node; returns its id."""
        self._adj.append([])
        return len(self._adj) - 1

    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Add an undirected edge; parallel edges are allowed (Dijkstra
        simply uses the lighter one)."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise TopologyError(f"self-loop on node {u}")
        if weight < 0:
            raise TopologyError(f"negative edge weight {weight}")
        self._adj[u].append((v, weight))
        self._adj[v].append((u, weight))
        self._num_edges += 1

    def neighbors(self, u: int) -> Iterator[Tuple[int, float]]:
        """Iterate ``(neighbor, weight)`` pairs of ``u``."""
        self._check_node(u)
        return iter(self._adj[u])

    def degree(self, u: int) -> int:
        self._check_node(u)
        return len(self._adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return any(w == v for w, _ in self._adj[u])

    def shortest_paths_from(self, source: int) -> List[float]:
        """Dijkstra from ``source``: list of distances (inf if unreachable)."""
        self._check_node(source)
        dist = [math.inf] * self.num_nodes
        dist[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in self._adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist

    def shortest_path(self, source: int, target: int) -> float:
        """Distance between two nodes (inf if disconnected)."""
        self._check_node(target)
        return self.shortest_paths_from(source)[target]

    def is_connected(self) -> bool:
        """True for the empty graph and any graph with one reachable component."""
        if self.num_nodes == 0:
            return True
        seen = [False] * self.num_nodes
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v, _ in self._adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == self.num_nodes

    def subgraph_distances(self, nodes: Iterable[int]) -> Dict[int, List[float]]:
        """All-pairs distances among ``nodes`` through the *full* graph.

        Returns ``{node: distances-list}`` — one Dijkstra per listed node.
        """
        return {u: self.shortest_paths_from(u) for u in nodes}

    def _check_node(self, u: int) -> None:
        if not 0 <= u < len(self._adj):
            raise TopologyError(f"unknown node id {u} (graph has {len(self._adj)})")

"""Hierarchical shortest-path delay oracle for transit-stub topologies.

Because stub domains are leaves hanging off a single gateway/access edge,
every shortest path decomposes exactly as::

    stub u --(intra-domain)--> gateway --(access)--> transit core
           --(core shortest path)--> transit --(access)--> gateway
           --(intra-domain)--> stub v

so after precomputing (a) per-domain all-pairs distances and (b) transit
core all-pairs distances, any pairwise delay is an O(1) lookup.  The
decomposition is *exact* for the graphs produced by
:func:`~repro.topology.transit_stub.generate_transit_stub` (verified
against flat Dijkstra in the test suite).

Precompute cost at paper scale: 960 Floyd-Warshall passes on 16x16
matrices + 240 Dijkstras on the 240-node core — well under a second.

Query cost is what the simulator lives on (a churn run makes millions of
scalar queries and the recovery observer batches thousands more), so the
constructor additionally flattens the hierarchy metadata into plain
per-node lookup tables: the scalar :meth:`delay_ms` path touches only
Python lists (no numpy scalar boxing, no dataclass hops), and
:meth:`delays_from` evaluates whole target vectors with case-masked
numpy arithmetic whose operation order matches the scalar path exactly —
both paths return bit-identical IEEE doubles.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..errors import TopologyError
from .graph import Graph
from .transit_stub import TransitStubTopology


def _floyd_warshall(matrix: np.ndarray) -> np.ndarray:
    """In-place Floyd-Warshall on a dense adjacency matrix (inf = absent)."""
    n = matrix.shape[0]
    for k in range(n):
        np.minimum(matrix, matrix[:, k : k + 1] + matrix[k : k + 1, :], out=matrix)
    return matrix


class DelayOracle:
    """O(1) pairwise underlay delay queries for a transit-stub topology."""

    #: Delays never change over a run (the fault injector's DegradedOracle
    #: proxy sets this False); callers may cache per-edge results when True.
    stable_delays = True

    def __init__(self, topology: TransitStubTopology):
        self._topology = topology
        self._num_transit = len(topology.transit_nodes)
        self._intra: List[np.ndarray] = []
        self._local_index: Dict[int, int] = {}
        self._build_intra_domain()
        self._core = self._build_core()
        self._build_tables()

    # -- construction -------------------------------------------------------

    def _build_intra_domain(self) -> None:
        graph = self._topology.graph
        for domain in self._topology.stub_domains:
            nodes = domain.nodes
            n = len(nodes)
            index = {node: i for i, node in enumerate(nodes)}
            for node, i in index.items():
                self._local_index[node] = i
            matrix = np.full((n, n), np.inf)
            np.fill_diagonal(matrix, 0.0)
            for node in nodes:
                i = index[node]
                for neighbor, weight in graph.neighbors(node):
                    j = index.get(neighbor)
                    if j is not None and weight < matrix[i, j]:
                        matrix[i, j] = weight
                        matrix[j, i] = weight
            self._intra.append(_floyd_warshall(matrix))

    def _build_core(self) -> np.ndarray:
        """All-pairs shortest paths over the transit-only subgraph."""
        graph = self._topology.graph
        core = Graph(self._num_transit)
        seen = set()
        for u in range(self._num_transit):
            for v, weight in graph.neighbors(u):
                if v < self._num_transit and (v, u) not in seen:
                    core.add_edge(u, v, weight)
                    seen.add((u, v))
        matrix = np.empty((self._num_transit, self._num_transit))
        for u in range(self._num_transit):
            matrix[u, :] = core.shortest_paths_from(u)
        if not np.isfinite(matrix).all():
            raise TopologyError("transit core is disconnected")
        return matrix

    def _build_tables(self) -> None:
        """Flatten the hierarchy into per-node lookup tables.

        ``.tolist()`` materialises the matrices as plain Python floats —
        the exact IEEE doubles ``float(matrix[i, j])`` would produce — so
        the list-based scalar path below is bit-identical to the old
        matrix-indexing one while skipping all numpy scalar overhead.
        """
        topo = self._topology
        self._node_dom: List[int] = topo.node_domain.tolist()
        n_nodes = len(self._node_dom)
        li = [0] * n_nodes
        s2g = [0.0] * n_nodes
        dom_access: List[float] = []
        dom_transit: List[int] = []
        intra_lists: List[List[List[float]]] = []
        for domain in topo.stub_domains:
            dom_access.append(domain.access_delay_ms)
            dom_transit.append(domain.transit_node)
            rows = self._intra[domain.domain_id].tolist()
            intra_lists.append(rows)
            gateway_local = self._local_index[domain.gateway]
            for i, node in enumerate(domain.nodes):
                li[node] = i
                s2g[node] = rows[i][gateway_local]
        self._li = li
        self._s2g = s2g
        self._dom_access = dom_access
        self._dom_transit = dom_transit
        self._intra_lists = intra_lists
        self._core_rows: List[List[float]] = self._core.tolist()
        # Vector-path tables (delays_from).
        self._nd_arr = np.asarray(topo.node_domain, dtype=np.int64)
        self._li_arr = np.array(li, dtype=np.int64)
        self._s2g_arr = np.array(s2g)
        self._acc_arr = np.array(dom_access)
        self._dt_arr = np.array(dom_transit, dtype=np.int64)
        self._intra_stack = (
            np.stack(self._intra) if self._intra else np.empty((0, 0, 0))
        )

    # -- queries --------------------------------------------------------------

    def delay_ms(self, u: int, v: int) -> float:
        """Exact shortest-path delay between any two underlay nodes, ms."""
        if u == v:
            return 0.0
        du = self._node_dom[u]
        dv = self._node_dom[v]
        if du < 0:
            if dv < 0:
                return self._core_rows[u][v]
            return self._transit_to_stub(u, v)
        if dv < 0:
            return self._transit_to_stub(v, u)
        if du == dv:
            return self._intra_lists[du][self._li[u]][self._li[v]]
        return (
            self._s2g[u]
            + self._dom_access[du]
            + self._core_rows[self._dom_transit[du]][self._dom_transit[dv]]
            + self._dom_access[dv]
            + self._s2g[v]
        )

    def delays_from(self, source: int, targets: Sequence[int]) -> np.ndarray:
        """Vector of delays from ``source`` to each of ``targets``.

        Bit-identical to ``[self.delay_ms(source, t) for t in targets]``:
        every case mask evaluates the same additions in the same
        left-to-right association as the scalar path.
        """
        t = np.asarray(targets, dtype=np.int64)
        out = np.empty(t.shape, dtype=np.float64)
        if t.size == 0:
            return out
        td = self._nd_arr[t]
        tmask = td < 0
        ds = self._node_dom[source]
        if ds < 0:
            if tmask.any():
                out[tmask] = self._core[source, t[tmask]]
            smask = ~tmask
            if smask.any():
                ts = t[smask]
                d = td[smask]
                out[smask] = (self._s2g_arr[ts] + self._acc_arr[d]) + self._core[
                    self._dt_arr[d], source
                ]
        else:
            s2g_acc = self._s2g[source] + self._dom_access[ds]
            dt_s = self._dom_transit[ds]
            if tmask.any():
                out[tmask] = s2g_acc + self._core[dt_s, t[tmask]]
            same = td == ds
            if same.any():
                out[same] = self._intra_stack[
                    ds, self._li[source], self._li_arr[t[same]]
                ]
            cross = ~tmask & ~same
            if cross.any():
                tc = t[cross]
                d = td[cross]
                out[cross] = (
                    (s2g_acc + self._core[dt_s, self._dt_arr[d]])
                    + self._acc_arr[d]
                ) + self._s2g_arr[tc]
        out[t == source] = 0.0
        return out

    def _stub_to_gateway(self, node: int) -> float:
        return self._s2g[node]

    def _transit_to_stub(self, transit: int, stub: int) -> float:
        d = self._node_dom[stub]
        return (
            self._s2g[stub]
            + self._dom_access[d]
            + self._core_rows[self._dom_transit[d]][transit]
        )

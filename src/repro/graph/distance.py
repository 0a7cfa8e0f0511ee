"""Distance oracle over schema graphs for tight/diverse constraints.

The distance between two preview tables is the shortest *undirected* path
length between their key attributes in the schema graph (Sec. 4).  The
oracle precomputes all pairs once (schema graphs are small, Table 2) and
answers pairwise queries in O(1), which is what both the
distance-checked brute force and the Apriori algorithm need.

The build maps the nodes to positions in the graph's insertion order
and runs one level-by-level BFS per source over integer adjacency
lists, filling a row of hop counts (:data:`INFINITY` where unreachable).
Every accessor reads those rows; the numpy clique join reads
:meth:`DistanceOracle.dense`, a flat float64 copy of them.
:func:`~repro.graph.traversal.all_pairs_shortest_paths` computes the
same distances over dictionaries and is the reference the tests diff
against.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from ..exceptions import NodeNotFoundError
from .simple import UndirectedGraph

Node = Hashable

#: Distance reported for mutually unreachable node pairs.
INFINITY = math.inf

#: A hop count, or :data:`INFINITY` for an unreachable pair.
Hops = Union[int, float]


def _hop_row(adjacency: List[List[int]], source: int) -> List[Hops]:
    """Hop counts from ``source`` to every position, one BFS level at a time."""
    row: List[Hops] = [INFINITY] * len(adjacency)
    row[source] = 0
    frontier = [source]
    hops = 0
    while frontier:
        hops += 1
        reached = []
        for u in frontier:
            for v in adjacency[u]:
                # Identity, not equality: an unreached entry is still
                # the one INFINITY object the row was filled with.
                if row[v] is INFINITY:
                    row[v] = hops
                    reached.append(v)
        frontier = reached
    return row


class DistanceOracle:
    """Precomputed all-pairs undirected hop distances.

    Unreachable pairs have distance :data:`INFINITY`, which naturally makes
    them fail every tight constraint and satisfy every diverse constraint —
    the semantics that follow from the paper's set definitions.
    """

    def __init__(self, graph: UndirectedGraph) -> None:
        self._nodes: Tuple[Node, ...] = tuple(graph.nodes())
        self._position: Dict[Node, int] = {
            node: at for at, node in enumerate(self._nodes)
        }
        adjacency = [
            [self._position[nbr] for nbr in graph.neighbors(node)]
            for node in self._nodes
        ]
        #: ``_rows[i][j]``: hops from ``_nodes[i]`` to ``_nodes[j]``.
        self._rows: List[List[Hops]] = [
            _hop_row(adjacency, source) for source in range(len(adjacency))
        ]
        #: ``(nodes, flat table)`` of the last :meth:`dense` call.
        self._dense: Optional[Tuple[Tuple[Node, ...], array]] = None

    def _at(self, node: Node) -> int:
        try:
            return self._position[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def distance(self, u: Node, v: Node) -> Hops:
        """Shortest undirected hop distance between ``u`` and ``v``.

        An ``int`` for a reachable pair, :data:`INFINITY` otherwise; an
        unknown node raises :class:`~repro.exceptions.NodeNotFoundError`.
        """
        row = self._rows[self._at(u)]
        return row[self._at(v)]

    def dense(self, nodes: Sequence[Node]) -> memoryview:
        """All distances among ``nodes`` as one read-only float64 table.

        Row-major and flat: entry ``i * len(nodes) + j`` is
        ``distance(nodes[i], nodes[j])``, :data:`INFINITY` for an
        unreachable pair.  An unknown node raises
        :class:`~repro.exceptions.NodeNotFoundError`, as in
        :meth:`distance`.  Nodes in the oracle's own order (:meth:`nodes`)
        get the whole table.  The table for the last ``nodes`` tuple is
        cached, so every clique group of one schema shares one build;
        the schema drops the whole oracle when it mutates.
        """
        key = tuple(nodes)
        if self._dense is None or self._dense[0] != key:
            if key == self._nodes:
                rows = self._rows
            else:
                at = [self._at(node) for node in key]
                rows = [[self._rows[i][j] for j in at] for i in at]
            flat = array("d")
            for row in rows:
                flat.fromlist(row)
            self._dense = (key, flat)
        return memoryview(self._dense[1]).toreadonly()

    def within(self, u: Node, v: Node, d: float) -> bool:
        """True when ``dist(u, v) <= d`` (tight-preview adjacency)."""
        return self.distance(u, v) <= d

    def at_least(self, u: Node, v: Node, d: float) -> bool:
        """True when ``dist(u, v) >= d`` (diverse-preview adjacency)."""
        return self.distance(u, v) >= d

    def nodes(self) -> List[Node]:
        """Nodes present in the distance table, in the graph's order."""
        return list(self._nodes)

    def matrix(self) -> Dict[Node, Dict[Node, int]]:
        """The raw (finite-entries-only) distance table, for inspection."""
        return {
            u: {v: hops for v, hops in zip(self._nodes, row) if hops != INFINITY}
            for u, row in zip(self._nodes, self._rows)
        }

    def pairs_within(self, d: float) -> List[Tuple[Node, Node]]:
        """All unordered distinct pairs at distance ``<= d``."""
        return self._pairs(lambda hops: hops <= d)

    def pairs_at_least(self, d: float) -> List[Tuple[Node, Node]]:
        """All unordered distinct pairs at distance ``>= d``."""
        return self._pairs(lambda hops: hops >= d)

    def _pairs(self, keep) -> List[Tuple[Node, Node]]:
        nodes = self._nodes
        return [
            (u, nodes[j])
            for i, (u, row) in enumerate(zip(nodes, self._rows))
            for j in range(i + 1, len(nodes))
            if keep(row[j])
        ]

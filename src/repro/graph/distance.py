"""Distance oracle over schema graphs for tight/diverse constraints.

The distance between two preview tables is the shortest *undirected* path
length between their key attributes in the schema graph (Sec. 4).  The
oracle precomputes all-pairs BFS once (schema graphs are small, Table 2)
and answers pairwise queries in O(1), which is what both the
distance-checked brute force and the Apriori algorithm need.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..exceptions import NodeNotFoundError
from .simple import UndirectedGraph
from .traversal import all_pairs_shortest_paths

Node = Hashable

#: Distance reported for mutually unreachable node pairs.
INFINITY = math.inf


class DistanceOracle:
    """Precomputed all-pairs undirected hop distances.

    Unreachable pairs have distance :data:`INFINITY`, which naturally makes
    them fail every tight constraint and satisfy every diverse constraint —
    the semantics that follow from the paper's set definitions.
    """

    def __init__(self, graph: UndirectedGraph) -> None:
        self._table: Dict[Node, Dict[Node, int]] = all_pairs_shortest_paths(graph)
        #: ``(nodes, flat table)`` of the last :meth:`dense` call.
        self._dense: Optional[Tuple[Tuple[Node, ...], array]] = None

    def distance(self, u: Node, v: Node) -> float:
        """Shortest undirected hop distance between ``u`` and ``v``."""
        try:
            row = self._table[u]
        except KeyError:
            raise NodeNotFoundError(u) from None
        if v not in self._table:
            raise NodeNotFoundError(v)
        return row.get(v, INFINITY)

    def dense(self, nodes: Sequence[Node]) -> memoryview:
        """All distances among ``nodes`` as one read-only float64 table.

        Row-major and flat: entry ``i * len(nodes) + j`` is
        ``distance(nodes[i], nodes[j])``, :data:`INFINITY` for an
        unreachable pair.  An unknown node raises
        :class:`~repro.exceptions.NodeNotFoundError`, as in
        :meth:`distance`.  The table for the last ``nodes`` tuple is
        cached, so every clique group of one schema shares one build;
        the schema drops the whole oracle when it mutates.
        """
        key = tuple(nodes)
        if self._dense is None or self._dense[0] != key:
            try:
                rows = [self._table[u] for u in key]
            except KeyError as exc:
                raise NodeNotFoundError(exc.args[0]) from None
            flat = array("d")
            for row in rows:
                flat.extend([row.get(v, INFINITY) for v in key])
            self._dense = (key, flat)
        return memoryview(self._dense[1]).toreadonly()

    def within(self, u: Node, v: Node, d: float) -> bool:
        """True when ``dist(u, v) <= d`` (tight-preview adjacency)."""
        return self.distance(u, v) <= d

    def at_least(self, u: Node, v: Node, d: float) -> bool:
        """True when ``dist(u, v) >= d`` (diverse-preview adjacency)."""
        return self.distance(u, v) >= d

    def nodes(self) -> List[Node]:
        """Nodes present in the distance table."""
        return list(self._table)

    def matrix(self) -> Dict[Node, Dict[Node, int]]:
        """The raw (finite-entries-only) distance table, for inspection."""
        return {u: dict(row) for u, row in self._table.items()}

    def pairs_within(self, d: float) -> List[Tuple[Node, Node]]:
        """All unordered distinct pairs at distance ``<= d``."""
        nodes = list(self._table)
        out = []
        for i, u in enumerate(nodes):
            for v in nodes[i + 1:]:
                if self.within(u, v, d):
                    out.append((u, v))
        return out

    def pairs_at_least(self, d: float) -> List[Tuple[Node, Node]]:
        """All unordered distinct pairs at distance ``>= d``."""
        nodes = list(self._table)
        out = []
        for i, u in enumerate(nodes):
            for v in nodes[i + 1:]:
                if self.at_least(u, v, d):
                    out.append((u, v))
        return out

"""A simple undirected graph with optional edge weights.

The schema graph derives one from its relationship-type counts
(:meth:`~repro.model.schema_graph.SchemaGraph.undirected_weighted`).
Used by:

* the random-walk scoring measure (Sec. 3.2), which walks it weighted;
* the distance oracle (shortest undirected path between entity types),
  which runs one BFS per type over it.

The clique step of the Apriori-style algorithm (Alg. 3) builds no
graph: it reads pairwise distances from the oracle (under numpy, from
its dense table, :meth:`~repro.graph.distance.DistanceOracle.dense`).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Set, Tuple

from ..exceptions import NodeNotFoundError

Node = Hashable


class UndirectedGraph:
    """An undirected simple graph with float edge weights.

    Adding an edge that already exists accumulates its weight, which is the
    behaviour needed when folding directed relationship types: the paper
    defines ``w_ij`` as the *total* number of entity-graph relationships
    between the two types, summed over both directions.
    """

    def __init__(self) -> None:
        self._adj: Dict[Node, Dict[Node, float]] = {}

    def add_node(self, node: Node) -> None:
        """Add ``node`` (idempotent)."""
        self._adj.setdefault(node, {})

    def has_node(self, node: Node) -> bool:
        """Whether ``node`` is in the graph."""
        return node in self._adj

    def nodes(self) -> Iterator[Node]:
        """Iterator over nodes in insertion order."""
        return iter(self._adj)

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._adj)

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Add (or reinforce) the undirected edge ``{u, v}``.

        Self-loops are permitted; a self-loop's weight is stored once.
        """
        self.add_node(u)
        self.add_node(v)
        self._adj[u][v] = self._adj[u].get(v, 0.0) + weight
        if u != v:
            self._adj[v][u] = self._adj[v].get(u, 0.0) + weight

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether edge ``u``-``v`` exists."""
        return u in self._adj and v in self._adj[u]

    def weight(self, u: Node, v: Node) -> float:
        """Return the weight of edge ``{u, v}``; 0.0 if absent."""
        if u not in self._adj:
            raise NodeNotFoundError(u)
        if v not in self._adj:
            raise NodeNotFoundError(v)
        return self._adj[u].get(v, 0.0)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges (self-loops counted once)."""
        loops = sum(1 for node in self._adj if node in self._adj[node])
        non_loops = sum(len(nbrs) for nbrs in self._adj.values()) - loops
        return non_loops // 2 + loops

    def edges(self) -> Iterator[Tuple[Node, Node, float]]:
        """Yield each undirected edge once as ``(u, v, weight)``."""
        emitted: Set[Tuple[Node, Node]] = set()
        for u, nbrs in self._adj.items():
            for v, weight in nbrs.items():
                key = (u, v) if id(u) <= id(v) else (v, u)
                if (u, v) in emitted or (v, u) in emitted:
                    continue
                emitted.add(key)
                emitted.add((u, v))
                yield u, v, weight

    def neighbors(self, node: Node) -> Iterator[Node]:
        """Iterator over neighbors of ``node``, in insertion order."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return iter(self._adj[node])

    def degree(self, node: Node) -> int:
        """Number of edges incident to ``node``."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return len(self._adj[node])

    def weighted_degree(self, node: Node) -> float:
        """Sum of incident edge weights (the random-walk normalizer)."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return sum(self._adj[node].values())

    def subgraph(self, nodes: Iterable[Node]) -> "UndirectedGraph":
        """Induced subgraph on ``nodes`` (unknown names ignored)."""
        keep = {node for node in nodes if node in self._adj}
        sub = UndirectedGraph()
        for node in keep:
            sub.add_node(node)
        for u, v, weight in self.edges():
            if u in keep and v in keep:
                sub.add_edge(u, v, weight)
        return sub

    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(nodes={self.node_count}, "
            f"edges={self.edge_count})"
        )

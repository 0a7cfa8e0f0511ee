"""Breadth-first traversal and shortest-path utilities.

The paper's table-distance constraint (Sec. 4) is defined on the *shortest
undirected path* between two entity types in the schema graph, so every
function here walks an :class:`~repro.graph.simple.UndirectedGraph` and
counts hops (edges are unweighted for distance purposes).  Neighbours
are visited in insertion order, so traversal orders are deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional

from ..exceptions import NodeNotFoundError
from .simple import UndirectedGraph

Node = Hashable


def bfs_order(graph: UndirectedGraph, source: Node) -> List[Node]:
    """Return nodes in breadth-first order from ``source`` (undirected)."""
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    order: List[Node] = []
    visited = {source}
    queue: deque = deque([source])
    while queue:
        node = queue.popleft()
        order.append(node)
        for nbr in graph.neighbors(node):
            if nbr not in visited:
                visited.add(nbr)
                queue.append(nbr)
    return order


def shortest_path_lengths(graph: UndirectedGraph, source: Node) -> Dict[Node, int]:
    """Single-source shortest path lengths in hops.

    Unreachable nodes are absent from the returned mapping.
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    dist: Dict[Node, int] = {source: 0}
    queue: deque = deque([source])
    while queue:
        node = queue.popleft()
        d = dist[node]
        for nbr in graph.neighbors(node):
            if nbr not in dist:
                dist[nbr] = d + 1
                queue.append(nbr)
    return dist


def shortest_path(
    graph: UndirectedGraph, source: Node, target: Node
) -> Optional[List[Node]]:
    """One shortest undirected path ``source .. target`` or None."""
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    if not graph.has_node(target):
        raise NodeNotFoundError(target)
    if source == target:
        return [source]
    parent: Dict[Node, Node] = {source: source}
    queue: deque = deque([source])
    while queue:
        node = queue.popleft()
        for nbr in graph.neighbors(node):
            if nbr in parent:
                continue
            parent[nbr] = node
            if nbr == target:
                path = [target]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(nbr)
    return None


def all_pairs_shortest_paths(graph: UndirectedGraph) -> Dict[Node, Dict[Node, int]]:
    """All-pairs shortest path lengths in hops.

    Runs one BFS per node: O(V * (V + E)).  Schema graphs have at most a
    few hundred vertices (Table 2), so this is cheap and is what the paper
    precomputes before preview discovery.
    """
    return {node: shortest_path_lengths(graph, node) for node in graph.nodes()}


def eccentricity(graph: UndirectedGraph, node: Node) -> int:
    """Maximum finite distance from ``node`` to any reachable node."""
    lengths = shortest_path_lengths(graph, node)
    return max(lengths.values())


def diameter(graph: UndirectedGraph) -> int:
    """Longest shortest path over all reachable pairs (undirected).

    For a disconnected graph this is the maximum over components (the
    paper quotes "the longest path length is 7" for the film domain's
    schema graph in this sense).  Returns 0 for an empty graph.
    """
    best = 0
    for node in graph.nodes():
        ecc = eccentricity(graph, node)
        if ecc > best:
            best = ecc
    return best


def average_path_length(graph: UndirectedGraph) -> float:
    """Mean finite pairwise distance over ordered reachable pairs.

    Returns 0.0 when the graph has fewer than two mutually reachable
    nodes.  The paper quotes "average path length is around 3-4" for the
    film schema graph.
    """
    total = 0
    pairs = 0
    for node in graph.nodes():
        for other, d in shortest_path_lengths(graph, node).items():
            if other != node:
                total += d
                pairs += 1
    if pairs == 0:
        return 0.0
    return total / pairs

"""Connected components of an undirected graph.

Schema graphs may be disconnected (Sec. 6 of the paper notes this when
motivating the random-walk smoothing term), so both the random-walk scorer
and the dataset generators need component analysis.
"""

from __future__ import annotations

from typing import Hashable, List, Set

from .simple import UndirectedGraph
from .traversal import bfs_order

Node = Hashable


def connected_components(graph: UndirectedGraph) -> List[Set[Node]]:
    """Return connected components, largest first.

    Ties in size are broken deterministically by insertion order of the
    first node seen in each component.
    """
    seen: Set[Node] = set()
    components: List[Set[Node]] = []
    for node in graph.nodes():
        if node in seen:
            continue
        component = set(bfs_order(graph, node))
        seen |= component
        components.append(component)
    components.sort(key=len, reverse=True)
    return components


def is_connected(graph: UndirectedGraph) -> bool:
    """True if the graph is non-empty and has a single component."""
    if graph.node_count == 0:
        return False
    return len(connected_components(graph)) == 1


def largest_component(graph: UndirectedGraph) -> Set[Node]:
    """The node set of the largest component; empty set for empty graphs."""
    components = connected_components(graph)
    if not components:
        return set()
    return components[0]

"""Graph substrate: the undirected type graph, traversal, random walks,
cliques.

This subpackage is self-contained (no third-party dependencies).  The
schema graph derives one :class:`UndirectedGraph` from its count tables;
the random-walk scorer walks it, and traversal, components and the
:class:`DistanceOracle` of tight/diverse previews run over it.
"""

from .cliques import (
    CLIQUE_BACKENDS,
    apriori_k_cliques,
    bron_kerbosch_k_cliques,
    k_cliques,
)
from .components import connected_components, is_connected, largest_component
from .distance import INFINITY, DistanceOracle
from .simple import UndirectedGraph
from .stationary import (
    DEFAULT_JUMP_PROBABILITY,
    power_iteration,
    stationary_distribution,
    transition_matrix,
)
from .traversal import (
    all_pairs_shortest_paths,
    average_path_length,
    bfs_order,
    diameter,
    eccentricity,
    shortest_path,
    shortest_path_lengths,
)

__all__ = [
    "CLIQUE_BACKENDS",
    "DEFAULT_JUMP_PROBABILITY",
    "INFINITY",
    "DistanceOracle",
    "UndirectedGraph",
    "all_pairs_shortest_paths",
    "apriori_k_cliques",
    "average_path_length",
    "bfs_order",
    "bron_kerbosch_k_cliques",
    "connected_components",
    "diameter",
    "eccentricity",
    "is_connected",
    "k_cliques",
    "largest_component",
    "power_iteration",
    "shortest_path",
    "shortest_path_lengths",
    "stationary_distribution",
    "transition_matrix",
]

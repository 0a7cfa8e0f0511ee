"""k-clique enumeration backends for the Apriori-style algorithm (Alg. 3).

The first step of the paper's Alg. 3 finds all k-subsets of entity types
that pairwise satisfy the distance constraint — i.e. all k-cliques of a
*threshold graph* whose edges connect types within (tight) or beyond
(diverse) distance ``d``.  The paper builds the cliques with an
Apriori-style level-wise join (inspired by frequent-itemset mining, and by
Kose et al.'s clique-metabolite matrices) and notes that any k-clique
algorithm can be plugged in; it cites Bron–Kerbosch as the classical
alternative.  We provide both backends so the ablation bench can compare
them, mirroring that discussion.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, List, Sequence, Tuple

from ..exceptions import GraphError

Node = Hashable
#: Adjacency predicate: returns True when two nodes are "compatible"
#: (within/beyond the distance threshold).
AdjacencyFn = Callable[[Node, Node], bool]


def clique_index(nodes: Sequence[Node], k: int) -> Dict[Node, int]:
    """Position of each node in ``nodes``, after validating the arguments.

    The one argument check every enumerator shares: raises
    :class:`~repro.exceptions.GraphError` when ``k`` is negative or
    ``nodes`` repeats a node (the total order would be ambiguous).
    """
    if k < 0:
        raise GraphError("k must be non-negative")
    index = {node: position for position, node in enumerate(nodes)}
    if len(index) != len(nodes):
        raise GraphError("nodes must be distinct")
    return index


def apriori_k_cliques(
    nodes: Sequence[Node],
    adjacent: AdjacencyFn,
    k: int,
) -> List[Tuple[Node, ...]]:
    """All k-cliques via level-wise Apriori-style joins (Alg. 3 lines 1-12).

    ``nodes`` fixes a total order; cliques are returned as sorted tuples in
    that order.  ``k=1`` returns singletons; ``k=0`` returns one empty
    tuple (the vacuous clique), matching the combinatorial convention.

    The join step merges two (i-1)-subsets sharing their first i-2
    elements and checks only the new pair, exactly as the paper's Alg. 3:
    every other pair was already validated in a parent subset.
    """
    index = clique_index(nodes, k)
    if k == 0:
        return [()]
    level: List[Tuple[Node, ...]] = [(node,) for node in nodes]
    if k == 1:
        return level

    # L2 seeding (Alg. 3 lines 1-5).
    pairs: List[Tuple[Node, ...]] = []
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if adjacent(u, v):
                pairs.append((u, v))
    level = pairs
    size = 2
    while size < k and level:
        nxt: List[Tuple[Node, ...]] = []
        # Group by shared prefix so the join scans only sibling subsets.
        by_prefix: Dict[Tuple[Node, ...], List[Node]] = {}
        for subset in level:
            by_prefix.setdefault(subset[:-1], []).append(subset[-1])
        for prefix, tails in by_prefix.items():
            tails.sort(key=index.__getitem__)
            for i, u in enumerate(tails):
                for v in tails[i + 1:]:
                    if adjacent(u, v):
                        nxt.append(prefix + (u, v))
        level = nxt
        size += 1
    return level if size == k else []


def bron_kerbosch_k_cliques(
    nodes: Sequence[Node],
    adjacent: AdjacencyFn,
    k: int,
) -> List[Tuple[Node, ...]]:
    """All k-cliques extracted via Bron–Kerbosch maximal-clique search.

    Enumerates maximal cliques with pivoting, then emits each k-subset of
    every maximal clique (deduplicated).  This is the classical baseline
    the paper contrasts with the Apriori-style method.
    """
    index = clique_index(nodes, k)
    if k == 0:
        return [()]
    neighbor_sets: Dict[Node, set] = {
        u: {v for v in nodes if v != u and adjacent(u, v)} for u in nodes
    }

    maximal: List[FrozenSet[Node]] = []

    def expand(r: set, p: set, x: set) -> None:
        if not p and not x:
            maximal.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda node: len(neighbor_sets[node] & p))
        for node in list(p - neighbor_sets[pivot]):
            expand(r | {node}, p & neighbor_sets[node], x & neighbor_sets[node])
            p.remove(node)
            x.add(node)

    expand(set(), set(nodes), set())

    from itertools import combinations

    found: set = set()
    for clique in maximal:
        if len(clique) < k:
            continue
        ordered = sorted(clique, key=index.__getitem__)
        for combo in combinations(ordered, k):
            found.add(combo)
    return sorted(found, key=lambda combo: [index[node] for node in combo])


#: Registry used by Alg. 3 to select a clique backend by name.
CLIQUE_BACKENDS: Dict[str, Callable[[Sequence[Node], AdjacencyFn, int], List[Tuple[Node, ...]]]] = {
    "apriori": apriori_k_cliques,
    "bron-kerbosch": bron_kerbosch_k_cliques,
}


def k_cliques(
    nodes: Sequence[Node],
    adjacent: AdjacencyFn,
    k: int,
    backend: str = "apriori",
) -> List[Tuple[Node, ...]]:
    """Dispatch k-clique enumeration to a named backend."""
    try:
        fn = CLIQUE_BACKENDS[backend]
    except KeyError:
        raise GraphError(
            f"unknown clique backend {backend!r}; "
            f"available: {', '.join(sorted(CLIQUE_BACKENDS))}"
        ) from None
    return fn(nodes, adjacent, k)
